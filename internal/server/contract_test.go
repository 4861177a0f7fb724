package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/peer"
)

// The contract goldens pin what DESIGN.md §9.2 calls a stable contract: the
// /metrics family names, types, help text and label names, and the /stats
// key paths in emission order (the CI fleet smoke reads /stats with sed,
// taking the first match, so key order is part of the contract). Regenerate
// them only for an intended contract change:
//
//	go test ./internal/server -run TestContract -update

var update = flag.Bool("update", false, "rewrite the contract golden files")

// contractConfig builds a server with every optional tier configured: a
// store and a two-node peer ring whose other node is never contacted.
func contractConfig(t *testing.T) Config {
	t.Helper()
	addrs := []string{"10.99.2.1:80", "10.99.2.2:80"}
	ring, err := peer.NewRing(addrs[0], addrs)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Store: openStore(t, t.TempDir()), Peers: peer.NewClient(ring, peer.MemTransport{}, 0)}
}

// serveGet answers one in-process GET request.
func serveGet(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

func TestContractMetrics(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"store+peers", contractConfig(t)},
	} {
		fmt.Fprintf(&b, "== %s\n", c.name)
		for _, line := range metricsShape(string(serveGet(t, New(c.cfg), "/metrics"))) {
			b.WriteString(line + "\n")
		}
	}
	checkGolden(t, "testdata/metrics_contract.golden", b.String())
}

func TestContractStatsKeys(t *testing.T) {
	body := serveGet(t, New(contractConfig(t)), "/stats")
	paths, err := jsonKeyPaths(body)
	if err != nil {
		t.Fatalf("parse /stats: %v\n%s", err, body)
	}
	checkGolden(t, "testdata/stats_keys.golden", strings.Join(paths, "\n")+"\n")
}

// metricsShape reduces a scrape to its contract: the # HELP and # TYPE
// lines, plus one line per series name with its sorted label names, sorted
// and deduplicated (sample values and label values are dropped).
func metricsShape(body string) []string {
	seen := map[string]bool{}
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			line = seriesShape(line)
		}
		if !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// seriesShape turns one sample line, name{k="v",...} value, into
// name{k,...} with the label names sorted.
func seriesShape(line string) string {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return line
	}
	if line[i] != '{' {
		return line[:i]
	}
	var keys []string
	rest := line[i+1:]
	for {
		k, v, ok := strings.Cut(rest, `="`)
		if !ok {
			break
		}
		keys = append(keys, strings.TrimPrefix(k, ","))
		j := 0
		for ; j < len(v) && v[j] != '"'; j++ {
			if v[j] == '\\' {
				j++
			}
		}
		rest = v[min(j+1, len(v)):]
	}
	sort.Strings(keys)
	return line[:i] + "{" + strings.Join(keys, ",") + "}"
}

// jsonKeyPaths lists every object key of a JSON document as a dotted path,
// in the order the keys appear.
func jsonKeyPaths(data []byte) ([]string, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var paths []string
	var walk func(prefix string) error
	walk = func(prefix string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					return err
				}
				p := k.(string)
				if prefix != "" {
					p = prefix + "." + p
				}
				paths = append(paths, p)
				if err := walk(p); err != nil {
					return err
				}
			}
		case json.Delim('['):
			for dec.More() {
				if err := walk(prefix + "[]"); err != nil {
					return err
				}
			}
		default:
			return nil
		}
		_, err = dec.Token() // the closing delimiter
		return err
	}
	return paths, walk("")
}

// checkGolden compares got against the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		gl, wl := "<none>", "<none>"
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s drifted at line %d (a contract change needs -update and a note in CHANGES.md):\n got: %s\nwant: %s", path, i+1, gl, wl)
		}
	}
}
