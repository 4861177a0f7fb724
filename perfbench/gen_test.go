package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/compile"
	"repro/internal/server"
)

// generators yields each workload's inputs for a seed and request count.
var generators = map[string]func(seed uint64, n int) (*inputs, error){
	"cold-explore": func(seed uint64, n int) (*inputs, error) {
		_, in, err := genColdExplore(seed, n)
		return in, err
	},
	"warm-restart": func(seed uint64, n int) (*inputs, error) {
		_, in, err := genWarmRestart(seed, n)
		return in, err
	},
	"codesign": genCodesign,
}

// sent returns every body in the order the requests send them.
func sent(in *inputs) []byte {
	var b bytes.Buffer
	for i := range in.n() {
		b.Write(in.body(i))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestInputsFollowTheSeed(t *testing.T) {
	for name, gen := range generators {
		t.Run(name, func(t *testing.T) {
			in := func(seed uint64) []byte {
				t.Helper()
				in, err := gen(seed, 500)
				if err != nil {
					t.Fatal(err)
				}
				if in.n() != 500 {
					t.Fatalf("%d requests, want 500", in.n())
				}
				return sent(in)
			}
			if a, b := in(7), in(7); !bytes.Equal(a, b) {
				t.Error("seed 7 generated different bodies on two calls")
			}
			if a, b := in(7), in(8); bytes.Equal(a, b) {
				t.Error("seeds 7 and 8 generated identical bodies")
			}
		})
	}
}

// TestColdExploreKeysNeverRepeat decodes every body of a full cold-explore
// run the way the server does and requires each to name the request the
// generator recorded, under a compile key no other request has.
func TestColdExploreKeysNeverRepeat(t *testing.T) {
	reqs, in, err := genColdExplore(3, coldKeys)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[32]byte]int, len(reqs))
	for i, q := range reqs {
		_, decoded, err := server.ParseManifest(wrapManifest(in.body(i)))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		key, err := compile.Key(decoded[0])
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := compile.Key(q.request()); key != want {
			t.Fatalf("request %d: body %s does not decode to the recorded request", i, in.body(i))
		}
		h := sha256.Sum256([]byte(key))
		if j, ok := seen[h]; ok {
			t.Fatalf("requests %d and %d share a compile key", j, i)
		}
		seen[h] = i
	}
}

// TestBenchmarkJSONListsTheMetrics pins BENCHMARK.json to the metrics the
// command prints: same names, units and directions, in the same order.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the command runs", w.Name)
		}
	}
	if len(doc.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(specs))
	}
	for _, c := range []struct {
		name string
		got  []metric
		want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, layerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", c.name, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command prints %s %s %s", c.name, i, g, m.name, m.unit, m.better)
			}
		}
	}
}
