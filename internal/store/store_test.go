package store

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
)

// testPlan compiles a small network and returns its key and serialized
// bytes — the exact artifacts the serving layer hands a Store.
func testPlan(t *testing.T, name string, oc int) (string, []byte) {
	t.Helper()
	n := model.Single(core.Layer{Name: name, IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: oc})
	n.Name = name
	req := compile.NewRequest(n, core.Array{Rows: 64, Cols: 64}, compile.Options{})
	key, err := compile.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compile.New(nil).Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return key, buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, data := testPlan(t, "rt", 4)

	if _, _, ok := s.GetPlan(key); ok {
		t.Fatal("unexpected hit on empty store")
	}
	s.PutPlan(key, data)
	s.Flush()
	got, plan, ok := s.GetPlan(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !bytes.Equal(got, data) {
		t.Error("loaded bytes differ from stored bytes")
	}
	if plan == nil || plan.Network.Name != "rt" {
		t.Errorf("loaded plan = %+v", plan)
	}
	st := s.StoreStats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 write, 0 corrupt", st)
	}
}

func TestReopenStaysWarm(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, data := testPlan(t, "reopen", 4)
	s.PutPlan(key, data)
	s.Flush()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	got, _, ok := s2.GetPlan(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("reopened store: hit=%v, bytes equal=%v", ok, bytes.Equal(got, data))
	}
}

func TestPutDeduplicates(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, data := testPlan(t, "dedup", 4)
	s.PutPlan(key, data)
	s.Flush()
	s.PutPlan(key, data)
	s.Flush()
	if w := s.StoreStats().Writes; w != 1 {
		t.Errorf("writes = %d, want 1 (second put of an existing entry skipped)", w)
	}
}

// corruptEntry rewrites the single stored entry's file through fn.
func corruptEntry(t *testing.T, s *Store, key string, fn func([]byte) []byte) string {
	t.Helper()
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCorruptEntryQuarantined(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"garbage", func(d []byte) []byte { return []byte("{not json") }},
		// Valid JSON whose totals no longer match its layers — the
		// golden-round-trip validation must reject it.
		{"totals-tampered", func(d []byte) []byte {
			return bytes.Replace(d, []byte(`"Totals":{"Cycles":`), []byte(`"Totals":{"Cycles":9`), 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key, data := testPlan(t, "corrupt", 4)
			s.PutPlan(key, data)
			s.Flush()
			path := corruptEntry(t, s, key, tc.fn)

			if _, _, ok := s.GetPlan(key); ok {
				t.Fatal("corrupt entry served")
			}
			if st := s.StoreStats(); st.Corrupt != 1 {
				t.Errorf("corrupt = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry still at its address")
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("quarantine file missing: %v", err)
			}
			// The address is vacant again: a recompute overwrites it and the
			// key serves normally.
			s.PutPlan(key, data)
			s.Flush()
			if _, _, ok := s.GetPlan(key); !ok {
				t.Error("recomputed entry not served")
			}
		})
	}
}

// TestNonCanonicalEntryQuarantined pins that an entry must hold the plan's
// canonical bytes: the right plan re-indented, or with a float written
// with a trailing zero, is quarantined, counted as corrupt and recomputed,
// never loaded.
func TestNonCanonicalEntryQuarantined(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"indented", func(d []byte) []byte {
			var out bytes.Buffer
			if err := json.Indent(&out, d, "", "  "); err != nil {
				t.Fatal(err)
			}
			return out.Bytes()
		}},
		{"trailing-zero", func(d []byte) []byte {
			loc := regexp.MustCompile(`"[A-Za-z]+":-?[0-9]+\.[0-9]+`).FindIndex(d)
			if loc == nil {
				t.Fatal("plan has no float with a fraction")
			}
			return slices.Concat(d[:loc[1]], []byte("0"), d[loc[1]:])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key, data := testPlan(t, "canonical", 4)
			s.PutPlan(key, data)
			s.Flush()
			path := corruptEntry(t, s, key, tc.fn)
			if _, _, ok := s.LoadPlan(context.Background(), key); ok {
				t.Fatal("non-canonical entry loaded")
			}
			if st := s.StoreStats(); st.Corrupt != 1 || st.Hits != 0 {
				t.Errorf("stats = %+v, want 1 corrupt and no hit", st)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("quarantine file missing: %v", err)
			}
			s.PutPlan(key, data)
			s.Flush()
			if got, _, ok := s.LoadPlan(context.Background(), key); !ok || !bytes.Equal(got, data) {
				t.Error("recomputed entry not served")
			}
		})
	}
}

func TestWrongKeyEntryQuarantined(t *testing.T) {
	// A structurally valid plan stored under another key's address — the
	// only "staleness" a content-addressed store can exhibit (a file copied
	// or renamed to the wrong path). The re-key check must catch it.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keyA, dataA := testPlan(t, "a", 4)
	keyB, _ := testPlan(t, "b", 8)
	if keyA == keyB {
		t.Fatal("test requires distinct keys")
	}
	s.PutPlan(keyB, dataA) // plan A's bytes at key B's address
	s.Flush()
	if _, _, ok := s.GetPlan(keyB); ok {
		t.Fatal("mis-addressed entry served")
	}
	if st := s.StoreStats(); st.Corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", st.Corrupt)
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, "abcd.json.tmp123")
	keep := filepath.Join(sub, "entry.json.corrupt")
	for _, p := range []string{tmp, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("abandoned temp file not swept")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Error("quarantined file swept; it should be kept for postmortems")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestFanoutLayout(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, data := testPlan(t, "layout", 4)
	s.PutPlan(key, data)
	s.Flush()
	path := s.path(key)
	rel, err := filepath.Rel(s.Dir(), path)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(rel, string(filepath.Separator))
	if len(parts) != 2 || len(parts[0]) != 2 || !strings.HasPrefix(parts[1], parts[0]) || !strings.HasSuffix(parts[1], ".json") {
		t.Errorf("entry path %q does not follow <aa>/<hash>.json with matching fan-out prefix", rel)
	}
}
