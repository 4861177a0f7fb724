package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSearchResultsGolden pins every method's whole Result — the chosen
// mapping's scheme, window, window counts, channel tiles, array cycles,
// window positions and cycles, plus Evaluated and Swept — on every zoo shape
// and acceptance array, one line per (shape, array, method). The searches
// may be rewritten only if every line stays byte-identical. Regenerate with
// go test ./internal/core -run SearchResultsGolden -update.
func TestSearchResultsGolden(t *testing.T) {
	var buf bytes.Buffer
	for i, l := range zooShapes() {
		for _, a := range prunedTestArrays {
			for _, m := range allMethods {
				res, err := Search(context.Background(), l, a, m)
				if err != nil {
					t.Fatalf("%v %s %v: %v", l, a, m, err)
				}
				b := res.Best
				fmt.Fprintf(&buf, "%02d %s | %s | %s: %s pw=%s nw=%dx%d ict=%d oct=%d ar=%d ac=%d npw=%d cycles=%d evaluated=%d swept=%d\n",
					i, l, a, m, b.Scheme, b.PW, b.NwW, b.NwH, b.ICt, b.OCt, b.AR, b.AC, b.NPW, b.Cycles, res.Evaluated, res.Swept)
			}
		}
	}
	golden := filepath.Join("testdata", "search_results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("search results differ from %s at line %d\ngot  %s\nwant %s", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("search results differ from %s: %d lines, want %d", golden, len(gl), len(wl))
}
