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

// goldenShapes is the golden's shape list: the zoo shapes, then MobileNet-V2
// layers the zoo lacks (its strided, padded stem, two pointwise layers and
// two more depthwise widths, named after their model.MobileNetV2 layers)
// and large-IFM stress layers, whose exhaustive sweep enumerates 10⁵–10⁶
// candidates. The extra shapes are not in zooShapes because the brute-force
// tests walk that list.
func goldenShapes() []Layer {
	return append(zooShapes(),
		Layer{Name: "mbv2-conv1", IW: 224, IH: 224, KW: 3, KH: 3, IC: 3, OC: 32, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1},
		Layer{Name: "mbv2-pj2_1", IW: 56, IH: 56, KW: 1, KH: 1, IC: 96, OC: 24},
		Layer{Name: "mbv2-dw144", IW: 56, IH: 56, KW: 3, KH: 3, IC: 144, OC: 144, PadW: 1, PadH: 1, Groups: 144},
		Layer{Name: "mbv2-ex64_384", IW: 14, IH: 14, KW: 1, KH: 1, IC: 64, OC: 384},
		Layer{Name: "mbv2-dw960", IW: 7, IH: 7, KW: 3, KH: 3, IC: 960, OC: 960, PadW: 1, PadH: 1, Groups: 960},
		Layer{Name: "hd-512", IW: 512, IH: 512, KW: 3, KH: 3, IC: 64, OC: 64},
		Layer{Name: "hd-768", IW: 768, IH: 768, KW: 3, KH: 3, IC: 32, OC: 64},
		Layer{Name: "hd-1024", IW: 1024, IH: 1024, KW: 3, KH: 3, IC: 16, OC: 32},
	)
}

// TestSearchResultsGolden pins every method's whole Result — the chosen
// mapping's scheme, window, window counts, channel tiles, array cycles,
// window positions and cycles, plus Evaluated and Swept — on every golden
// shape and acceptance array, one line per (shape, array, method). A VW-SDK
// line also pins the exhaustive sweep's candidate count and the cost-model
// calls the class walk paid. The searches may be rewritten only if every
// line stays byte-identical. Regenerate with
// go test ./internal/core -run SearchResultsGolden -update.
func TestSearchResultsGolden(t *testing.T) {
	var buf bytes.Buffer
	for i, l := range goldenShapes() {
		for _, a := range prunedTestArrays {
			for _, m := range allMethods {
				res, err := Search(context.Background(), l, a, m)
				if err != nil {
					t.Fatalf("%v %s %v: %v", l, a, m, err)
				}
				b := res.Best
				fmt.Fprintf(&buf, "%02d %s | %s | %s: %s pw=%s nw=%dx%d ict=%d oct=%d ar=%d ac=%d npw=%d cycles=%d evaluated=%d swept=%d",
					i, l, a, m, b.Scheme, b.PW, b.NwW, b.NwH, b.ICt, b.OCt, b.AR, b.AC, b.NPW, b.Cycles, res.Evaluated, res.Swept)
				if m == MethodVWSDK {
					_, st, err := SearchVWSDKInstrumented(context.Background(), l, a)
					if err != nil {
						t.Fatalf("%v %s: %v", l, a, err)
					}
					fmt.Fprintf(&buf, " exhaustive=%d calls=%d", ExhaustiveCandidates(l, VariantFull), st.CostModelCalls)
				}
				buf.WriteByte('\n')
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
