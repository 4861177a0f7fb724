package core

import (
	"context"
	"math"
	"testing"
)

// searchTotals searches every layer with the serial searcher — the one a
// compile.New(core.Serial{}) pipeline calls — and sums the VW-SDK and
// im2col cycles in layer order, the sums compile reports as its Totals.
func searchTotals(t *testing.T, layers []Layer) (cycles, im2col int64, results []Result) {
	t.Helper()
	for _, l := range layers {
		r, err := Serial{}.Search(context.Background(), l, array512, MethodVWSDK)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		cycles += r.Best.Cycles
		im2col += r.Im2col.Cycles
		results = append(results, r)
	}
	return cycles, im2col, results
}

// TestSearchNetworkMatchesSerial pins ResNet-18's Table I totals on the
// 512×512 array as the sum of its per-layer searches, and that the Searcher
// the compile pipeline calls picks the same mapping as the per-layer
// SearchVWSDK wrapper on every layer.
func TestSearchNetworkMatchesSerial(t *testing.T) {
	layers := resnet18Shapes()
	cycles, im2col, results := searchTotals(t, layers)
	if cycles != 4294 || im2col != 20041 {
		t.Fatalf("totals = %d/%d, want 4294/20041", cycles, im2col)
	}
	if s := float64(im2col) / float64(cycles); math.Abs(s-4.667) > 0.001 {
		t.Fatalf("speedup = %v, want 4.667", s)
	}
	for i, l := range layers {
		serial, err := SearchVWSDK(l, array512)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Best.Cycles != serial.Best.Cycles ||
			results[i].Best.PW != serial.Best.PW {
			t.Errorf("layer %d: searcher %v != SearchVWSDK %v",
				i, results[i].Best, serial.Best)
		}
	}
}

// TestSearchNetworkVGG13 pins VGG-13's Table I totals on the 512×512 array
// as the sum of its per-layer searches.
func TestSearchNetworkVGG13(t *testing.T) {
	cycles, im2col, _ := searchTotals(t, vgg13Shapes())
	if cycles != 77102 || im2col != 243736 {
		t.Fatalf("totals = %d/%d, want 77102/243736", cycles, im2col)
	}
}
