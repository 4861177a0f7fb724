package core

import (
	"context"
	"math"
	"strings"
	"testing"
)

// denseSlice reduces a grouped layer to its per-group slice: same geometry,
// IC/OC shrunk to one group's channels, dense. A grouped convolution is G
// independent copies of this slice, which is the invariant these tests pin.
func denseSlice(l Layer) Layer {
	l.IC, l.OC, l.Groups = l.ICg(), l.OCg(), 0
	return l
}

var groupedInvariantShapes = []Layer{
	{Name: "mbv2-dw96", IW: 112, IH: 112, KW: 3, KH: 3, IC: 96, OC: 96, PadW: 1, PadH: 1, Groups: 96},
	{Name: "mbv2-dw144-s2", IW: 56, IH: 56, KW: 3, KH: 3, IC: 144, OC: 144, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1, Groups: 144},
	{Name: "resnext-g32", IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 128, PadW: 1, PadH: 1, Groups: 32},
	{Name: "grouped-rect", IW: 40, IH: 12, KW: 5, KH: 3, IC: 16, OC: 32, Groups: 4},
	{Name: "grouped-pw", IW: 14, IH: 14, KW: 1, KH: 1, IC: 64, OC: 96, Groups: 2},
}

// TestGroupedCostIsSliceTimesG: a grouped layer costs exactly G times its
// per-group dense slice, per scheme — same per-group tiling (ICt, OCt, AR,
// AC, PW), G times the cycles, and identical utilization (every group's
// AR×AC grid is the same by the divisibility constraint).
func TestGroupedCostIsSliceTimesG(t *testing.T) {
	arrays := []Array{{Rows: 128, Cols: 128}, {Rows: 512, Cols: 512}}
	for _, l := range groupedInvariantShapes {
		g := int64(l.NumGroups())
		s := denseSlice(l)
		for _, a := range arrays {
			gi, err1 := Im2col(l, a)
			si, err2 := Im2col(s, a)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s %s im2col: %v / %v", l.Name, a, err1, err2)
			}
			if gi.Cycles != g*si.Cycles {
				t.Errorf("%s %s im2col: grouped %d cycles, slice %d x %d groups",
					l.Name, a, gi.Cycles, si.Cycles, g)
			}
			if gi.ICt != si.ICt || gi.OCt != si.OCt || gi.AR != si.AR || gi.AC != si.AC {
				t.Errorf("%s %s im2col: per-group tiling differs: grouped %+v slice %+v",
					l.Name, a, gi, si)
			}
			if gi.Tiles() != int(g)*si.Tiles() {
				t.Errorf("%s %s im2col: Tiles = %d, want %d", l.Name, a, gi.Tiles(), int(g)*si.Tiles())
			}
			if du, su := gi.Utilization(), si.Utilization(); math.Abs(du-su) > 1e-12 {
				t.Errorf("%s %s im2col: utilization %g != slice %g", l.Name, a, du, su)
			}

			for _, v := range []Variant{VariantFull, VariantSquareTiled, VariantRectFullChannel} {
				gr, err1 := SearchVariant(l, a, v)
				sr, err2 := SearchVariant(s, a, v)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s %s %v: grouped err=%v, slice err=%v", l.Name, a, v, err1, err2)
				}
				if err1 != nil {
					continue
				}
				gb, sb := gr.Best, sr.Best
				if gb.Cycles != g*sb.Cycles {
					t.Errorf("%s %s %v: grouped best %d cycles, slice %d x %d",
						l.Name, a, v, gb.Cycles, sb.Cycles, g)
				}
				if gb.PW != sb.PW || gb.ICt != sb.ICt || gb.OCt != sb.OCt ||
					gb.AR != sb.AR || gb.AC != sb.AC || gb.NPW != sb.NPW {
					t.Errorf("%s %s %v: per-group tiling differs:\ngrouped %+v\nslice   %+v",
						l.Name, a, v, gb, sb)
				}
				if du, su := gb.Utilization(), sb.Utilization(); math.Abs(du-su) > 1e-12 {
					t.Errorf("%s %s %v: utilization %g != slice %g", l.Name, a, v, du, su)
				}
			}
		}
	}
}

// TestGroupedExplain: grouped mappings announce the group structure and the
// ×G cycle product; dense explanations don't mention groups at all.
func TestGroupedExplain(t *testing.T) {
	a := Array{Rows: 512, Cols: 512}
	l := Layer{Name: "dw", IW: 14, IH: 14, KW: 3, KH: 3, IC: 96, OC: 96, PadW: 1, PadH: 1, Groups: 96}
	r, err := SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Best.Explain()
	if !strings.Contains(out, "grouped conv: 96 groups") {
		t.Errorf("grouped Explain missing group header:\n%s", out)
	}
	if !strings.Contains(out, "x 96 =") {
		t.Errorf("grouped Explain missing xG cycles factor:\n%s", out)
	}
	// The per-group counts are labelled as such, never as the layer's IC/OC.
	for _, want := range []string{"capped at ICg=1", "ceil(ICg / ICt) = ceil(1/1)", "capped at OCg=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("grouped Explain missing %q:\n%s", want, out)
		}
	}
	if base := r.Im2col.Explain(); !strings.Contains(base, "ceil(K*K*ICg / Rows) = ceil(9/512)") {
		t.Errorf("grouped im2col Explain mislabels K*K*ICg:\n%s", base)
	}

	d, err := SearchVWSDK(denseSlice(l), a)
	if err != nil {
		t.Fatal(err)
	}
	if dense := d.Best.Explain(); strings.Contains(dense, "group") {
		t.Errorf("dense Explain mentions groups:\n%s", dense)
	}
}

// TestGroupedSMDAndSDK: SMD never duplicates across groups (a grouped layer
// costs as plain im2col with dup 1), and SDK respects per-group caps.
func TestGroupedSMDAndSDK(t *testing.T) {
	a := Array{Rows: 512, Cols: 512}
	l := Layer{Name: "dw", IW: 14, IH: 14, KW: 3, KH: 3, IC: 32, OC: 32, PadW: 1, PadH: 1, Groups: 32}
	g := int64(l.NumGroups())
	s := denseSlice(l)

	gr, err1 := SearchSMD(l, a)
	sr, err2 := SearchSMD(s, a)
	if err1 != nil || err2 != nil {
		t.Fatalf("SMD: %v / %v", err1, err2)
	}
	if gr.Best.Cycles != g*sr.Best.Cycles || gr.Best.Dup != sr.Best.Dup {
		t.Errorf("SMD grouped %+v vs slice %+v", gr.Best, sr.Best)
	}

	gk, err1 := SearchSDK(l, a)
	sk, err2 := SearchSDK(s, a)
	if err1 != nil || err2 != nil {
		t.Fatalf("SDK: %v / %v", err1, err2)
	}
	if gk.Best.Cycles != g*sk.Best.Cycles || gk.Best.PW != sk.Best.PW {
		t.Errorf("SDK grouped %+v vs slice %+v", gk.Best, sk.Best)
	}
}

// TestGroupedSweptMatchesDense: a grouped layer's search sweeps exactly as
// many windows as its dense equivalent (the same geometry with grouping
// dropped), on every grouped golden shape and acceptance array, under every
// method. The tiled searches' window feasibility ignores channels, and the
// whole-channel searches count their whole lattice. Evaluated may differ,
// because the per-group channel caps move the cost-class breakpoints.
func TestGroupedSweptMatchesDense(t *testing.T) {
	for _, l := range goldenShapes() {
		if l.NumGroups() == 1 {
			continue
		}
		dense := l
		dense.Groups = 0
		for _, a := range prunedTestArrays {
			for _, m := range allMethods {
				g, err1 := Search(context.Background(), l, a, m)
				d, err2 := Search(context.Background(), dense, a, m)
				if err1 != nil || err2 != nil {
					t.Fatalf("%v %s %v: %v / %v", l, a, m, err1, err2)
				}
				if g.Swept != d.Swept {
					t.Errorf("%v %s %v: swept %d, dense equivalent %d", l, a, m, g.Swept, d.Swept)
				}
			}
		}
	}
}
