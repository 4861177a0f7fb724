package mapping

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/tensor"
)

// TestVerifyGroupedSchemes executes grouped layers end-to-end on the
// simulated crossbar under im2col and searched VW-SDK layouts (SMD
// duplication and SDK are dense-only and skipped by VerifyAllSchemes),
// checking both the exact analytic cycle count and bit-exact equality with
// the grouped reference convolution. Depthwise (G == IC, ICg == 1) is the
// hardest edge case: every virtual-row block holds a single channel's
// kernel.
func TestVerifyGroupedSchemes(t *testing.T) {
	a := core.Array{Rows: 64, Cols: 48}
	layers := []core.Layer{
		{Name: "g2", IW: 9, IH: 8, KW: 3, KH: 3, IC: 6, OC: 8, Groups: 2},
		{Name: "g4 rect", IW: 10, IH: 9, KW: 3, KH: 2, IC: 8, OC: 12, Groups: 4},
		{Name: "depthwise", IW: 9, IH: 9, KW: 3, KH: 3, IC: 7, OC: 7, Groups: 7},
		{Name: "depthwise padded", IW: 8, IH: 8, KW: 3, KH: 3, IC: 5, OC: 5, PadW: 1, PadH: 1, Groups: 5},
		{Name: "grouped pointwise", IW: 6, IH: 6, KW: 1, KH: 1, IC: 10, OC: 6, Groups: 2},
	}
	for _, l := range layers {
		t.Run(l.Name, func(t *testing.T) {
			if err := VerifyAllSchemes(l, a, 0x6799); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGroupedExecuteMatchesExpandedDense is the differential identity at the
// physical layer: executing the grouped plan on compact OC×ICg weights must
// equal the *dense* reference convolution over the G-block-diagonal expanded
// kernel. This ties the grouped crossbar layout to ordinary dense semantics
// rather than to the grouped reference implementation.
func TestGroupedExecuteMatchesExpandedDense(t *testing.T) {
	a := core.Array{Rows: 96, Cols: 40}
	layers := []core.Layer{
		{Name: "g3 strided", IW: 11, IH: 11, KW: 3, KH: 3, IC: 9, OC: 6, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1, Groups: 3},
		{Name: "depthwise", IW: 10, IH: 8, KW: 3, KH: 3, IC: 6, OC: 6, PadW: 1, PadH: 1, Groups: 6},
	}
	for _, l := range layers {
		t.Run(l.Name, func(t *testing.T) {
			ifm := tensor.RandTensor3(21, l.IC, l.IH, l.IW)
			w := tensor.RandTensor4(22, l.OC, l.ICg(), l.KH, l.KW)
			expanded, err := conv.ExpandGrouped(l.Normalized(), w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := conv.Reference(conv.DenseEquivalent(l), ifm, expanded)
			if err != nil {
				t.Fatal(err)
			}
			for _, build := range []struct {
				name string
				get  func() (core.Mapping, error)
			}{
				{"im2col", func() (core.Mapping, error) { return core.Im2col(l, a) }},
				{"vw-sdk", func() (core.Mapping, error) {
					r, err := core.SearchVWSDK(l, a)
					return r.Best, err
				}},
			} {
				m, err := build.get()
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := Run(m, ifm, w)
				if err != nil {
					t.Fatalf("%s: %v", build.name, err)
				}
				if stats.Cycles != m.Cycles {
					t.Fatalf("%s: executed %d cycles, analytic %d", build.name, stats.Cycles, m.Cycles)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: OFM differs from expanded dense reference (max |diff| = %g)",
						build.name, got.MaxAbsDiff(want))
				}
			}
		})
	}
}

// TestGroupedPlanRejections: the physical layouts that cannot express
// grouping — SMD window duplication and SDK shifted-duplicate kernels — are
// rejected at plan construction with a clear error, not silently mis-mapped.
func TestGroupedPlanRejections(t *testing.T) {
	l := core.Layer{IW: 9, IH: 9, KW: 3, KH: 3, IC: 4, OC: 4, Groups: 2}
	a := core.Array{Rows: 128, Cols: 128}
	smd, err := core.SMD(l, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(smd); err == nil {
		t.Error("NewPlan accepted grouped SMD duplication")
	}
	sdk, err := core.SDK(l, a, core.Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(sdk); err == nil {
		t.Error("NewPlan accepted grouped SDK")
	}
}

// TestIm2colIsKernelWindowLayout: im2col, and SMD without duplication, are
// the window layout with the kernel as the window. Every output window is a
// position of its own at its window origin, with no SMD window group, and
// the tiles cut at array rows and OCt columns inside each group's block of
// KernelRows rows and OCg columns.
func TestIm2colIsKernelWindowLayout(t *testing.T) {
	l := core.Layer{IW: 7, IH: 6, KW: 3, KH: 3, IC: 8, OC: 6, StrideW: 2, StrideH: 1, PadW: 1, Groups: 2}
	a := core.Array{Rows: 16, Cols: 2}
	im, err := core.Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	smd, err := core.SMD(l, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	// KernelRows = 4·9 = 36 per group on 16 rows; OCg = 3 on 2 columns.
	var want []Tile
	for g := 0; g < 2; g++ {
		for i, rows := range [][2]int{{0, 16}, {16, 32}, {32, 36}} {
			for j, cols := range [][2]int{{0, 2}, {2, 3}} {
				want = append(want, Tile{I: i, J: j, RowLo: 36*g + rows[0], RowHi: 36*g + rows[1],
					ColLo: 3*g + cols[0], ColHi: 3*g + cols[1]})
			}
		}
	}
	for _, m := range []core.Mapping{im, smd} {
		p, err := NewPlan(m)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.Tiles, want) {
			t.Errorf("%v tiles = %v, want %v", m.Scheme, p.Tiles, want)
		}
		if len(p.Positions) != l.Windows() {
			t.Fatalf("%v: %d positions, want one per window (%d)", m.Scheme, len(p.Positions), l.Windows())
		}
		for i, pos := range p.Positions {
			oy, ox := i/l.OutW(), i%l.OutW()
			if want := (Position{PX: ox * l.StrideW, PY: oy * l.StrideH, OXStart: ox, OYStart: oy}); !reflect.DeepEqual(pos, want) {
				t.Errorf("%v position %d = %+v, want %+v", m.Scheme, i, pos, want)
			}
		}
	}
}
