package mapping

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestInputReuseIm2colHandDerived: a 3x3 stride-1 valid conv over a 6x6
// single-channel IFM has 16 windows of 9 reads = 144 driven loads over 36
// distinct elements -> 4 loads per element.
func TestInputReuseIm2colHandDerived(t *testing.T) {
	l := core.Layer{IW: 6, IH: 6, KW: 3, KH: 3, IC: 1, OC: 1}
	a := core.Array{Rows: 32, Cols: 16}
	m, err := core.Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	r := p.InputReuse()
	if r.Driven != 144 {
		t.Errorf("driven = %d, want 144", r.Driven)
	}
	if r.Distinct != 36 {
		t.Errorf("distinct = %d, want 36", r.Distinct)
	}
	if math.Abs(r.LoadsPerElement-4) > 1e-12 {
		t.Errorf("loads/element = %v, want 4", r.LoadsPerElement)
	}
}

// TestInputReuseParallelWindowBeatsIm2col: the whole point of SDK/VW-SDK —
// sharing a parallel window across duplicated kernels reduces input loads.
func TestInputReuseParallelWindowBeatsIm2col(t *testing.T) {
	l := core.Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 8, OC: 8}
	a := core.Array{Rows: 128, Cols: 64}
	im, err := core.Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := core.VW(l, a, core.Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	pIm, err := NewPlan(im)
	if err != nil {
		t.Fatal(err)
	}
	pVW, err := NewPlan(vw)
	if err != nil {
		t.Fatal(err)
	}
	rIm := pIm.InputReuse()
	rVW := pVW.InputReuse()
	if rIm.Distinct != rVW.Distinct {
		t.Errorf("distinct reads differ: %d vs %d", rIm.Distinct, rVW.Distinct)
	}
	if rVW.LoadsPerElement >= rIm.LoadsPerElement {
		t.Errorf("VW loads/element %.2f not below im2col %.2f",
			rVW.LoadsPerElement, rIm.LoadsPerElement)
	}
}

// TestInputReuseWholeWindowOnePass: a parallel window covering the whole IFM
// with all channels resident reads every element exactly once.
func TestInputReuseWholeWindowOnePass(t *testing.T) {
	l := core.Layer{IW: 6, IH: 6, KW: 3, KH: 3, IC: 1, OC: 1}
	a := core.Array{Rows: 64, Cols: 64}
	m, err := core.VW(l, a, core.Window{W: 6, H: 6})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	r := p.InputReuse()
	if r.Driven != 36 || r.Distinct != 36 || r.LoadsPerElement != 1 {
		t.Errorf("reuse = %+v, want perfect single pass", r)
	}
}

// TestInputReuseDistinctCoversIFM: every element needed by the convolution
// is read at least once (distinct reads == padded IFM size for stride-1
// valid convs, where every element participates). On grouped layers every
// group's channels count: group g's rows gather channels [g·ICg, (g+1)·ICg).
func TestInputReuseDistinctCoversIFM(t *testing.T) {
	a := core.Array{Rows: 64, Cols: 48}
	type build func(core.Layer) (core.Mapping, error)
	im2col := func(l core.Layer) (core.Mapping, error) { return core.Im2col(l, a) }
	vw := func(l core.Layer) (core.Mapping, error) { return core.VW(l, a, core.Window{W: 4, H: 3}) }
	sdk := func(l core.Layer) (core.Mapping, error) { return core.SDK(l, a, core.Window{W: 4, H: 4}) }
	smd := func(l core.Layer) (core.Mapping, error) {
		r, err := core.SearchSMD(l, a)
		return r.Best, err
	}
	for _, tc := range []struct {
		l      core.Layer
		builds []build
	}{
		{core.Layer{Name: "dense", IW: 9, IH: 7, KW: 3, KH: 3, IC: 3, OC: 4}, []build{im2col, vw, sdk, smd}},
		{core.Layer{Name: "depthwise", IW: 9, IH: 7, KW: 3, KH: 3, IC: 4, OC: 4, Groups: 4}, []build{im2col, vw}},
		{core.Layer{Name: "two groups", IW: 9, IH: 7, KW: 3, KH: 3, IC: 4, OC: 6, Groups: 2}, []build{im2col, vw}},
	} {
		for _, build := range tc.builds {
			m, err := build(tc.l)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlan(m)
			if err != nil {
				t.Fatal(err)
			}
			r := p.InputReuse()
			want := int64(tc.l.IC * tc.l.IH * tc.l.IW)
			if r.Distinct != want {
				t.Errorf("%s %v: distinct = %d, want %d (%.0f loads per element)",
					tc.l.Name, m.Scheme, r.Distinct, want, r.LoadsPerElement)
			}
		}
	}
}
