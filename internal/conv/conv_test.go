package conv

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/tensor"
)

// TestReferenceHandComputed checks a tiny convolution against values worked
// out by hand: 1 channel, 3x3 IFM, 2x2 kernel, valid, stride 1.
func TestReferenceHandComputed(t *testing.T) {
	l := core.Layer{IW: 3, IH: 3, KW: 2, KH: 2, IC: 1, OC: 1}
	ifm := tensor.NewTensor3(1, 3, 3)
	// 1 2 3
	// 4 5 6
	// 7 8 9
	for i := 0; i < 9; i++ {
		ifm.Data[i] = float64(i + 1)
	}
	w := tensor.NewTensor4(1, 1, 2, 2)
	// 1 0
	// 0 1   (sum of main diagonal of each window)
	w.Set(0, 0, 0, 0, 1)
	w.Set(0, 0, 1, 1, 1)
	out, err := Reference(l, ifm, w)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1 + 5, 2 + 6}, {4 + 8, 5 + 9}}
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			if out.At(0, y, x) != want[y][x] {
				t.Errorf("out[%d][%d] = %v, want %v", y, x, out.At(0, y, x), want[y][x])
			}
		}
	}
}

func TestReferenceStrideAndPad(t *testing.T) {
	l := core.Layer{IW: 4, IH: 4, KW: 3, KH: 3, IC: 1, OC: 1,
		StrideW: 2, StrideH: 2, PadW: 1, PadH: 1}
	ifm := tensor.NewTensor3(1, 4, 4)
	for i := range ifm.Data {
		ifm.Data[i] = 1
	}
	w := tensor.NewTensor4(1, 1, 3, 3)
	for i := range w.Data {
		w.Data[i] = 1
	}
	out, err := Reference(l, ifm, w)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 2 || out.W != 2 {
		t.Fatalf("output %dx%d, want 2x2", out.H, out.W)
	}
	// Top-left window sees a 2x2 live region (padding elsewhere).
	if out.At(0, 0, 0) != 4 {
		t.Errorf("corner = %v, want 4", out.At(0, 0, 0))
	}
	// Center-ish window at (1,1) covers rows/cols 1..3 fully inside: 9.
	if out.At(0, 1, 1) != 9 {
		t.Errorf("center = %v, want 9", out.At(0, 1, 1))
	}
}

func TestCheckShapes(t *testing.T) {
	l := core.Layer{IW: 5, IH: 5, KW: 3, KH: 3, IC: 2, OC: 3}
	good3 := tensor.NewTensor3(2, 5, 5)
	good4 := tensor.NewTensor4(3, 2, 3, 3)
	if err := CheckShapes(l, good3, good4); err != nil {
		t.Fatalf("valid shapes rejected: %v", err)
	}
	if err := CheckShapes(l, tensor.NewTensor3(1, 5, 5), good4); err == nil {
		t.Error("wrong IFM channels accepted")
	}
	if err := CheckShapes(l, good3, tensor.NewTensor4(3, 2, 2, 3)); err == nil {
		t.Error("wrong kernel height accepted")
	}
	bad := l
	bad.IC = 0
	if err := CheckShapes(bad, good3, good4); err == nil {
		t.Error("invalid layer accepted")
	}
	if _, err := Reference(bad, good3, good4); err == nil {
		t.Error("Reference accepted invalid layer")
	}
}

func TestRowCoordRoundTrip(t *testing.T) {
	l := core.Layer{IW: 8, IH: 8, KW: 3, KH: 2, IC: 4, OC: 1}
	seen := make(map[[3]int]bool)
	for r := 0; r < l.KernelRows(); r++ {
		c, ky, kx := RowCoord(l, r)
		if c < 0 || c >= l.IC || ky < 0 || ky >= l.KH || kx < 0 || kx >= l.KW {
			t.Fatalf("RowCoord(%d) out of range: %d,%d,%d", r, c, ky, kx)
		}
		key := [3]int{c, ky, kx}
		if seen[key] {
			t.Fatalf("RowCoord(%d) duplicates %v", r, key)
		}
		seen[key] = true
		if got := (c*l.KH+ky)*l.KW + kx; got != r {
			t.Fatalf("RowCoord(%d) does not invert: %d", r, got)
		}
	}
}

// TestGroupedMatchesExpandedDense is the grouped-convolution differential
// identity: a grouped convolution on compact OC×ICg weights equals a dense
// convolution whose kernel is the G-block-diagonal expansion of those
// weights (zeros everywhere a connection crosses groups). Random layers
// cover proper grouping and the depthwise G == IC edge case.
func TestGroupedMatchesExpandedDense(t *testing.T) {
	f := func(seed uint64, iw, ih, k, icg, ocg, g, stride, pad uint8) bool {
		groups := int(g%5) + 2
		l := core.Layer{
			IW: int(iw%10) + 4, IH: int(ih%10) + 4,
			KW: int(k%3) + 1, KH: int(k%3) + 1,
			IC: groups * (int(icg%3) + 1), OC: groups * (int(ocg%3) + 1),
			StrideW: int(stride%2) + 1, StrideH: int(stride%2) + 1,
			PadW: int(pad % 2), PadH: int(pad % 2),
			Groups: groups,
		}
		if seed%4 == 0 { // depthwise edge case: one channel per group
			l.IC, l.OC, l.Groups = groups, groups, groups
		}
		if l.Validate() != nil {
			return true
		}
		ifm := tensor.RandTensor3(seed, l.IC, l.IH, l.IW)
		w := tensor.RandTensor4(seed^0xabcdef, l.OC, l.ICg(), l.KH, l.KW)
		grouped, err := Reference(l, ifm, w)
		if err != nil {
			return false
		}
		expanded, err := ExpandGrouped(l, w)
		if err != nil {
			return false
		}
		dense, err := Reference(DenseEquivalent(l), ifm, expanded)
		if err != nil {
			return false
		}
		return grouped.Equal(dense)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupedShapesAndDenseOnlyLowering: grouped layers take compact OC×ICg
// weights (dense-shaped kernels are rejected), and ExpandGrouped lowers them
// to their dense-only form: block-diagonal weights over all IC channels.
func TestGroupedShapesAndDenseOnlyLowering(t *testing.T) {
	l := core.Layer{IW: 6, IH: 6, KW: 3, KH: 3, IC: 8, OC: 8, Groups: 4}
	compact := tensor.NewTensor4(8, 2, 3, 3)
	if err := CheckShapes(l, tensor.NewTensor3(8, 6, 6), compact); err != nil {
		t.Fatalf("compact grouped weights rejected: %v", err)
	}
	if err := CheckShapes(l, tensor.NewTensor3(8, 6, 6), tensor.NewTensor4(8, 8, 3, 3)); err == nil {
		t.Error("dense-shaped weights accepted for grouped layer")
	}
	// ExpandGrouped produces block-diagonal dense weights: entries outside a
	// kernel's own group are zero.
	for i := range compact.Data {
		compact.Data[i] = 1
	}
	dense, err := ExpandGrouped(l, compact)
	if err != nil {
		t.Fatal(err)
	}
	for oc := 0; oc < 8; oc++ {
		for ci := 0; ci < 8; ci++ {
			want := 0.0
			if ci/2 == oc/2 { // same group (ICg = OCg = 2)
				want = 1
			}
			if got := dense.At(oc, ci, 1, 1); got != want {
				t.Fatalf("expanded[oc=%d][ci=%d] = %v, want %v", oc, ci, got, want)
			}
		}
	}
}

// TestConvolutionLinearity: conv(a+b) == conv(a) + conv(b) on the IFM.
func TestConvolutionLinearity(t *testing.T) {
	l := core.Layer{IW: 7, IH: 7, KW: 3, KH: 3, IC: 2, OC: 3}
	w := tensor.RandTensor4(3, 3, 2, 3, 3)
	a := tensor.RandTensor3(1, 2, 7, 7)
	b := tensor.RandTensor3(2, 2, 7, 7)
	sum := a.Clone()
	for i := range sum.Data {
		sum.Data[i] += b.Data[i]
	}
	oa, err := Reference(l, a, w)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := Reference(l, b, w)
	if err != nil {
		t.Fatal(err)
	}
	os, err := Reference(l, sum, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range os.Data {
		if os.Data[i] != oa.Data[i]+ob.Data[i] {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

// TestTranslationEquivariance: shifting the IFM by the stride shifts the
// output by one position.
func TestTranslationEquivariance(t *testing.T) {
	l := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 1, OC: 1}
	w := tensor.RandTensor4(9, 1, 1, 3, 3)
	ifm := tensor.RandTensor3(10, 1, 8, 8)
	shifted := tensor.NewTensor3(1, 8, 8)
	for y := 0; y < 8; y++ {
		for x := 1; x < 8; x++ {
			shifted.Set(0, y, x, ifm.At(0, y, x-1))
		}
	}
	a, err := Reference(l, ifm, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reference(l, shifted, w)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < a.H; y++ {
		for x := 0; x+1 < a.W; x++ {
			if a.At(0, y, x) != b.At(0, y, x+1) {
				t.Fatalf("equivariance violated at %d,%d", y, x)
			}
		}
	}
}
