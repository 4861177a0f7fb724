package core

import (
	"context"
	"reflect"
	"testing"
)

// prunedTestArrays are the acceptance arrays the class walk is pinned
// against the brute force on. On a square array the rows always bind
// before the columns (NwH ≤ h), so the column-bound 1024x128 array is what
// exercises a row's NwW·NwH ≤ Cols limit on strided layers.
var prunedTestArrays = []Array{
	{Rows: 256, Cols: 256},
	{Rows: 512, Cols: 512},
	{Rows: 1024, Cols: 1024},
	{Rows: 1024, Cols: 128},
}

// zooShapes returns every distinct layer shape of the paper's Table I zoo
// (VGG-13 and ResNet-18) plus stride/padding/rectangular exercisers.
func zooShapes() []Layer {
	shapes := append(vgg13Shapes(), resnet18Shapes()...)
	shapes = append(shapes,
		Layer{Name: "alex1", IW: 227, IH: 227, KW: 11, KH: 11, IC: 3, OC: 96, StrideW: 4, StrideH: 4},
		Layer{Name: "alex2", IW: 27, IH: 27, KW: 5, KH: 5, IC: 96, OC: 256, PadW: 2, PadH: 2},
		Layer{Name: "rect-ifm", IW: 40, IH: 12, KW: 3, KH: 3, IC: 16, OC: 32},
		Layer{Name: "rect-kernel", IW: 32, IH: 32, KW: 5, KH: 3, IC: 8, OC: 24},
		Layer{Name: "strided-pad", IW: 30, IH: 30, KW: 3, KH: 3, IC: 12, OC: 20, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1},
		Layer{Name: "uneven-stride", IW: 25, IH: 25, KW: 3, KH: 3, IC: 6, OC: 10, StrideW: 2, StrideH: 3},
		// Grouped and depthwise shapes: MobileNet-V2 depthwise layers (the
		// G == IC, ICg == 1 edge case, with and without stride), a
		// ResNeXt-style cardinality-32 block, and grouped exercisers
		// combining groups with rectangles, strides and 1×1 kernels.
		Layer{Name: "mbv2-dw32", IW: 112, IH: 112, KW: 3, KH: 3, IC: 32, OC: 32, PadW: 1, PadH: 1, Groups: 32},
		Layer{Name: "mbv2-dw96-s2", IW: 112, IH: 112, KW: 3, KH: 3, IC: 96, OC: 96, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1, Groups: 96},
		Layer{Name: "mbv2-dw384", IW: 14, IH: 14, KW: 3, KH: 3, IC: 384, OC: 384, PadW: 1, PadH: 1, Groups: 384},
		Layer{Name: "resnext-g32", IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 128, PadW: 1, PadH: 1, Groups: 32},
		Layer{Name: "grouped-rect", IW: 40, IH: 12, KW: 3, KH: 3, IC: 16, OC: 32, Groups: 4},
		Layer{Name: "grouped-strided", IW: 30, IH: 30, KW: 3, KH: 3, IC: 12, OC: 24, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1, Groups: 3},
		Layer{Name: "dw-odd", IW: 9, IH: 9, KW: 3, KH: 3, IC: 7, OC: 7, Groups: 7},
		Layer{Name: "grouped-pw", IW: 14, IH: 14, KW: 1, KH: 1, IC: 64, OC: 96, Groups: 2},
	)
	return shapes
}

// costClasses counts Algorithm 1's cost classes for l on a by their
// definition (DESIGN.md §3.1), straight from the exhaustive sweep's
// candidates: a row opens a class at its first costed width, and again
// wherever (ICt, OCt, ⌈OutW/NwW⌉) differs from the previous feasible
// candidate.
func costClasses(l Layer, a Array) int {
	l = l.Normalized()
	n := 0
	for h := l.KH; h <= l.PaddedH(); h++ {
		var prev *Mapping
		for w := l.KW; w <= l.PaddedW(); w++ {
			if w == l.KW && h == l.KH {
				continue // the im2col seed is never costed
			}
			m, err := SweepVW(l, a, Window{W: w, H: h})
			if err != nil {
				continue // infeasible
			}
			if prev == nil || m.ICt != prev.ICt || m.OCt != prev.OCt ||
				ceilDiv(l.OutW(), m.NwW) != ceilDiv(l.OutW(), prev.NwW) {
				n++
			}
			prev = &m
		}
	}
	return n
}

// checkClosedForm pins what comparing Best against the brute force cannot:
// the VW-SDK search res for l on a evaluated exactly the cost classes
// costClasses counts, on the closed-form path, with at most one cost-model
// call.
func checkClosedForm(t *testing.T, l Layer, a Array, res Result) {
	t.Helper()
	if want := costClasses(l, a); res.Evaluated != want {
		t.Errorf("%v %s: Evaluated = %d, want %d cost classes", l, a, res.Evaluated, want)
	}
	_, st, err := SearchVWSDKInstrumented(context.Background(), l, a)
	if err != nil {
		t.Fatalf("%v %s: SearchVWSDKInstrumented: %v", l, a, err)
	}
	if st.Path != PathClosedForm || st.CostModelCalls > 1 {
		t.Errorf("%v %s: stats = %+v, want path %q with ≤ 1 cost-model call", l, a, st, PathClosedForm)
	}
}

// walkMethods are the four corners of the paper's ablation grid (DESIGN.md
// §5), the methods that run the class walk: SDK (square windows, whole
// channels), Algorithm 1 (rectangles, tiled channels) and its two
// ablations.
var walkMethods = []Method{
	{Scheme: SchemeSDK},
	MethodVWSDK,
	{Scheme: SchemeVWSDK, Variant: VariantSquareTiled},
	{Scheme: SchemeVWSDK, Variant: VariantRectFullChannel},
}

// checkWalk holds the class walk of m on l and a to the brute force over
// the same corner. Best and Im2col must be identical field for field —
// including the width-inner/height-outer first-strictly-better tie-break —
// and the walk's analytic Swept must equal the candidates the brute force
// costed. On the square diagonal every row is one window, so the whole
// Result must match, Evaluated included; on the rectangle the walk costs
// one window per class and Evaluated may not exceed the brute force's
// count. For Algorithm 1, checkClosedForm also pins Evaluated and the
// search path. l and a must be valid, so neither search may fail.
func checkWalk(t *testing.T, l Layer, a Array, m Method) {
	t.Helper()
	ctx := context.Background()
	got, err1 := Search(ctx, l, a, m)
	brute, err2 := SearchExhaustive(ctx, l, a, m)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v %s %v: walk err = %v, brute force err = %v", l, a, m, err1, err2)
	}
	if !reflect.DeepEqual(got.Best, brute.Best) {
		t.Errorf("%v %s %v: Best differs\nwalk        %+v\nbrute force %+v", l, a, m, got.Best, brute.Best)
	}
	if !reflect.DeepEqual(got.Im2col, brute.Im2col) {
		t.Errorf("%v %s %v: Im2col differs", l, a, m)
	}
	if got.Swept != brute.Evaluated || brute.Swept != brute.Evaluated {
		t.Errorf("%v %s %v: walk Swept = %d, brute force costed %d (Swept %d)",
			l, a, m, got.Swept, brute.Evaluated, brute.Swept)
	}
	c, _ := cornerOf(m)
	switch {
	case c.square && got.Evaluated != brute.Evaluated:
		t.Errorf("%v %s %v: walk Evaluated = %d, brute force costed %d on the diagonal",
			l, a, m, got.Evaluated, brute.Evaluated)
	case got.Evaluated > brute.Evaluated:
		t.Errorf("%v %s %v: walk costed %d classes > %d brute-force candidates",
			l, a, m, got.Evaluated, brute.Evaluated)
	}
	if m == MethodVWSDK {
		checkClosedForm(t, l, a, got)
	}
}

// TestPrunedMatchesExhaustiveZoo is the differential test the class walk
// rests on: on the full Table-I zoo (plus stride/padding/rectangular and
// grouped exercisers), for every acceptance array and every corner of the
// ablation grid, checkWalk holds the walk to the brute force.
func TestPrunedMatchesExhaustiveZoo(t *testing.T) {
	for _, a := range prunedTestArrays {
		for _, l := range zooShapes() {
			for _, m := range walkMethods {
				checkWalk(t, l, a, m)
			}
		}
	}
}

// TestPrunedSearchReduction pins the headline perf claim: on VGG-13's first
// layer the class walk costs at least 10x fewer candidates than the
// exhaustive sweep enumerates, and stays well under the feasible count too.
func TestPrunedSearchReduction(t *testing.T) {
	conv1 := Layer{Name: "conv1", IW: 224, IH: 224, KW: 3, KH: 3, IC: 3, OC: 64}
	res, err := SearchVWSDK(conv1, array512)
	if err != nil {
		t.Fatal(err)
	}
	enumerated := ExhaustiveCandidates(conv1, VariantFull)
	if enumerated != int64(222*222-1) {
		t.Fatalf("ExhaustiveCandidates = %d, want %d", enumerated, 222*222-1)
	}
	if int64(res.Evaluated)*10 > enumerated {
		t.Errorf("Evaluated = %d cost classes, want >= 10x below the %d enumerated candidates",
			res.Evaluated, enumerated)
	}
	if res.Evaluated >= res.Swept {
		t.Errorf("Evaluated = %d not below the %d feasible candidates", res.Evaluated, res.Swept)
	}
	t.Logf("conv1 on %s: %d cost classes costed, %d feasible, %d enumerated (%.1fx reduction)",
		array512, res.Evaluated, res.Swept, enumerated,
		float64(enumerated)/float64(res.Evaluated))
}

// TestExhaustiveCandidatesSquareTiled pins the square-tiled candidate count:
// the number of in-bounds windows beyond the kernel along the shorter axis.
func TestExhaustiveCandidatesSquareTiled(t *testing.T) {
	l := Layer{IW: 23, IH: 23, KW: 3, KH: 3, IC: 8, OC: 8, StrideW: 2, StrideH: 2}
	want := int64(0)
	for d := 1; ; d++ {
		if 3+2*d > 23 {
			break
		}
		want++
	}
	if got := ExhaustiveCandidates(l, VariantSquareTiled); got != want {
		t.Errorf("ExhaustiveCandidates(square+tiled) = %d, want %d", got, want)
	}
}

// TestExhaustiveSearcher pins that the Exhaustive reference Searcher agrees
// with Serial (the class walk) layer by layer: the same chosen mapping and
// im2col baseline on every ResNet-18 shape, and the same whole result for
// im2col and SMD, which Exhaustive runs through Search, and for SDK, whose
// square diagonal the brute force costs window for window like the walk.
func TestExhaustiveSearcher(t *testing.T) {
	ctx := context.Background()
	layers := resnet18Shapes()
	for _, l := range layers {
		want, err := Serial{}.Search(ctx, l, array512, MethodVWSDK)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exhaustive{}.Search(ctx, l, array512, MethodVWSDK)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Best, got.Best) || !reflect.DeepEqual(want.Im2col, got.Im2col) {
			t.Errorf("%s: Serial and Exhaustive disagree\nserial     %+v\nexhaustive %+v",
				l.Name, want.Best, got.Best)
		}
	}
	for _, m := range []Method{{Scheme: SchemeIm2col}, {Scheme: SchemeSMD}, {Scheme: SchemeSDK}} {
		w, err1 := Serial{}.Search(ctx, layers[0], array512, m)
		g, err2 := Exhaustive{}.Search(ctx, layers[0], array512, m)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(w, g) {
			t.Error("baseline searches diverge between Serial and Exhaustive")
		}
	}
}

// TestSearchSDKBoundsGuard proves dropping the old max(pw.W,pw.H) > maxSide
// guard changes nothing wherever it was redundant: for square IFMs (any
// kernel) and for square kernels with equal strides (where the candidate
// window stays square), the guard was implied by the two per-axis bounds
// checks. The test reimplements the old guarded loop inline and compares
// full results across rectangular-kernel and rectangular-IFM layers.
//
// (On rectangular IFMs with rectangular kernels the old guard was not
// redundant — it truncated the sweep before the window reached the padded
// IFM; the last case documents that removing it can only widen the candidate
// set, never change feasible winners on the paper's square-IFM zoo.)
func TestSearchSDKBoundsGuard(t *testing.T) {
	oldGuarded := func(l Layer, a Array) (Result, error) {
		l = l.Normalized()
		base, err := Im2col(l, a)
		if err != nil {
			return Result{}, err
		}
		res := Result{Best: base, Im2col: base}
		maxSide := min(l.PaddedW(), l.PaddedH())
		for d := 1; ; d++ {
			pw := Window{W: l.KW + d*l.StrideW, H: l.KH + d*l.StrideH}
			if pw.W > l.PaddedW() || pw.H > l.PaddedH() || max(pw.W, pw.H) > maxSide {
				break
			}
			m, err := SDK(l, a, pw)
			if err != nil {
				return Result{}, err
			}
			res.Evaluated++
			if m.AR > base.AR || m.AC > base.AC {
				continue
			}
			if m.Cycles < res.Best.Cycles {
				res.Best = m
			}
		}
		res.Swept = res.Evaluated
		if res.Best.Scheme == SchemeIm2col {
			res.Best.Scheme = SchemeSDK
		}
		return res, nil
	}

	cases := []Layer{
		// Rectangular kernels on square IFMs: guard provably redundant.
		{Name: "rk-53", IW: 32, IH: 32, KW: 5, KH: 3, IC: 8, OC: 24},
		{Name: "rk-35", IW: 32, IH: 32, KW: 3, KH: 5, IC: 8, OC: 24},
		{Name: "rk-17", IW: 24, IH: 24, KW: 1, KH: 7, IC: 4, OC: 16},
		{Name: "rk-pad", IW: 20, IH: 20, KW: 7, KH: 3, IC: 6, OC: 12, PadW: 2, PadH: 2},
		// Square kernels on rectangular IFMs with equal strides: the window
		// stays square, guard again redundant.
		{Name: "ri-wide", IW: 48, IH: 12, KW: 3, KH: 3, IC: 16, OC: 32},
		{Name: "ri-tall", IW: 12, IH: 48, KW: 3, KH: 3, IC: 16, OC: 32},
		{Name: "ri-stride", IW: 40, IH: 16, KW: 5, KH: 5, IC: 4, OC: 8, StrideW: 2, StrideH: 2},
	}
	for _, l := range cases {
		for _, a := range []Array{{64, 64}, {256, 256}, {512, 512}} {
			want, err := oldGuarded(l, a)
			if err != nil {
				t.Fatalf("%s/%s: %v", l.Name, a, err)
			}
			got, err := SearchSDK(l, a)
			if err != nil {
				t.Fatalf("%s/%s: %v", l.Name, a, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: behavior changed\nold guarded %+v\nnew         %+v",
					l.Name, a, want, got)
			}
		}
	}

	// Rectangular kernel on a rectangular IFM: the old guard truncated the
	// sweep (a tall window is "wider" than the short IFM axis); without it
	// the search may only consider more candidates and find a mapping at
	// least as good.
	l := Layer{Name: "rk-ri", IW: 10, IH: 40, KW: 3, KH: 5, IC: 2, OC: 4}
	a := Array{Rows: 512, Cols: 512}
	want, err := oldGuarded(l, a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SearchSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated < want.Evaluated {
		t.Errorf("unguarded sweep costed %d < guarded %d candidates", got.Evaluated, want.Evaluated)
	}
	if got.Best.Cycles > want.Best.Cycles {
		t.Errorf("unguarded sweep worse: %d > %d cycles", got.Best.Cycles, want.Best.Cycles)
	}
}
