package core

import (
	"context"
	"testing"
	"testing/quick"
)

// TestSearchVWSDKTableIResNet18 pins every VW-SDK cell of the paper's
// Table I for ResNet-18 with a 512x512 array.
func TestSearchVWSDKTableIResNet18(t *testing.T) {
	want := []struct {
		tile   string
		cycles int64
	}{
		{"10x8x3x64", 1431},
		{"4x4x32x64", 1458},
		{"4x4x32x128", 676},
		{"4x3x42x256", 504},
		{"3x3x512x512", 225}, // degenerates to im2col
	}
	var total int64
	for i, l := range resnet18Shapes() {
		res, err := SearchVWSDK(l, array512)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if got := res.Best.TileString(); got != want[i].tile {
			t.Errorf("%s: tile = %s, want %s", l.Name, got, want[i].tile)
		}
		if res.Best.Cycles != want[i].cycles {
			t.Errorf("%s: cycles = %d, want %d", l.Name, res.Best.Cycles, want[i].cycles)
		}
		total += res.Best.Cycles
	}
	if total != 4294 {
		t.Errorf("ResNet-18 VW-SDK total = %d, want 4294 (paper Table I)", total)
	}
}

// TestSearchVWSDKTableIVGG13 pins every VW-SDK cell of the paper's Table I
// for VGG-13. Note: the paper prints layer 2 as "4x4x64x64", but ICt = 64
// cannot satisfy eq. 4 (4·4·64 = 1024 > 512 rows); floor(512/16) = 32 is the
// value eq. 4 yields and is what we assert (documented in EXPERIMENTS.md).
func TestSearchVWSDKTableIVGG13(t *testing.T) {
	want := []struct {
		tile   string
		cycles int64
	}{
		{"10x3x3x64", 6216},
		{"4x4x32x64", 24642},
		{"4x4x32x128", 6050},
		{"4x4x32x128", 12100},
		{"4x3x42x256", 5832},
		{"4x3x42x256", 10206},
		{"3x3x256x512", 3380},
		{"3x3x512x512", 6084},
		{"3x3x512x512", 1296},
		{"3x3x512x512", 1296},
	}
	var total int64
	for i, l := range vgg13Shapes() {
		res, err := SearchVWSDK(l, array512)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if got := res.Best.TileString(); got != want[i].tile {
			t.Errorf("%s: tile = %s, want %s", l.Name, got, want[i].tile)
		}
		if res.Best.Cycles != want[i].cycles {
			t.Errorf("%s: cycles = %d, want %d", l.Name, res.Best.Cycles, want[i].cycles)
		}
		total += res.Best.Cycles
	}
	if total != 77102 {
		t.Errorf("VGG-13 VW-SDK total = %d, want 77102 (paper Table I)", total)
	}
}

// TestSearchSDKTableI pins the SDK baseline columns of Table I.
func TestSearchSDKTableI(t *testing.T) {
	t.Run("resnet18", func(t *testing.T) {
		wantPW := []Window{{8, 8}, {4, 4}, {3, 3}, {3, 3}, {3, 3}}
		wantCycles := []int64{2809, 1458, 2028, 720, 225}
		var total int64
		for i, l := range resnet18Shapes() {
			res, err := SearchSDK(l, array512)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			if res.Best.PW != wantPW[i] {
				t.Errorf("%s: PW = %v, want %v", l.Name, res.Best.PW, wantPW[i])
			}
			if res.Best.Cycles != wantCycles[i] {
				t.Errorf("%s: cycles = %d, want %d", l.Name, res.Best.Cycles, wantCycles[i])
			}
			total += res.Best.Cycles
		}
		if total != 7240 {
			t.Errorf("ResNet-18 SDK total = %d, want 7240 (paper Table I)", total)
		}
	})
	t.Run("vgg13", func(t *testing.T) {
		wantPW := []Window{
			{4, 4}, {4, 4}, {4, 4}, {3, 3}, {3, 3},
			{3, 3}, {3, 3}, {3, 3}, {3, 3}, {3, 3},
		}
		wantCycles := []int64{
			12321, 24642, 6050, 36300, 8748,
			14580, 3380, 6084, 1296, 1296,
		}
		var total int64
		for i, l := range vgg13Shapes() {
			res, err := SearchSDK(l, array512)
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			if res.Best.PW != wantPW[i] {
				t.Errorf("%s: PW = %v, want %v", l.Name, res.Best.PW, wantPW[i])
			}
			if res.Best.Cycles != wantCycles[i] {
				t.Errorf("%s: cycles = %d, want %d", l.Name, res.Best.Cycles, wantCycles[i])
			}
			total += res.Best.Cycles
		}
		if total != 114697 {
			t.Errorf("VGG-13 SDK total = %d, want 114697 (paper Table I)", total)
		}
	})
}

// TestPaperSpeedups pins the headline speedups quoted in the paper's
// abstract and Section V-B.
func TestPaperSpeedups(t *testing.T) {
	sum := func(layers []Layer, f func(Layer) int64) int64 {
		var s int64
		for _, l := range layers {
			s += f(l)
		}
		return s
	}
	vwCycles := func(l Layer) int64 {
		r, err := SearchVWSDK(l, array512)
		if err != nil {
			t.Fatal(err)
		}
		return r.Best.Cycles
	}
	sdkCycles := func(l Layer) int64 {
		r, err := SearchSDK(l, array512)
		if err != nil {
			t.Fatal(err)
		}
		return r.Best.Cycles
	}
	imCycles := func(l Layer) int64 {
		m, err := Im2col(l, array512)
		if err != nil {
			t.Fatal(err)
		}
		return m.Cycles
	}
	check := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("%s speedup = %.3f, want in [%.2f, %.2f]", name, got, lo, hi)
		}
	}
	rn := resnet18Shapes()
	vg := vgg13Shapes()
	check("resnet18 VW vs im2col (paper 4.67x)",
		float64(sum(rn, imCycles))/float64(sum(rn, vwCycles)), 4.66, 4.68)
	check("resnet18 VW vs SDK (paper 1.69x)",
		float64(sum(rn, sdkCycles))/float64(sum(rn, vwCycles)), 1.68, 1.70)
	check("vgg13 VW vs im2col (paper 3.16x)",
		float64(sum(vg, imCycles))/float64(sum(vg, vwCycles)), 3.15, 3.17)
	check("vgg13 VW vs SDK (paper 1.49x)",
		float64(sum(vg, sdkCycles))/float64(sum(vg, vwCycles)), 1.48, 1.50)
}

// Property (Algorithm 1 invariant): VW-SDK never exceeds im2col cycles, and
// the reported best is reproducible from its own window parameters.
func TestSearchVWSDKProperties(t *testing.T) {
	f := func(iw, ih, k, ic, oc, rows, cols uint8) bool {
		l := Layer{
			IW: int(iw%30) + 5, IH: int(ih%30) + 5,
			KW: int(k%3) + 1, KH: int(k%3) + 1,
			IC: int(ic%100) + 1, OC: int(oc%100) + 1,
		}
		a := Array{Rows: int(rows%8)*32 + 32, Cols: int(cols%8)*32 + 32}
		res, err := SearchVWSDK(l, a)
		if err != nil {
			return false
		}
		if res.Best.Cycles > res.Im2col.Cycles {
			return false
		}
		if res.Best.Scheme == SchemeVWSDK {
			again, err := VW(l, a, res.Best.PW)
			if err != nil || again.Cycles != res.Best.Cycles {
				return false
			}
		}
		return res.SpeedupVsIm2col() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SearchVWSDK finds the true minimum over all feasible windows
// (it is exhaustive by construction; this guards the scan bounds).
func TestSearchVWSDKIsExhaustive(t *testing.T) {
	f := func(iw, ih, ic, oc uint8) bool {
		l := Layer{
			IW: int(iw%16) + 4, IH: int(ih%16) + 4,
			KW: 3, KH: 3, IC: int(ic%64) + 1, OC: int(oc%64) + 1,
		}
		a := Array{Rows: 128, Cols: 128}
		res, err := SearchVWSDK(l, a)
		if err != nil {
			return false
		}
		best := res.Im2col.Cycles
		for h := l.KH; h <= l.IH; h++ {
			for w := l.KW; w <= l.IW; w++ {
				if w == l.KW && h == l.KH {
					continue
				}
				m, err := VW(l, a, Window{w, h})
				if err != nil {
					continue
				}
				if m.Cycles < best {
					best = m.Cycles
				}
			}
		}
		return res.Best.Cycles == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchSDKDegenerate verifies that when no duplication is feasible the
// SDK result equals im2col but is labelled SDK, as the paper's Fig. 8
// presents it.
func TestSearchSDKDegenerate(t *testing.T) {
	l := Layer{IW: 28, IH: 28, KW: 3, KH: 3, IC: 128, OC: 128}
	res, err := SearchSDK(l, array512)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Scheme != SchemeSDK {
		t.Errorf("scheme = %v, want SDK", res.Best.Scheme)
	}
	if res.Best.PW != l.Kernel() {
		t.Errorf("PW = %v, want kernel %v", res.Best.PW, l.Kernel())
	}
	if res.Best.Cycles != res.Im2col.Cycles {
		t.Errorf("cycles = %d, want im2col %d", res.Best.Cycles, res.Im2col.Cycles)
	}
}

func TestSearchSMD(t *testing.T) {
	// 3x3x4x8 layer on 128x128: dup = min(128/36, 128/8) = 3.
	l := Layer{IW: 10, IH: 10, KW: 3, KH: 3, IC: 4, OC: 8}
	res, err := SearchSMD(l, Array{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Dup != 3 {
		t.Fatalf("dup = %d, want 3", res.Best.Dup)
	}
	if res.Best.Cycles != 22 {
		t.Fatalf("cycles = %d, want 22", res.Best.Cycles)
	}
	// Layer too large to duplicate degenerates to im2col tiling.
	big := Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 512, OC: 512}
	res, err = SearchSMD(big, array512)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Dup != 1 || res.Best.Cycles != res.Im2col.Cycles {
		t.Fatalf("big layer: dup=%d cycles=%d, want im2col degenerate", res.Best.Dup, res.Best.Cycles)
	}
}

// Property: both SMD and VW-SDK never lose to im2col. (VW-SDK does NOT
// always dominate SMD: for very small IC with large OC, block-diagonal
// duplication can process more windows per cycle than any parallel window —
// e.g. 3x3x2x30 on 256x256; see EXPERIMENTS.md. The paper never claims
// otherwise; it normalizes to im2col.)
func TestSchemeOrderingProperty(t *testing.T) {
	f := func(iw, ic, oc uint8) bool {
		l := Layer{
			IW: int(iw%20) + 5, IH: int(iw%20) + 5,
			KW: 3, KH: 3, IC: int(ic%32) + 1, OC: int(oc%32) + 1,
		}
		a := Array{Rows: 256, Cols: 256}
		smd, err1 := SearchSMD(l, a)
		vw, err2 := SearchVWSDK(l, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return vw.Best.Cycles <= vw.Im2col.Cycles &&
			smd.Best.Cycles <= smd.Im2col.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSMDCanBeatVWSDK documents the counterexample above: duplication wins
// when the kernel-channel footprint is small relative to the array.
func TestSMDCanBeatVWSDK(t *testing.T) {
	l := Layer{IW: 13, IH: 13, KW: 3, KH: 3, IC: 2, OC: 30}
	a := Array{Rows: 256, Cols: 256}
	smd, err := SearchSMD(l, a)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	if smd.Best.Cycles >= vw.Best.Cycles {
		t.Skipf("counterexample no longer holds: smd=%d vw=%d", smd.Best.Cycles, vw.Best.Cycles)
	}
}

func TestSearchVariants(t *testing.T) {
	// ResNet-18 conv4: the full search picks 4x3 (504 cycles), while the
	// best square window is 4x4 (576 cycles) — rectangles strictly win.
	l := Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}

	full, err := SearchVariant(l, array512, VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := SearchVariant(l, array512, VariantSquareTiled)
	if err != nil {
		t.Fatal(err)
	}
	rect, err := SearchVariant(l, array512, VariantRectFullChannel)
	if err != nil {
		t.Fatal(err)
	}
	if full.Best.Cycles > sq.Best.Cycles || full.Best.Cycles > rect.Best.Cycles {
		t.Errorf("full search (%d) worse than ablations (%d square, %d rect)",
			full.Best.Cycles, sq.Best.Cycles, rect.Best.Cycles)
	}
	if full.Best.Cycles != 504 {
		t.Errorf("full search cycles = %d, want 504", full.Best.Cycles)
	}
	if sq.Best.Cycles != 576 {
		t.Errorf("square+tiled cycles = %d, want 576", sq.Best.Cycles)
	}
	if full.Best.Cycles >= sq.Best.Cycles {
		t.Errorf("expected rectangular window to strictly beat squares: full=%d square=%d",
			full.Best.Cycles, sq.Best.Cycles)
	}
	if _, err := SearchVariant(l, array512, Variant(42)); err == nil {
		t.Error("unknown variant accepted")
	}
	for v, want := range map[Variant]string{
		VariantFull:            "full",
		VariantSquareTiled:     "square+tiled",
		VariantRectFullChannel: "rect+full-channels",
		Variant(7):             "Variant(7)",
	} {
		if got := v.String(); got != want {
			t.Errorf("Variant.String = %q, want %q", got, want)
		}
	}
}

// TestMethod pins Method's canonical form and names, and that both
// dispatchers reject an unknown method with an error.
func TestMethod(t *testing.T) {
	for m, want := range map[Method]string{
		MethodVWSDK: "VW-SDK",
		{Scheme: SchemeVWSDK, Variant: VariantRectFullChannel}: "VW-SDK rect+full-channels",
		{Scheme: SchemeSDK, Variant: VariantSquareTiled}:       "SDK",
		{Scheme: SchemeIm2col}:                                 "im2col",
		{Scheme: Scheme(9)}:                                    "Scheme(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", m, got, want)
		}
	}
	for m, want := range map[Method]Method{
		{Scheme: SchemeSMD, Variant: VariantSquareTiled}:        {Scheme: SchemeSMD},
		{Scheme: SchemeVWSDK, Variant: VariantSquareTiled}:      {Scheme: SchemeVWSDK, Variant: VariantSquareTiled},
		{Scheme: SchemeIm2col, Variant: VariantRectFullChannel}: {Scheme: SchemeIm2col},
	} {
		if got := m.Canonical(); got != want {
			t.Errorf("%+v.Canonical() = %+v, want %+v", m, got, want)
		}
	}
	l := Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	for _, m := range []Method{{Scheme: Scheme(9)}, {Scheme: SchemeVWSDK, Variant: Variant(42)}} {
		if _, err := Search(context.Background(), l, array512, m); err == nil {
			t.Errorf("Search accepted unknown method %+v", m)
		}
		if _, err := SearchExhaustive(context.Background(), l, array512, m); err == nil {
			t.Errorf("SearchExhaustive accepted unknown method %+v", m)
		}
	}
}

// Property: variant searches never beat the full search (they are
// restrictions of its candidate set).
func TestVariantsAreRestrictions(t *testing.T) {
	f := func(iw, ic, oc, rows uint8) bool {
		l := Layer{
			IW: int(iw%24) + 5, IH: int(iw%24) + 5,
			KW: 3, KH: 3, IC: int(ic%64) + 1, OC: int(oc%64) + 1,
		}
		a := Array{Rows: int(rows%4)*128 + 128, Cols: 256}
		full, err := SearchVariant(l, a, VariantFull)
		if err != nil {
			return false
		}
		sq, err := SearchVariant(l, a, VariantSquareTiled)
		if err != nil {
			return false
		}
		return full.Best.Cycles <= sq.Best.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchInvalidInputs(t *testing.T) {
	bad := Layer{IW: 0, IH: 8, KW: 3, KH: 3, IC: 1, OC: 1}
	if _, err := SearchVWSDK(bad, array512); err == nil {
		t.Error("SearchVWSDK accepted invalid layer")
	}
	if _, err := SearchSDK(bad, array512); err == nil {
		t.Error("SearchSDK accepted invalid layer")
	}
	if _, err := SearchSMD(bad, array512); err == nil {
		t.Error("SearchSMD accepted invalid layer")
	}
	ok := Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 1, OC: 1}
	if _, err := SearchVWSDK(ok, Array{0, 0}); err == nil {
		t.Error("SearchVWSDK accepted invalid array")
	}
}

// TestSquareTiledInfeasibleSkip guards the SquareTiled sweep's infeasible
// handling: like SearchVWSDK it must skip infeasible candidates rather than
// abort the sweep, and it must agree with a brute-force sweep over every
// square window (which would expose a missed later-feasible window if the
// geometry ever admitted one). The first layer drives the sweep through an
// infeasible region (9x9 windows overflow 64 rows at IC 4) with in-bounds
// candidates still remaining.
func TestSquareTiledInfeasibleSkip(t *testing.T) {
	layers := []Layer{
		{Name: "mid-infeasible", IW: 12, IH: 12, KW: 3, KH: 3, IC: 4, OC: 8},
		{Name: "strided", IW: 23, IH: 23, KW: 3, KH: 3, IC: 8, OC: 8, StrideW: 2, StrideH: 2},
		{Name: "col-bound", IW: 16, IH: 16, KW: 3, KH: 3, IC: 1, OC: 60},
	}
	a := Array{Rows: 64, Cols: 64}
	for _, l := range layers {
		res, err := SearchVariant(l, a, VariantSquareTiled)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		n := l.Normalized()
		best, err := Im2col(n, a)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		evaluated := 0
		for d := 1; ; d++ {
			pw := Window{W: n.KW + d*n.StrideW, H: n.KH + d*n.StrideH}
			if pw.W > n.PaddedW() || pw.H > n.PaddedH() {
				break
			}
			m, err := VW(n, a, pw)
			if err != nil {
				continue // brute force never early-exits
			}
			evaluated++
			if m.Cycles < best.Cycles {
				best = m
			}
		}
		if res.Best.Cycles != best.Cycles || res.Best.PW != best.PW {
			t.Errorf("%s: search found %v (%d cycles), brute force %v (%d cycles)",
				l.Name, res.Best.PW, res.Best.Cycles, best.PW, best.Cycles)
		}
		if res.Evaluated != evaluated {
			t.Errorf("%s: Evaluated = %d, brute force costed %d", l.Name, res.Evaluated, evaluated)
		}
	}
}

// TestEvaluatedCountsCandidatesCosted pins the meaning of Result.Evaluated
// and Result.Swept across all three searches: Evaluated is the number of
// cost classes the search actually costed (one representative per
// constant-cycle run for the pruned default), Swept is the feasible
// candidate count of the exhaustive sweep — the legacy Evaluated.
func TestEvaluatedCountsCandidatesCosted(t *testing.T) {
	// SMD costs exactly one mapping whatever duplication it picks.
	small := Layer{IW: 10, IH: 10, KW: 3, KH: 3, IC: 4, OC: 8}
	res, err := SearchSMD(small, Array{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Dup != 3 {
		t.Fatalf("dup = %d, want 3", res.Best.Dup)
	}
	if res.Evaluated != 1 || res.Swept != 1 {
		t.Errorf("SMD Evaluated = %d, Swept = %d, want 1 (one mapping costed)",
			res.Evaluated, res.Swept)
	}

	// VW-SDK sweeps every feasible non-kernel window; the pruned default
	// costs at most one representative per cost class.
	l := Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	vw, err := SearchVWSDK(l, array512)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for h := l.KH; h <= l.IH; h++ {
		for w := l.KW; w <= l.IW; w++ {
			if w == l.KW && h == l.KH {
				continue
			}
			if _, err := VW(l, array512, Window{W: w, H: h}); err == nil {
				count++
			}
		}
	}
	if vw.Swept != count {
		t.Errorf("VW-SDK Swept = %d, want %d feasible windows", vw.Swept, count)
	}
	if vw.Evaluated <= 0 || vw.Evaluated > count {
		t.Errorf("VW-SDK Evaluated = %d cost classes, want in (0, %d]", vw.Evaluated, count)
	}
	exh, err := SearchVWSDKExhaustive(l, array512)
	if err != nil {
		t.Fatal(err)
	}
	if exh.Evaluated != count || exh.Swept != count {
		t.Errorf("exhaustive Evaluated = %d, Swept = %d, want %d feasible windows",
			exh.Evaluated, exh.Swept, count)
	}

	// SDK costs every square candidate inside the IFM bounds (its
	// feasibility rule filters after costing).
	sdk, err := SearchSDK(l, array512)
	if err != nil {
		t.Fatal(err)
	}
	squares := 0
	for d := 1; 3+d <= 14; d++ {
		squares++
	}
	if sdk.Evaluated != squares || sdk.Swept != squares {
		t.Errorf("SDK Evaluated = %d, Swept = %d, want %d costed candidates",
			sdk.Evaluated, sdk.Swept, squares)
	}
}
