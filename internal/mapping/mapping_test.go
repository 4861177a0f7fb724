package mapping

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/pimarray"
	"repro/internal/tensor"
)

func mustVW(t *testing.T, l core.Layer, a core.Array, pw core.Window) core.Mapping {
	t.Helper()
	m, err := core.VW(l, a, pw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestVerifyTableILayers executes the paper's actual mapping decisions on a
// simulated 512x512 crossbar and checks both functional equivalence with the
// reference convolution and the exact analytic cycle counts. The two largest
// ResNet-18 shapes are used; they exercise AR tiling, channel remainders and
// rectangular windows.
func TestVerifyTableILayers(t *testing.T) {
	if testing.Short() {
		t.Skip("large functional simulation")
	}
	a := core.Array{Rows: 512, Cols: 512}
	layers := []core.Layer{
		{Name: "resnet-conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256},
		{Name: "resnet-conv5", IW: 7, IH: 7, KW: 3, KH: 3, IC: 512, OC: 512},
	}
	for _, l := range layers {
		t.Run(l.Name, func(t *testing.T) {
			if err := VerifyAllSchemes(l, a, 0xfeed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVerifyRectangularWindow pins the paper's flagship 4x3 window with
// channel tiling (ResNet-18 conv4: ICt=42, 7 AR tiles with a 4-channel
// remainder) functionally.
func TestVerifyRectangularWindow(t *testing.T) {
	l := core.Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	a := core.Array{Rows: 512, Cols: 512}
	m := mustVW(t, l, a, core.Window{W: 4, H: 3})
	if m.Cycles != 504 {
		t.Fatalf("cycles = %d, want 504", m.Cycles)
	}
	if err := Verify(m, 1); err != nil {
		t.Fatal(err)
	}
}

// TestVerifySchemesSmall covers all four schemes on layers small enough to
// run in every test mode, including stride and padding variants for im2col
// and SMD (the window schemes are stride-1 in the paper; strided windows are
// covered by TestVerifyStridedWindow).
func TestVerifySchemesSmall(t *testing.T) {
	a := core.Array{Rows: 64, Cols: 48}
	layers := []core.Layer{
		{Name: "base", IW: 9, IH: 8, KW: 3, KH: 3, IC: 5, OC: 7},
		{Name: "rect kernel", IW: 10, IH: 9, KW: 3, KH: 2, IC: 4, OC: 5},
		{Name: "1x1 kernel", IW: 6, IH: 6, KW: 1, KH: 1, IC: 9, OC: 11},
		{Name: "wide", IW: 16, IH: 5, KW: 3, KH: 3, IC: 3, OC: 4},
	}
	for _, l := range layers {
		t.Run(l.Name, func(t *testing.T) {
			if err := VerifyAllSchemes(l, a, 42); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVerifyPaddedIm2col checks the padded/strided path of the group
// schemes.
func TestVerifyPaddedIm2col(t *testing.T) {
	l := core.Layer{IW: 9, IH: 9, KW: 3, KH: 3, IC: 3, OC: 4,
		StrideW: 2, StrideH: 2, PadW: 1, PadH: 1}
	a := core.Array{Rows: 32, Cols: 16}
	im, err := core.Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(im, 7); err != nil {
		t.Fatal(err)
	}
	smd, err := core.SearchSMD(l, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(smd.Best, 7); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyStridedWindow checks a stride-2 parallel window, which the
// paper's model does not cover but the implementation generalizes to
// (DESIGN.md extension): clamped windows may extend past the padded IFM and
// must still compute exactly.
func TestVerifyStridedWindow(t *testing.T) {
	l := core.Layer{IW: 11, IH: 9, KW: 3, KH: 3, IC: 2, OC: 3,
		StrideW: 2, StrideH: 2}
	a := core.Array{Rows: 64, Cols: 32}
	m, err := core.VW(l, a, core.Window{W: 7, H: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(m, 3); err != nil {
		t.Fatal(err)
	}
	sdk, err := core.SDK(l, a, core.Window{W: 7, H: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sdk, 3); err != nil {
		t.Fatal(err)
	}
}

// TestFunctionalEquivalenceProperty is the repository's central property
// test: for random small layers and arrays, every scheme's crossbar
// execution equals the reference convolution exactly and takes exactly the
// analytic number of cycles. Layers draw strides 1–2 and padding 0–1 per
// axis, and are dense, depthwise or split into 2 groups; VerifyAllSchemes
// verifies a grouped layer under the schemes with grouped layouts.
func TestFunctionalEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, iw, ih, k, ic, oc, rows, cols, sp, g uint8) bool {
		l := core.Layer{
			IW: int(iw%8) + 5, IH: int(ih%8) + 5,
			KW: int(k%3) + 1, KH: int(k)/3%3 + 1,
			IC: int(ic%6) + 1, OC: int(oc%6) + 1,
			StrideW: int(sp%2) + 1, StrideH: int(sp/2%2) + 1,
			PadW: int(sp / 4 % 2), PadH: int(sp / 8 % 2),
		}
		switch g % 3 {
		case 1: // depthwise
			l.OC, l.Groups = l.IC, l.IC
		case 2: // two groups
			l.IC, l.OC, l.Groups = 2*(l.IC%3+1), 2*(l.OC%3+1), 2
		}
		a := core.Array{Rows: int(rows%3)*24 + 24, Cols: int(cols%3)*16 + 16}
		if err := VerifyAllSchemes(l, a, seed); err != nil {
			t.Logf("%v on %s: %v", l, a, err)
			return false
		}
		return true
	}
	n := 200
	if testing.Short() {
		n = 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestPatternCellsMatchAnalytic cross-checks the physically constructed
// weight tiles against core's analytic used-cell accounting (eq. 9 inputs)
// for every tile of every scheme.
func TestPatternCellsMatchAnalytic(t *testing.T) {
	check := func(t *testing.T, m core.Mapping) {
		t.Helper()
		p, err := NewPlan(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range p.Tiles {
			got := p.PatternCells(tile)
			want := m.Tile(tile.I, tile.J).UsedCells
			if got != want {
				t.Errorf("%v tile (%d,%d): constructed %d cells, analytic %d",
					m, tile.I, tile.J, got, want)
			}
		}
	}
	a := core.Array{Rows: 64, Cols: 48}
	layers := []core.Layer{
		{Name: "a", IW: 9, IH: 8, KW: 3, KH: 3, IC: 5, OC: 7},
		{Name: "b", IW: 12, IH: 12, KW: 3, KH: 3, IC: 9, OC: 20},
		{Name: "c", IW: 10, IH: 10, KW: 2, KH: 3, IC: 4, OC: 50},
	}
	for _, l := range layers {
		t.Run(l.Name, func(t *testing.T) {
			im, err := core.Im2col(l, a)
			if err != nil {
				t.Fatal(err)
			}
			check(t, im)
			windows := []core.Window{
				{W: 3, H: 3}, {W: 4, H: 3}, {W: 5, H: 4}, {W: 6, H: 6},
			}
			for _, pw := range windows {
				if pw.W < l.KW || pw.H < l.KH {
					continue
				}
				if sdk, err := core.SDK(l, a, pw); err == nil {
					check(t, sdk)
				}
				if vw, err := core.VW(l, a, pw); err == nil {
					check(t, vw)
				}
			}
			if smd, err := core.SearchSMD(l, a); err == nil {
				check(t, smd.Best)
			}
		})
	}
}

// TestPatternCellsProperty extends the cross-check to random layers.
func TestPatternCellsProperty(t *testing.T) {
	f := func(iw, k, ic, oc, pw, ph uint8) bool {
		l := core.Layer{
			IW: int(iw%8) + 6, IH: int(iw%8) + 6,
			KW: int(k%2) + 2, KH: int(k%2) + 2,
			IC: int(ic%8) + 1, OC: int(oc%12) + 1,
		}
		a := core.Array{Rows: 48, Cols: 32}
		w := core.Window{W: l.KW + int(pw)%3, H: l.KH + int(ph)%3}
		if w.W > l.IW || w.H > l.IH {
			return true
		}
		for _, build := range []func() (core.Mapping, error){
			func() (core.Mapping, error) { return core.SDK(l, a, w) },
			func() (core.Mapping, error) { return core.VW(l, a, w) },
		} {
			m, err := build()
			if err != nil {
				continue
			}
			p, err := NewPlan(m)
			if err != nil {
				return false
			}
			for _, tile := range p.Tiles {
				if p.PatternCells(tile) != m.Tile(tile.I, tile.J).UsedCells {
					return false
				}
			}
		}
		return true
	}
	n := 80
	if testing.Short() {
		n = 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteCycleAccounting checks the crossbar statistics of a run match
// the analytic model: cycles, and utilization of the executed schedule
// equalling core's eq. 9 value.
func TestExecuteCycleAccounting(t *testing.T) {
	l := core.Layer{IW: 12, IH: 12, KW: 3, KH: 3, IC: 9, OC: 20}
	a := core.Array{Rows: 64, Cols: 48}
	res, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Best
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := pimarray.New(a.Rows, a.Cols)
	if err != nil {
		t.Fatal(err)
	}
	ifm := tensor.RandTensor3(5, l.IC, l.IH, l.IW)
	w := tensor.RandTensor4(6, l.OC, l.IC, l.KH, l.KW)
	if _, err := p.Execute(arr, ifm, w); err != nil {
		t.Fatal(err)
	}
	st := arr.Stats()
	if st.Cycles != m.Cycles {
		t.Errorf("cycles = %d, want %d", st.Cycles, m.Cycles)
	}
	if st.ProgramOps != int64(len(p.Tiles)) {
		t.Errorf("programs = %d, want %d", st.ProgramOps, len(p.Tiles))
	}
	// Executed utilization can differ from eq. 9 only because real weights
	// may contain zeros; with the all-nonzero fill it matches within the
	// probability of a zero draw — instead compare against a pattern-based
	// expectation computed from the plan itself.
	var usedPerTile int64
	for _, tile := range p.Tiles {
		usedPerTile += p.PatternCells(tile)
	}
	wantUsed := usedPerTile * int64(len(p.Positions))
	// Zeros in the random weights make the executed count ≤ pattern count.
	if st.UsedCellCycles > wantUsed {
		t.Errorf("used cell cycles = %d, want ≤ %d", st.UsedCellCycles, wantUsed)
	}
}

// TestRunWithQuantizationExact: integer weights within range survive 8-bit
// quantization, so the quantized run still matches the reference exactly.
func TestRunWithQuantizationExact(t *testing.T) {
	l := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 3, OC: 4}
	a := core.Array{Rows: 32, Cols: 16}
	m, err := core.VW(l, a, core.Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	ifm := tensor.RandTensor3(9, l.IC, l.IH, l.IW)
	w := tensor.RandTensor4(10, l.OC, l.IC, l.KH, l.KW)
	want, _, err := Run(m, ifm, w)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(m, ifm, w, pimarray.WithQuantization(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("8-bit quantization of integer weights changed the result")
	}
}

// TestRunWithNoiseApproximate: with read noise the result is close but not
// exact.
func TestRunWithNoiseApproximate(t *testing.T) {
	l := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 3, OC: 4}
	a := core.Array{Rows: 32, Cols: 16}
	m, err := core.VW(l, a, core.Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	ifm := tensor.RandTensor3(11, l.IC, l.IH, l.IW)
	w := tensor.RandTensor4(12, l.OC, l.IC, l.KH, l.KW)
	exact, _, err := Run(m, ifm, w)
	if err != nil {
		t.Fatal(err)
	}
	noisy, _, err := Run(m, ifm, w, pimarray.WithReadNoise(0.01, 13))
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Equal(exact) {
		t.Fatal("noise had no effect")
	}
	// Each output gets AR noisy contributions of sigma 0.01 each.
	if !noisy.AlmostEqual(exact, 0.3) {
		t.Fatalf("noisy result too far off: max diff %g", noisy.MaxAbsDiff(exact))
	}
}

func TestNewPlanValidation(t *testing.T) {
	l := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 2, OC: 2}
	a := core.Array{Rows: 32, Cols: 16}
	good, err := core.VW(l, a, core.Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}

	bad := good
	bad.Cycles = 999
	if _, err := NewPlan(bad); err == nil {
		t.Error("inconsistent cycle count accepted")
	}

	// A mapping whose ICt cannot fit the array rows must be rejected.
	big := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 8, OC: 2}
	vw, err := core.VW(big, a, core.Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	if vw.ICt != 2 || vw.AR != 4 {
		t.Fatalf("unexpected baseline mapping %v", vw)
	}
	bad = vw
	bad.ICt = 4 // 4·16 = 64 rows > 32
	if _, err := NewPlan(bad); err == nil {
		t.Error("oversized ICt accepted")
	}

	bad = good
	bad.Layer.IW = 0
	if _, err := NewPlan(bad); err == nil {
		t.Error("invalid layer accepted")
	}

	bad = good
	bad.Array = core.Array{}
	if _, err := NewPlan(bad); err == nil {
		t.Error("invalid array accepted")
	}

	bad = good
	bad.Scheme = core.Scheme(77)
	if _, err := NewPlan(bad); err == nil {
		t.Error("unknown scheme accepted")
	}

	im, err := core.Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	bad = im
	bad.Dup = 0
	if _, err := NewPlan(bad); err == nil {
		t.Error("Dup=0 accepted")
	}
}

func TestExecuteShapeValidation(t *testing.T) {
	l := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 2, OC: 2}
	a := core.Array{Rows: 32, Cols: 16}
	m, err := core.Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := pimarray.New(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	ifm := tensor.RandTensor3(1, 2, 8, 8)
	w := tensor.RandTensor4(2, 2, 2, 3, 3)
	if _, err := p.Execute(arr, tensor.NewTensor3(1, 8, 8), w); err == nil {
		t.Error("wrong IFM accepted")
	}
	if _, err := p.Execute(arr, ifm, tensor.NewTensor4(1, 2, 3, 3)); err == nil {
		t.Error("wrong weights accepted")
	}
	small, err := pimarray.New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(small, ifm, w); err == nil {
		t.Error("undersized array accepted")
	}
	if _, err := p.Execute(arr, ifm, w); err != nil {
		t.Errorf("valid execute failed: %v", err)
	}
}

// TestSMDPartialGroup checks the last SMD group (fewer windows than Dup)
// computes correctly — idle copy rows feed zeros and idle columns are
// dropped by the scatter.
func TestSMDPartialGroup(t *testing.T) {
	// windows = 6*6 = 36; dup 5 -> 8 groups, last with a single window.
	l := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 2, OC: 3}
	a := core.Array{Rows: 128, Cols: 32}
	m, err := core.SMD(l, a, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.NPW != 8 {
		t.Fatalf("NPW = %d, want 8", m.NPW)
	}
	if err := Verify(m, 21); err != nil {
		t.Fatal(err)
	}
}

// TestClampedWindowOverlap forces clamped (overlapping) final positions in
// both axes and checks outputs are not double-accumulated.
func TestClampedWindowOverlap(t *testing.T) {
	// OutW = 9 with NwW = 2: positions at ox 0,2,4,6,7 (clamped) — overlap
	// at ox 7 must scatter only its fresh column.
	l := core.Layer{IW: 11, IH: 11, KW: 3, KH: 3, IC: 2, OC: 2}
	a := core.Array{Rows: 32, Cols: 16}
	m, err := core.VW(l, a, core.Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	if l.OutW()%m.NwW == 0 {
		t.Fatal("test layer does not exercise clamping")
	}
	if err := Verify(m, 33); err != nil {
		t.Fatal(err)
	}
}

func TestTileAccessors(t *testing.T) {
	tile := Tile{RowLo: 3, RowHi: 10, ColLo: 4, ColHi: 8}
	if tile.Rows() != 7 || tile.Cols() != 4 {
		t.Fatalf("Tile accessors wrong: %dx%d", tile.Rows(), tile.Cols())
	}
}

// TestFaultDetection: verification against the reference convolution
// catches stuck-at-zero cell faults (failure-injection test).
func TestFaultDetection(t *testing.T) {
	l := core.Layer{IW: 10, IH: 10, KW: 3, KH: 3, IC: 8, OC: 8}
	a := core.Array{Rows: 96, Cols: 64}
	res, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	ifm := tensor.RandTensor3(100, l.IC, l.IH, l.IW)
	w := tensor.RandTensor4(101, l.OC, l.IC, l.KH, l.KW)
	want, _, err := Run(res.Best, ifm, w)
	if err != nil {
		t.Fatal(err)
	}
	// A heavily faulty array must produce a detectably different OFM.
	got, _, err := Run(res.Best, ifm, w, pimarray.WithStuckCells(0.2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(want) {
		t.Fatal("20% stuck cells went undetected")
	}
	// A fault-free array stays exact.
	clean, _, err := Run(res.Best, ifm, w, pimarray.WithStuckCells(0, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Equal(want) {
		t.Fatal("zero-fraction fault option changed the result")
	}
}

// TestVerifyAblationWinners runs the winners of both Algorithm 1 ablations
// on the crossbar — dense, strided and padded, rectangular-kernel, grouped
// and depthwise layers on four arrays — and requires a bit-exact OFM and
// executed cycles equal to the analytic count. A grouped rect-full-channel
// winner that takes SDK's row-granular layout, which has no grouped form,
// must be rejected with that structured error rather than skipped.
func TestVerifyAblationWinners(t *testing.T) {
	layers := []core.Layer{
		{Name: "dense", IW: 9, IH: 8, KW: 3, KH: 3, IC: 5, OC: 7},
		{Name: "strided padded", IW: 11, IH: 10, KW: 3, KH: 3, IC: 4, OC: 6, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1},
		{Name: "rect kernel", IW: 10, IH: 9, KW: 3, KH: 2, IC: 4, OC: 5},
		{Name: "grouped", IW: 9, IH: 8, KW: 3, KH: 3, IC: 6, OC: 8, Groups: 2},
		{Name: "depthwise", IW: 9, IH: 9, KW: 3, KH: 3, IC: 7, OC: 7, Groups: 7},
	}
	arrays := []core.Array{{Rows: 32, Cols: 32}, {Rows: 64, Cols: 48}, {Rows: 128, Cols: 64}, {Rows: 256, Cols: 256}}
	rejected := 0
	for _, v := range []core.Variant{core.VariantSquareTiled, core.VariantRectFullChannel} {
		m := core.Method{Scheme: core.SchemeVWSDK, Variant: v}
		for _, l := range layers {
			for _, a := range arrays {
				res, err := core.Search(context.Background(), l, a, m)
				if err != nil {
					t.Fatalf("%v %s %v: %v", m, l.Name, a, err)
				}
				err = Verify(res.Best, 0xab1a)
				if l.NumGroups() > 1 && res.Best.Scheme == core.SchemeSDK {
					rejected++
					if err == nil || !strings.Contains(err.Error(), "SDK's row-granular layout has no grouped form") {
						t.Errorf("%v %s %v: grouped SDK-layout winner %v: err = %v, want the no-grouped-form rejection",
							m, l.Name, a, res.Best, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%v %s %v: winner %v: %v", m, l.Name, a, res.Best, err)
				}
			}
		}
	}
	if rejected == 0 {
		t.Error("no grouped rect-full-channel winner took the SDK layout; the rejection went unchecked")
	}
}
