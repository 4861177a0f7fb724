package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
)

var array512 = Array{Rows: 512, Cols: 512}

// resnet18Shapes are the five distinct conv shapes of ResNet-18 exactly as
// the paper's Table I lists them (each counted once).
func resnet18Shapes() []Layer {
	return []Layer{
		{Name: "conv1", IW: 112, IH: 112, KW: 7, KH: 7, IC: 3, OC: 64},
		{Name: "conv2", IW: 56, IH: 56, KW: 3, KH: 3, IC: 64, OC: 64},
		{Name: "conv3", IW: 28, IH: 28, KW: 3, KH: 3, IC: 128, OC: 128},
		{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256},
		{Name: "conv5", IW: 7, IH: 7, KW: 3, KH: 3, IC: 512, OC: 512},
	}
}

// vgg13Shapes are the ten conv layers of VGG-13 as Table I lists them.
func vgg13Shapes() []Layer {
	return []Layer{
		{Name: "conv1", IW: 224, IH: 224, KW: 3, KH: 3, IC: 3, OC: 64},
		{Name: "conv2", IW: 224, IH: 224, KW: 3, KH: 3, IC: 64, OC: 64},
		{Name: "conv3", IW: 112, IH: 112, KW: 3, KH: 3, IC: 64, OC: 128},
		{Name: "conv4", IW: 112, IH: 112, KW: 3, KH: 3, IC: 128, OC: 128},
		{Name: "conv5", IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256},
		{Name: "conv6", IW: 56, IH: 56, KW: 3, KH: 3, IC: 256, OC: 256},
		{Name: "conv7", IW: 28, IH: 28, KW: 3, KH: 3, IC: 256, OC: 512},
		{Name: "conv8", IW: 28, IH: 28, KW: 3, KH: 3, IC: 512, OC: 512},
		{Name: "conv9", IW: 14, IH: 14, KW: 3, KH: 3, IC: 512, OC: 512},
		{Name: "conv10", IW: 14, IH: 14, KW: 3, KH: 3, IC: 512, OC: 512},
	}
}

func TestIm2colResNet18(t *testing.T) {
	// Hand-derived from eq. 1 with a 512x512 array (DESIGN.md §2).
	want := []int64{11236, 5832, 2028, 720, 225}
	var total int64
	for i, l := range resnet18Shapes() {
		m, err := Im2col(l, array512)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if m.Cycles != want[i] {
			t.Errorf("%s: im2col cycles = %d, want %d", l.Name, m.Cycles, want[i])
		}
		total += m.Cycles
	}
	if total != 20041 {
		t.Errorf("ResNet-18 im2col total = %d, want 20041", total)
	}
}

func TestIm2colVGG13(t *testing.T) {
	want := []int64{49284, 98568, 24200, 36300, 8748, 14580, 3380, 6084, 1296, 1296}
	var total int64
	for i, l := range vgg13Shapes() {
		m, err := Im2col(l, array512)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if m.Cycles != want[i] {
			t.Errorf("%s: im2col cycles = %d, want %d", l.Name, m.Cycles, want[i])
		}
		total += m.Cycles
	}
	if total != 243736 {
		t.Errorf("VGG-13 im2col total = %d, want 243736", total)
	}
}

func TestVWCostHandDerived(t *testing.T) {
	tests := []struct {
		name   string
		l      Layer
		pw     Window
		ict    int
		oct    int
		npw    int
		ar, ac int
		cycles int64
	}{
		{
			name: "resnet conv1 10x8",
			l:    Layer{IW: 112, IH: 112, KW: 7, KH: 7, IC: 3, OC: 64},
			pw:   Window{10, 8}, ict: 3, oct: 64,
			npw: 27 * 53, ar: 1, ac: 1, cycles: 1431,
		},
		{
			name: "resnet conv2 4x4",
			l:    Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 64, OC: 64},
			pw:   Window{4, 4}, ict: 32, oct: 64,
			npw: 729, ar: 2, ac: 1, cycles: 1458,
		},
		{
			name: "resnet conv4 4x3",
			l:    Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256},
			pw:   Window{4, 3}, ict: 42, oct: 256,
			npw: 72, ar: 7, ac: 1, cycles: 504,
		},
		{
			name: "vgg conv1 10x3",
			l:    Layer{IW: 224, IH: 224, KW: 3, KH: 3, IC: 3, OC: 64},
			pw:   Window{10, 3}, ict: 3, oct: 64,
			npw: 28 * 222, ar: 1, ac: 1, cycles: 6216,
		},
		{
			name: "vgg conv5 4x3",
			l:    Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256},
			pw:   Window{4, 3}, ict: 42, oct: 256,
			npw: 27 * 54, ar: 4, ac: 1, cycles: 5832,
		},
		{
			name: "vgg conv6 4x3",
			l:    Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 256, OC: 256},
			pw:   Window{4, 3}, ict: 42, oct: 256,
			npw: 1458, ar: 7, ac: 1, cycles: 10206,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := VW(tt.l, array512, tt.pw)
			if err != nil {
				t.Fatal(err)
			}
			if m.ICt != tt.ict || m.OCt != tt.oct {
				t.Errorf("ICt,OCt = %d,%d, want %d,%d", m.ICt, m.OCt, tt.ict, tt.oct)
			}
			if m.NPW != tt.npw {
				t.Errorf("NPW = %d, want %d", m.NPW, tt.npw)
			}
			if m.AR != tt.ar || m.AC != tt.ac {
				t.Errorf("AR,AC = %d,%d, want %d,%d", m.AR, m.AC, tt.ar, tt.ac)
			}
			if m.Cycles != tt.cycles {
				t.Errorf("cycles = %d, want %d", m.Cycles, tt.cycles)
			}
		})
	}
}

func TestSDKCostHandDerived(t *testing.T) {
	tests := []struct {
		name   string
		l      Layer
		pw     Window
		ar, ac int
		cycles int64
	}{
		{
			name: "resnet conv1 8x8",
			l:    Layer{IW: 112, IH: 112, KW: 7, KH: 7, IC: 3, OC: 64},
			pw:   Window{8, 8}, ar: 1, ac: 1, cycles: 2809,
		},
		{
			name: "vgg conv2 4x4 AR2",
			l:    Layer{IW: 224, IH: 224, KW: 3, KH: 3, IC: 64, OC: 64},
			pw:   Window{4, 4}, ar: 2, ac: 1, cycles: 24642,
		},
		{
			name: "vgg conv1 5x5 would need AC2",
			l:    Layer{IW: 224, IH: 224, KW: 3, KH: 3, IC: 3, OC: 64},
			pw:   Window{5, 5}, ar: 1, ac: 2, cycles: 10952,
		},
		{
			name: "resnet conv3 4x4 AR4",
			l:    Layer{IW: 28, IH: 28, KW: 3, KH: 3, IC: 128, OC: 128},
			pw:   Window{4, 4}, ar: 4, ac: 1, cycles: 676,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := SDK(tt.l, array512, tt.pw)
			if err != nil {
				t.Fatal(err)
			}
			if m.AR != tt.ar || m.AC != tt.ac {
				t.Errorf("AR,AC = %d,%d, want %d,%d", m.AR, m.AC, tt.ar, tt.ac)
			}
			if m.Cycles != tt.cycles {
				t.Errorf("cycles = %d, want %d", m.Cycles, tt.cycles)
			}
		})
	}
}

func TestSMDCost(t *testing.T) {
	// Small layer where duplication fits: 3x3x4 kernel (36 rows), OC 8.
	// On a 128x128 array: dup_max = min(128/36, 128/8) = 3.
	l := Layer{IW: 10, IH: 10, KW: 3, KH: 3, IC: 4, OC: 8}
	a := Array{Rows: 128, Cols: 128}
	m, err := SMD(l, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.AR != 1 || m.AC != 1 {
		t.Fatalf("AR,AC = %d,%d, want 1,1", m.AR, m.AC)
	}
	// windows = 64; ceil(64/3) = 22.
	if m.NPW != 22 || m.Cycles != 22 {
		t.Fatalf("NPW = %d cycles = %d, want 22", m.NPW, m.Cycles)
	}
	if _, err := SMD(l, a, 4); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("SMD dup=4 error = %v, want ErrInfeasible", err)
	}
	if _, err := SMD(l, a, 0); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("SMD dup=0 error = %v, want ErrInfeasible", err)
	}
	one, err := SMD(l, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	im, _ := Im2col(l, a)
	if one.Cycles != im.Cycles {
		t.Fatalf("SMD dup=1 cycles = %d, want im2col %d", one.Cycles, im.Cycles)
	}
}

func TestVWInfeasible(t *testing.T) {
	l := Layer{IW: 32, IH: 32, KW: 3, KH: 3, IC: 4, OC: 4}
	// Window area 30*30=900 > 512 rows: not even one channel fits.
	if _, err := VW(l, Array{512, 512}, Window{30, 30}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
	// 20 windows > 8 columns.
	if _, err := VW(l, Array{512, 8}, Window{12, 4}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestWindowValidation(t *testing.T) {
	l := Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 2, OC: 2}
	if _, err := VW(l, array512, Window{2, 3}); err == nil {
		t.Fatal("window smaller than kernel accepted")
	}
	if _, err := VW(l, array512, Window{9, 3}); err == nil {
		t.Fatal("window larger than IFM accepted")
	}
	if _, err := SDK(l, array512, Window{2, 2}); err == nil {
		t.Fatal("SDK window smaller than kernel accepted")
	}
}

// TestNPWMatchesPaperFormula checks that the per-axis ceil(out/nw) form used
// in the implementation equals the paper's eq. 3,
// (ceil((I-PW)/(PW-K+1))+1) per axis, for stride-1 layers.
func TestNPWMatchesPaperFormula(t *testing.T) {
	f := func(iw, ih, pw, ph uint8) bool {
		l := Layer{
			IW: int(iw%120) + 7, IH: int(ih%120) + 7,
			KW: 3, KH: 3, IC: 4, OC: 4,
		}
		w := Window{W: 3 + int(pw)%8, H: 3 + int(ph)%8}
		if w.W > l.IW || w.H > l.IH {
			return true
		}
		m, err := VW(l, Array{4096, 4096}, w)
		if err != nil {
			return true
		}
		paper := (ceilDiv(l.IW-w.W, w.W-l.KW+1) + 1) *
			(ceilDiv(l.IH-w.H, w.H-l.KH+1) + 1)
		return m.NPW == paper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNPWMatchesEnumeration checks eq. 3 against explicitly enumerating
// clamped parallel-window origins over the IFM.
func TestNPWMatchesEnumeration(t *testing.T) {
	count := func(out, nw int) int {
		// Window origins advance by nw outputs; the final window is
		// clamped so it still fits. Count distinct origins.
		n := 0
		for o := 0; ; o += nw {
			n++
			if o+nw >= out {
				break
			}
		}
		return n
	}
	f := func(iw, ih, pw, ph uint8) bool {
		l := Layer{
			IW: int(iw%80) + 7, IH: int(ih%80) + 7,
			KW: 3, KH: 3, IC: 2, OC: 2,
		}
		w := Window{W: 3 + int(pw)%6, H: 3 + int(ph)%6}
		if w.W > l.IW || w.H > l.IH {
			return true
		}
		m, err := VW(l, Array{4096, 4096}, w)
		if err != nil {
			return true
		}
		want := count(l.OutW(), m.NwW) * count(l.OutH(), m.NwH)
		return m.NPW == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: tiled channels always fit the array (eqs. 4 and 6).
func TestTilingFitsArray(t *testing.T) {
	f := func(iw, k, ic, oc, rows, cols, pw, ph uint8) bool {
		l := Layer{
			IW: int(iw%40) + 8, IH: int(iw%40) + 8,
			KW: int(k%3) + 1, KH: int(k%3) + 1,
			IC: int(ic) + 1, OC: int(oc) + 1,
		}
		a := Array{Rows: int(rows)*4 + 16, Cols: int(cols)*4 + 16}
		w := Window{W: l.KW + int(pw)%6, H: l.KH + int(ph)%6}
		if w.W > l.IW || w.H > l.IH {
			return true
		}
		m, err := VW(l, a, w)
		if err != nil {
			return true
		}
		return m.ICt*w.Area() <= a.Rows && m.OCt*m.Nw() <= a.Cols &&
			m.ICt >= 1 && m.OCt >= 1 && m.ICt <= l.IC && m.OCt <= l.OC &&
			m.AR == ceilDiv(l.IC, m.ICt) && m.AC == ceilDiv(l.OC, m.OCt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeIm2col: "im2col",
		SchemeSMD:    "SMD",
		SchemeSDK:    "SDK",
		SchemeVWSDK:  "VW-SDK",
		Scheme(9):    "Scheme(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Scheme(%d).String = %q, want %q", int(s), got, want)
		}
	}
}

func TestTileString(t *testing.T) {
	l := Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256}
	m, err := VW(l, array512, Window{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TileString(); got != "4x3x42x256" {
		t.Fatalf("TileString = %q, want 4x3x42x256", got)
	}
}

func TestSpeedup(t *testing.T) {
	l := Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	im, _ := Im2col(l, array512)
	vw, err := VW(l, array512, Window{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	// 720 / 504 ≈ 1.4286
	if s := vw.Speedup(im); s < 1.42 || s > 1.44 {
		t.Fatalf("speedup = %v, want ≈1.43", s)
	}
	if (Mapping{}).Speedup(im) != 0 {
		t.Fatal("zero-cycle mapping should report 0 speedup")
	}
}

// TestConsistent holds Consistent to the cost model: every mapping a
// search or a constructor returns is consistent, and no mapping with one
// derived field changed, or with an invalid layer, array, window or
// scheme, is.
func TestConsistent(t *testing.T) {
	layers := append(resnet18Shapes(), vgg13Shapes()...)
	layers = append(layers,
		Layer{Name: "strided", IW: 27, IH: 23, KW: 5, KH: 3, IC: 6, OC: 10, StrideW: 2, StrideH: 3, PadW: 1, PadH: 2},
		Layer{Name: "grouped", IW: 14, IH: 14, KW: 3, KH: 3, IC: 32, OC: 64, Groups: 4},
		Layer{Name: "depthwise", IW: 9, IH: 9, KW: 3, KH: 3, IC: 16, OC: 16, Groups: 16})
	arrays := []Array{{1, 1}, {13, 9}, {80, 96}, {512, 512}}
	methods := []Method{{Scheme: SchemeIm2col}, {Scheme: SchemeSMD}, {Scheme: SchemeSDK}, MethodVWSDK,
		{Scheme: SchemeVWSDK, Variant: VariantSquareTiled}, {Scheme: SchemeVWSDK, Variant: VariantRectFullChannel}}
	var mappings []Mapping
	add := func(m Mapping, err error) {
		if err == nil {
			mappings = append(mappings, m)
		}
	}
	for _, l := range layers {
		n := l.Normalized()
		for _, a := range arrays {
			for _, method := range methods {
				r, err := Search(context.Background(), l, a, method)
				if err != nil {
					t.Fatal(err)
				}
				mappings = append(mappings, r.Best, r.Im2col)
			}
			for _, pw := range []Window{n.Kernel(), {W: n.KW + n.StrideW, H: n.KH + 1}, {W: n.PaddedW(), H: n.PaddedH()}} {
				add(SDK(l, a, pw))
				add(VW(l, a, pw))
			}
			for dup := 1; dup <= 3; dup++ {
				add(SMD(l, a, dup))
			}
		}
	}
	changes := []func(m *Mapping){
		func(m *Mapping) { m.NwW++ },
		func(m *Mapping) { m.NwH++ },
		func(m *Mapping) { m.ICt++ },
		func(m *Mapping) { m.OCt-- },
		func(m *Mapping) { m.RowGranular = !m.RowGranular },
		func(m *Mapping) { m.NPW++ },
		func(m *Mapping) { m.AR++ },
		func(m *Mapping) { m.AC++ },
		func(m *Mapping) { m.Cycles++ },
		func(m *Mapping) { m.Scheme = SchemeVWSDK + 1 },
		func(m *Mapping) { m.PW = Window{W: m.Layer.KW - 1, H: m.Layer.KH} },
		func(m *Mapping) { m.PW = Window{W: m.Layer.PaddedW(), H: m.Layer.PaddedH() + 1} },
		func(m *Mapping) { m.Layer.StrideW = 0 },
		func(m *Mapping) { m.Layer.OC = 0 },
		func(m *Mapping) { m.Array = Array{} },
	}
	for _, m := range mappings {
		if !m.Consistent() {
			t.Errorf("%s on %s: %v not consistent", m.Layer.Name, m.Array, m)
		}
		for i, change := range changes {
			c := m
			change(&c)
			if c.Consistent() {
				t.Errorf("%s on %s: %v with change %d consistent", m.Layer.Name, m.Array, m, i)
			}
		}
		if m.Scheme != SchemeSMD {
			c := m
			c.Dup++
			if c.Consistent() {
				t.Errorf("%s on %s: %v with Dup %d consistent", m.Layer.Name, m.Array, m, c.Dup)
			}
		}
	}
	if len(mappings) < 1000 {
		t.Errorf("only %d mappings", len(mappings))
	}
	if (&Mapping{}).Consistent() {
		t.Error("zero mapping consistent")
	}

	// SDK's own kernel window maps whole output channels, and SearchSDK's
	// im2col winner, labelled SDK, keeps im2col's column tiles: each is
	// consistent, and neither with the other's granularity.
	l := Layer{Name: "k", IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: 64}
	a := Array{Rows: 64, Cols: 8}
	own, err := SDK(l, a, l.Kernel())
	if err != nil {
		t.Fatal(err)
	}
	r, err := SearchSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	won := r.Best
	if !own.ColGranular || own.OCt != 64 || won.Scheme != SchemeSDK || won.PW != l.Kernel() || won.ColGranular || won.OCt != 8 {
		t.Fatalf("SDK kernel window %v, SearchSDK winner %v", own, won)
	}
	if !own.Consistent() || !won.Consistent() {
		t.Errorf("SDK kernel window consistent %v, SearchSDK winner %v", own.Consistent(), won.Consistent())
	}
	own.ColGranular, won.ColGranular = false, true
	if own.Consistent() || won.Consistent() {
		t.Error("a kernel-window SDK mapping with the other granularity consistent")
	}
}
