package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLayerNormalized(t *testing.T) {
	l := Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 1, OC: 1}
	n := l.Normalized()
	if n.StrideW != 1 || n.StrideH != 1 {
		t.Fatalf("Normalized strides = %d,%d, want 1,1", n.StrideW, n.StrideH)
	}
	l.StrideW, l.StrideH = 2, 3
	n = l.Normalized()
	if n.StrideW != 2 || n.StrideH != 3 {
		t.Fatalf("Normalized clobbered strides: %d,%d", n.StrideW, n.StrideH)
	}
}

func TestLayerValidate(t *testing.T) {
	valid := Layer{Name: "ok", IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: 4}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid layer rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Layer)
	}{
		{"zero IW", func(l *Layer) { l.IW = 0 }},
		{"negative IH", func(l *Layer) { l.IH = -1 }},
		{"zero kernel", func(l *Layer) { l.KW = 0 }},
		{"zero IC", func(l *Layer) { l.IC = 0 }},
		{"zero OC", func(l *Layer) { l.OC = 0 }},
		{"negative stride", func(l *Layer) { l.StrideW = -1 }},
		{"negative pad", func(l *Layer) { l.PadW = -1 }},
		{"kernel too big", func(l *Layer) { l.KW = 9 }},
		{"negative groups", func(l *Layer) { l.Groups = -1 }},
		{"IC not divisible by groups", func(l *Layer) { l.Groups = 3 }},
		{"OC not divisible by groups", func(l *Layer) { l.IC, l.OC, l.Groups = 6, 4, 3 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			l := valid
			tt.mut(&l)
			if err := l.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", l)
			}
		})
	}
}

func TestLayerKernelTooBigForPaddedIFM(t *testing.T) {
	// 5x5 kernel on a 4x4 IFM is invalid without padding but valid with
	// padding 1 (padded 6x6).
	l := Layer{IW: 4, IH: 4, KW: 5, KH: 5, IC: 1, OC: 1}
	if err := l.Validate(); err == nil {
		t.Fatal("kernel larger than IFM accepted")
	}
	l.PadW, l.PadH = 1, 1
	if err := l.Validate(); err != nil {
		t.Fatalf("padded layer rejected: %v", err)
	}
	if got := l.OutW(); got != 2 {
		t.Fatalf("OutW = %d, want 2", got)
	}
}

func TestLayerOutputDims(t *testing.T) {
	tests := []struct {
		name            string
		l               Layer
		outW, outH      int
		windows         int
		kernelRows      int
		paddedW, padded int
	}{
		{
			name: "vgg13 conv1",
			l:    Layer{IW: 224, IH: 224, KW: 3, KH: 3, IC: 3, OC: 64},
			outW: 222, outH: 222, windows: 49284, kernelRows: 27,
			paddedW: 224, padded: 224,
		},
		{
			name: "resnet conv1 7x7",
			l:    Layer{IW: 112, IH: 112, KW: 7, KH: 7, IC: 3, OC: 64},
			outW: 106, outH: 106, windows: 11236, kernelRows: 147,
			paddedW: 112, padded: 112,
		},
		{
			name: "strided",
			l:    Layer{IW: 16, IH: 16, KW: 3, KH: 3, IC: 2, OC: 2, StrideW: 2, StrideH: 2},
			outW: 7, outH: 7, windows: 49, kernelRows: 18,
			paddedW: 16, padded: 16,
		},
		{
			name: "padded same conv",
			l:    Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 8, OC: 8, PadW: 1, PadH: 1},
			outW: 14, outH: 14, windows: 196, kernelRows: 72,
			paddedW: 16, padded: 16,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.l.OutW(); got != tt.outW {
				t.Errorf("OutW = %d, want %d", got, tt.outW)
			}
			if got := tt.l.OutH(); got != tt.outH {
				t.Errorf("OutH = %d, want %d", got, tt.outH)
			}
			if got := tt.l.Windows(); got != tt.windows {
				t.Errorf("Windows = %d, want %d", got, tt.windows)
			}
			if got := tt.l.KernelRows(); got != tt.kernelRows {
				t.Errorf("KernelRows = %d, want %d", got, tt.kernelRows)
			}
			if got := tt.l.PaddedW(); got != tt.paddedW {
				t.Errorf("PaddedW = %d, want %d", got, tt.paddedW)
			}
		})
	}
}

func TestLayerGrouped(t *testing.T) {
	// Dense layers (Groups 0 or 1) report one group covering all channels.
	dense := Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 12, OC: 8}
	for _, g := range []int{0, 1} {
		dense.Groups = g
		if dense.NumGroups() != 1 || dense.ICg() != 12 || dense.OCg() != 8 {
			t.Fatalf("dense Groups=%d: NumGroups=%d ICg=%d OCg=%d", g,
				dense.NumGroups(), dense.ICg(), dense.OCg())
		}
	}
	if dense.KernelRows() != 3*3*12 {
		t.Fatalf("dense KernelRows = %d, want 108", dense.KernelRows())
	}

	// Grouped: per-group channel slices and per-kernel rows.
	g4 := Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 12, OC: 8, Groups: 4}
	if err := g4.Validate(); err != nil {
		t.Fatalf("grouped layer rejected: %v", err)
	}
	if g4.NumGroups() != 4 || g4.ICg() != 3 || g4.OCg() != 2 {
		t.Fatalf("g4: NumGroups=%d ICg=%d OCg=%d", g4.NumGroups(), g4.ICg(), g4.OCg())
	}
	if g4.KernelRows() != 3*3*3 {
		t.Fatalf("g4 KernelRows = %d, want 27", g4.KernelRows())
	}
	// MACs count only within-group connections: Windows * KW*KH*ICg * OC.
	if got, want := g4.MACs(), int64(g4.Windows())*int64(3*3*3)*int64(g4.OC); got != want {
		t.Fatalf("g4 MACs = %d, want %d", got, want)
	}
	if s := g4.String(); !strings.Contains(s, "g4") {
		t.Errorf("grouped Layer.String = %q, want g4 marker", s)
	}

	// Depthwise edge case: G == IC, one input channel per group.
	dw := Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 7, OC: 7, Groups: 7}
	if err := dw.Validate(); err != nil {
		t.Fatalf("depthwise layer rejected: %v", err)
	}
	if dw.ICg() != 1 || dw.OCg() != 1 || dw.KernelRows() != 9 {
		t.Fatalf("depthwise: ICg=%d OCg=%d KernelRows=%d", dw.ICg(), dw.OCg(), dw.KernelRows())
	}
}

func TestLayerMACs(t *testing.T) {
	l := Layer{IW: 6, IH: 5, KW: 3, KH: 3, IC: 2, OC: 4}
	// windows = 4*3 = 12; kernelRows = 18; MACs = 12*18*4 = 864.
	if got := l.MACs(); got != 864 {
		t.Fatalf("MACs = %d, want 864", got)
	}
}

func TestArrayValidate(t *testing.T) {
	if err := (Array{Rows: 512, Cols: 512}).Validate(); err != nil {
		t.Fatalf("valid array rejected: %v", err)
	}
	for _, a := range []Array{{0, 512}, {512, 0}, {-1, -1}} {
		if err := a.Validate(); err == nil {
			t.Fatalf("invalid array %v accepted", a)
		}
	}
	// Above MaxArrayDim, Cells and every total derived from it could wrap.
	if err := (Array{Rows: MaxArrayDim, Cols: MaxArrayDim}).Validate(); err != nil {
		t.Fatalf("array at the limit rejected: %v", err)
	}
	for _, a := range []Array{{MaxArrayDim + 1, 512}, {512, 1 << 30}} {
		err := a.Validate()
		if err == nil || !strings.Contains(err.Error(), a.String()) || !strings.Contains(err.Error(), "65536") {
			t.Errorf("array %v: err = %v, want one naming the array and the limit", a, err)
		}
	}
	if got := (Array{Rows: 512, Cols: 256}).Cells(); got != 131072 {
		t.Fatalf("Cells = %d, want 131072", got)
	}
}

func TestStringFormats(t *testing.T) {
	l := Layer{Name: "conv5", IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256}
	if s := l.String(); !strings.Contains(s, "3x3x128x256") || !strings.Contains(s, "56x56") {
		t.Errorf("Layer.String = %q", s)
	}
	if s := (Array{512, 256}).String(); s != "512x256" {
		t.Errorf("Array.String = %q", s)
	}
	if s := (Window{4, 3}).String(); s != "4x3" {
		t.Errorf("Window.String = %q", s)
	}
	if (Window{4, 3}).Area() != 12 {
		t.Error("Window.Area wrong")
	}
}

func TestWindowsInside(t *testing.T) {
	tests := []struct {
		pw, k, stride, want int
	}{
		{3, 3, 1, 1},
		{4, 3, 1, 2},
		{10, 7, 1, 4},
		{2, 3, 1, 0},
		{7, 3, 2, 3},
		{8, 3, 2, 3},
		{9, 3, 2, 4},
	}
	for _, tt := range tests {
		if got := windowsInside(tt.pw, tt.k, tt.stride); got != tt.want {
			t.Errorf("windowsInside(%d,%d,%d) = %d, want %d",
				tt.pw, tt.k, tt.stride, got, tt.want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	if ceilDiv(7, 3) != 3 || ceilDiv(6, 3) != 2 || ceilDiv(1, 512) != 1 {
		t.Fatal("ceilDiv wrong")
	}
	if ceilDiv64(int64(1<<40)+1, 1<<40) != 2 {
		t.Fatal("ceilDiv64 wrong")
	}
}

// Property: output dims and window counts are always positive for valid
// layers, and Windows == OutW*OutH.
func TestLayerGeometryProperties(t *testing.T) {
	f := func(iw, ih, k, ic, oc uint8) bool {
		l := Layer{
			IW: int(iw%60) + 3, IH: int(ih%60) + 3,
			KW: int(k%3) + 1, KH: int(k%3) + 1,
			IC: int(ic%16) + 1, OC: int(oc%16) + 1,
		}
		if l.Validate() != nil {
			return true
		}
		return l.OutW() > 0 && l.OutH() > 0 &&
			l.Windows() == l.OutW()*l.OutH() &&
			l.KernelRows() == l.KW*l.KH*l.IC
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
