package core

import (
	"errors"
	"fmt"
)

// Layer describes a single convolutional layer in the geometry the paper
// uses: an IW×IH input feature map (IFM) with IC channels convolved with OC
// kernels of size KW×KH×IC. Stride and padding default to 1 and 0 when zero;
// the paper itself models every layer as a stride-1 "valid" convolution
// (eq. 3 has no stride or padding term), which Normalized preserves.
type Layer struct {
	// Name identifies the layer in reports, e.g. "conv3_1".
	Name string

	// IW and IH are the input feature map width and height before padding.
	IW, IH int

	// KW and KH are the kernel width and height.
	KW, KH int

	// IC and OC are the input and output channel counts.
	IC, OC int

	// StrideW and StrideH are the convolution strides; zero means 1.
	StrideW, StrideH int

	// PadW and PadH are the symmetric zero paddings; negative is invalid.
	PadW, PadH int

	// Groups is the grouped-convolution group count: the input and output
	// channels are split into Groups independent blocks, kernel g seeing
	// only input block g (depthwise convolution is Groups == IC). Zero or
	// one means a dense convolution; IC and OC must both be divisible by
	// Groups. The zero value is left as-is (not normalized to 1) so dense
	// layers serialize without the field.
	Groups int `json:"Groups,omitempty"`
}

// Normalized returns a copy of l with zero strides replaced by 1.
func (l Layer) Normalized() Layer {
	if l.StrideW == 0 {
		l.StrideW = 1
	}
	if l.StrideH == 0 {
		l.StrideH = 1
	}
	return l
}

// strides returns the layer's strides with zero read as 1, the values
// Normalized would set, without copying the layer.
func (l *Layer) strides() (w, h int) {
	w, h = l.StrideW, l.StrideH
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	return w, h
}

// Validate reports whether the layer geometry is well formed: positive
// dimensions, kernel no larger than the padded IFM, and non-negative padding.
func (l *Layer) Validate() error {
	sw, sh := l.strides()
	switch {
	case l.IW <= 0 || l.IH <= 0:
		return fmt.Errorf("core: layer %q: non-positive IFM %dx%d", l.Name, l.IW, l.IH)
	case l.KW <= 0 || l.KH <= 0:
		return fmt.Errorf("core: layer %q: non-positive kernel %dx%d", l.Name, l.KW, l.KH)
	case l.IC <= 0 || l.OC <= 0:
		return fmt.Errorf("core: layer %q: non-positive channels IC=%d OC=%d", l.Name, l.IC, l.OC)
	case sw <= 0 || sh <= 0:
		return fmt.Errorf("core: layer %q: non-positive stride %dx%d", l.Name, sw, sh)
	case l.PadW < 0 || l.PadH < 0:
		return fmt.Errorf("core: layer %q: negative padding %dx%d", l.Name, l.PadW, l.PadH)
	case l.KW > l.PaddedW() || l.KH > l.PaddedH():
		return fmt.Errorf("core: layer %q: kernel %dx%d exceeds padded IFM %dx%d",
			l.Name, l.KW, l.KH, l.PaddedW(), l.PaddedH())
	case l.Groups < 0:
		return fmt.Errorf("core: layer %q: negative groups %d", l.Name, l.Groups)
	case l.Groups > 1 && l.IC%l.Groups != 0:
		return fmt.Errorf("core: layer %q: input channels %d not divisible by groups %d",
			l.Name, l.IC, l.Groups)
	case l.Groups > 1 && l.OC%l.Groups != 0:
		return fmt.Errorf("core: layer %q: output channels %d not divisible by groups %d",
			l.Name, l.OC, l.Groups)
	}
	return nil
}

// NumGroups returns the effective group count: Groups, with zero (the dense
// default) and one both meaning a single dense group.
func (l *Layer) NumGroups() int {
	if l.Groups < 2 {
		return 1
	}
	return l.Groups
}

// ICg returns the input channels per group, IC / NumGroups (eq. 8's grouped
// per-group cap; for depthwise layers ICg == 1).
func (l *Layer) ICg() int { return l.IC / l.NumGroups() }

// OCg returns the output channels per group, OC / NumGroups.
func (l *Layer) OCg() int { return l.OC / l.NumGroups() }

// PaddedW returns the IFM width after padding.
func (l *Layer) PaddedW() int { return l.IW + 2*l.PadW }

// PaddedH returns the IFM height after padding.
func (l *Layer) PaddedH() int { return l.IH + 2*l.PadH }

// OutW returns the output feature map width.
func (l *Layer) OutW() int {
	sw, _ := l.strides()
	return (l.PaddedW()-l.KW)/sw + 1
}

// OutH returns the output feature map height.
func (l *Layer) OutH() int {
	_, sh := l.strides()
	return (l.PaddedH()-l.KH)/sh + 1
}

// Windows returns the number of kernel-sized windows in the IFM, which equals
// the number of output positions per channel (OutW × OutH).
func (l *Layer) Windows() int { return l.OutW() * l.OutH() }

// KernelRows returns the number of array rows one fully unrolled kernel
// occupies: KW × KH × ICg. A grouped kernel sees only its group's ICg input
// channels; for a dense layer ICg == IC and this is the classic KW·KH·IC.
func (l *Layer) KernelRows() int { return l.KW * l.KH * l.ICg() }

// Kernel returns the kernel extent as a Window.
func (l *Layer) Kernel() Window { return Window{W: l.KW, H: l.KH} }

// MACs returns the number of multiply-accumulate operations of the layer.
func (l *Layer) MACs() int64 {
	return int64(l.Windows()) * int64(l.KernelRows()) * int64(l.OC)
}

// String returns a compact description such as
// "conv1 3x3x64x128 @112x112 s1 p0"; grouped layers append "g<Groups>".
func (l Layer) String() string {
	n := l.Normalized()
	s := fmt.Sprintf("%s %dx%dx%dx%d @%dx%d s%d p%d",
		l.Name, n.KW, n.KH, n.IC, n.OC, n.IW, n.IH, n.StrideW, n.PadW)
	if n.NumGroups() > 1 {
		s += fmt.Sprintf(" g%d", n.NumGroups())
	}
	return s
}

// Array describes a PIM crossbar array as Rows×Cols memory cells. Rows is the
// paper's 2^X (input/DAC ports) and Cols the paper's 2^Y (output/ADC ports).
type Array struct {
	Rows, Cols int
}

// MaxArrayDim bounds an array's rows and columns. With compile.MaxArrays it
// keeps an array's cells, a chip's area and a layer's programs and makespan
// inside int64; the largest array this repository evaluates has 2048 rows.
const MaxArrayDim = 1 << 16

// Validate reports whether the array has positive dimensions of at most
// MaxArrayDim.
func (a Array) Validate() error {
	switch {
	case a.Rows <= 0 || a.Cols <= 0:
		return fmt.Errorf("core: invalid array %dx%d", a.Rows, a.Cols)
	case a.Rows > MaxArrayDim || a.Cols > MaxArrayDim:
		return fmt.Errorf("core: array %dx%d exceeds the limit of %d rows and columns", a.Rows, a.Cols, MaxArrayDim)
	}
	return nil
}

// Cells returns the total number of memory cells in the array.
func (a Array) Cells() int64 { return int64(a.Rows) * int64(a.Cols) }

// String returns "RowsxCols", e.g. "512x512".
func (a Array) String() string { return fmt.Sprintf("%dx%d", a.Rows, a.Cols) }

// Window is a parallel-window shape in IFM coordinates. For im2col the
// window equals the kernel; for SDK it is square; VW-SDK allows any
// rectangle between the kernel and the IFM.
type Window struct {
	W, H int
}

// Area returns W×H, the number of IFM positions (per channel) the window
// spans, i.e. the array rows consumed per mapped input channel.
func (w Window) Area() int { return w.W * w.H }

// String returns "WxH", e.g. "4x3".
func (w Window) String() string { return fmt.Sprintf("%dx%d", w.W, w.H) }

// ErrInfeasible is returned (wrapped) by cost constructors when a candidate
// window cannot be mapped to the array at all, e.g. when not even a single
// input channel of the window fits the array rows.
var ErrInfeasible = errors.New("core: infeasible mapping")

// windowsInside returns how many kernel placements fit inside a parallel
// window of the given extent along one axis: floor((pw-k)/stride) + 1.
func windowsInside(pw, k, stride int) int {
	if pw < k {
		return 0
	}
	return (pw-k)/stride + 1
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}

// ceilDiv64 returns ceil(a/b) for positive b on 64-bit values.
func ceilDiv64(a, b int64) int64 {
	return (a + b - 1) / b
}
