package core

import (
	"errors"
	"fmt"
	"math/bits"
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

// The layer limits. A padded IFM side is then below 1<<18, so every
// product of dimensions and channels the searches and tile walks form fits
// in 56 bits, and a layer's cycles, tiles and makespan are at most its
// MACs. With an array of at most MaxArrayDim rows and columns, a layer's
// conversion counts and cell writes are at most 1<<16+1 times its MACs, so
// MaxMACs, which also bounds a network's sum (model.Network.Validate),
// keeps every plan total under the default energy model below 1<<61. The
// largest layer this repository compiles has 1024×1024 inputs and about
// 1<<32 MACs.
const (
	// MaxLayerDim bounds a layer's IFM, kernel, stride and padding, each
	// side separately.
	MaxLayerDim = 1 << 16
	// MaxChannels bounds a layer's input and output channels.
	MaxChannels = 1 << 20
	// MaxMACs bounds a layer's multiply-accumulate count.
	MaxMACs int64 = 1 << 44
)

// Validate reports whether the layer geometry is well formed: positive
// dimensions within the limits above, kernel no larger than the padded
// IFM, non-negative padding, and at most MaxMACs MACs.
func (l *Layer) Validate() error {
	_, err := l.Check()
	return err
}

// Check validates the layer like Validate and returns its MAC count, for a
// caller that bounds a sum of them (model.Network.Validate).
func (l *Layer) Check() (macs int64, err error) {
	if err := l.checkDims(); err != nil {
		return 0, err
	}
	// Within the limits, windows times OC is below 1<<56, and the product
	// with the kernel rows is formed in 128 bits: it cannot wrap.
	hi, lo := bits.Mul64(uint64(l.Windows())*uint64(l.OC), uint64(l.KernelRows()))
	if hi != 0 || lo > uint64(MaxMACs) {
		return 0, fmt.Errorf("core: layer %q: MAC count exceeds the limit of %d", l.Name, MaxMACs)
	}
	return int64(lo), nil
}

// checkDims is Check without the MAC count.
func (l *Layer) checkDims() error {
	sw, sh := l.strides()
	switch {
	case l.IW <= 0 || l.IH <= 0:
		return fmt.Errorf("core: layer %q: non-positive IFM %dx%d", l.Name, l.IW, l.IH)
	case l.IW > MaxLayerDim || l.IH > MaxLayerDim:
		return fmt.Errorf("core: layer %q: IFM %dx%d exceeds the limit of %d", l.Name, l.IW, l.IH, MaxLayerDim)
	case l.KW <= 0 || l.KH <= 0:
		return fmt.Errorf("core: layer %q: non-positive kernel %dx%d", l.Name, l.KW, l.KH)
	case l.KW > MaxLayerDim || l.KH > MaxLayerDim:
		return fmt.Errorf("core: layer %q: kernel %dx%d exceeds the limit of %d", l.Name, l.KW, l.KH, MaxLayerDim)
	case l.IC <= 0 || l.OC <= 0:
		return fmt.Errorf("core: layer %q: non-positive channels IC=%d OC=%d", l.Name, l.IC, l.OC)
	case l.IC > MaxChannels || l.OC > MaxChannels:
		return fmt.Errorf("core: layer %q: channels IC=%d OC=%d exceed the limit of %d", l.Name, l.IC, l.OC, MaxChannels)
	case sw <= 0 || sh <= 0:
		return fmt.Errorf("core: layer %q: non-positive stride %dx%d", l.Name, sw, sh)
	case sw > MaxLayerDim || sh > MaxLayerDim:
		return fmt.Errorf("core: layer %q: stride %dx%d exceeds the limit of %d", l.Name, sw, sh, MaxLayerDim)
	case l.PadW < 0 || l.PadH < 0:
		return fmt.Errorf("core: layer %q: negative padding %dx%d", l.Name, l.PadW, l.PadH)
	case l.PadW > MaxLayerDim || l.PadH > MaxLayerDim:
		return fmt.Errorf("core: layer %q: padding %dx%d exceeds the limit of %d", l.Name, l.PadW, l.PadH, MaxLayerDim)
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
// per-group cap; for depthwise layers ICg == 1). Here and in OutW and OutH
// the common case, a dense layer or a unit stride, skips the division:
// every request validates its layers' MACs, warm hits included.
func (l *Layer) ICg() int {
	if l.Groups < 2 {
		return l.IC
	}
	return l.IC / l.Groups
}

// OCg returns the output channels per group, OC / NumGroups.
func (l *Layer) OCg() int { return l.OC / l.NumGroups() }

// PaddedW returns the IFM width after padding.
func (l *Layer) PaddedW() int { return l.IW + 2*l.PadW }

// PaddedH returns the IFM height after padding.
func (l *Layer) PaddedH() int { return l.IH + 2*l.PadH }

// OutW returns the output feature map width.
func (l *Layer) OutW() int {
	sw, _ := l.strides()
	if sw == 1 {
		return l.PaddedW() - l.KW + 1
	}
	return (l.PaddedW()-l.KW)/sw + 1
}

// OutH returns the output feature map height.
func (l *Layer) OutH() int {
	_, sh := l.strides()
	if sh == 1 {
		return l.PaddedH() - l.KH + 1
	}
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
