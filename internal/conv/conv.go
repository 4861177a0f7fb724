// Package conv is the convolution substrate: a direct reference convolution
// (the golden model every PIM mapping is verified against), the
// block-diagonal expansion of grouped weights, and the channel-major row
// order in which the paper's Fig. 2(a) unrolls kernels into crossbar
// columns. The unrolling itself is the mapping package's im2col layout,
// which the crossbar simulator runs and checks against Reference.
package conv

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tensor"
)

// CheckShapes validates that ifm and w match the layer description l. For a
// grouped layer the weight tensor is the compact grouped form: O = OC full
// output channels, but only C = ICg = IC/Groups input channels per kernel
// (kernel oc sees input block oc/OCg only); for a dense layer ICg == IC.
func CheckShapes(l core.Layer, ifm *tensor.Tensor3, w *tensor.Tensor4) error {
	l = l.Normalized()
	if err := l.Validate(); err != nil {
		return err
	}
	if ifm.C != l.IC || ifm.H != l.IH || ifm.W != l.IW {
		return fmt.Errorf("conv: IFM %v does not match layer %v", ifm, l)
	}
	if w.O != l.OC || w.C != l.ICg() || w.H != l.KH || w.W != l.KW {
		return fmt.Errorf("conv: weights %v do not match layer %v", w, l)
	}
	return nil
}

// Reference computes the layer's convolution directly (no lowering): the
// golden model. The returned OFM has shape OC×OutH×OutW. Grouped layers sum
// each output channel over its group's ICg input channels only.
func Reference(l core.Layer, ifm *tensor.Tensor3, w *tensor.Tensor4) (*tensor.Tensor3, error) {
	l = l.Normalized()
	if err := CheckShapes(l, ifm, w); err != nil {
		return nil, err
	}
	padded := ifm.Pad(l.PadH, l.PadW)
	out := tensor.NewTensor3(l.OC, l.OutH(), l.OutW())
	icg, ocg := l.ICg(), l.OCg()
	for oc := 0; oc < l.OC; oc++ {
		cBase := (oc / ocg) * icg // first input channel of oc's group
		for oy := 0; oy < l.OutH(); oy++ {
			for ox := 0; ox < l.OutW(); ox++ {
				var sum float64
				for ci := 0; ci < icg; ci++ {
					for ky := 0; ky < l.KH; ky++ {
						iy := oy*l.StrideH + ky
						for kx := 0; kx < l.KW; kx++ {
							ix := ox*l.StrideW + kx
							sum += padded.At(cBase+ci, iy, ix) * w.At(oc, ci, ky, kx)
						}
					}
				}
				out.Set(oc, oy, ox, sum)
			}
		}
	}
	return out, nil
}

// ExpandGrouped turns a grouped layer's compact weights (OC×ICg×KH×KW) into
// the block-diagonal dense equivalent (OC×IC×KH×KW): kernel oc keeps its
// values on its group's input channels and is zero elsewhere. Running the
// dense Reference on the expanded weights reproduces the grouped convolution
// exactly, which the differential tests pin.
func ExpandGrouped(l core.Layer, w *tensor.Tensor4) (*tensor.Tensor4, error) {
	l = l.Normalized()
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if w.O != l.OC || w.C != l.ICg() || w.H != l.KH || w.W != l.KW {
		return nil, fmt.Errorf("conv: weights %v do not match layer %v", w, l)
	}
	icg, ocg := l.ICg(), l.OCg()
	dense := tensor.NewTensor4(l.OC, l.IC, l.KH, l.KW)
	for oc := 0; oc < l.OC; oc++ {
		cBase := (oc / ocg) * icg
		for ci := 0; ci < icg; ci++ {
			for ky := 0; ky < l.KH; ky++ {
				for kx := 0; kx < l.KW; kx++ {
					dense.Set(oc, cBase+ci, ky, kx, w.At(oc, ci, ky, kx))
				}
			}
		}
	}
	return dense, nil
}

// DenseEquivalent returns l with grouping removed: the dense layer that,
// given ExpandGrouped weights, computes the same OFM as the grouped layer.
func DenseEquivalent(l core.Layer) core.Layer {
	l.Groups = 0
	return l
}

// RowCoord maps an im2col row index r (0 ≤ r < KernelRows) to its (channel,
// kernel-y, kernel-x) coordinates in the canonical channel-major order.
func RowCoord(l core.Layer, r int) (c, ky, kx int) {
	kk := l.KH * l.KW
	c = r / kk
	rem := r % kk
	return c, rem / l.KW, rem % l.KW
}
