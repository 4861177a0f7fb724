package mapping

import (
	"context"
	"fmt"

	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/pimarray"
	"repro/internal/tensor"
)

// Execute runs the plan on a crossbar: every tile is programmed once and
// every position computed against it, performing exactly M.Cycles computing
// cycles. The returned OFM accumulates all array-row partial sums.
//
// The array must be at least as large as the plan's Array spec (tiles are
// sized against it). The IFM and weights must match the plan's layer.
func (p *Plan) Execute(arr *pimarray.Array, ifm *tensor.Tensor3, w *tensor.Tensor4) (*tensor.Tensor3, error) {
	l := p.M.Layer
	if err := conv.CheckShapes(l, ifm, w); err != nil {
		return nil, err
	}
	if arr.Rows() < p.M.Array.Rows || arr.Cols() < p.M.Array.Cols {
		return nil, fmt.Errorf("mapping: array %dx%d smaller than plan's %v",
			arr.Rows(), arr.Cols(), p.M.Array)
	}
	padded := ifm.Pad(l.PadH, l.PadW)
	out := tensor.NewTensor3(l.OC, l.OutH(), l.OutW())
	for _, t := range p.Tiles {
		if err := arr.Program(p.WeightTile(w, t)); err != nil {
			return nil, err
		}
		for _, pos := range p.Positions {
			res, err := arr.Compute(p.InputVector(padded, t, pos))
			if err != nil {
				return nil, err
			}
			p.Scatter(out, t, pos, res)
		}
	}
	return out, nil
}

// Run is the one-call convenience: it builds the plan for m, allocates a
// crossbar of m.Array's size (with any non-ideality options), executes, and
// returns the OFM together with the crossbar statistics.
func Run(m core.Mapping, ifm *tensor.Tensor3, w *tensor.Tensor4, opts ...pimarray.Option) (*tensor.Tensor3, pimarray.Stats, error) {
	p, err := NewPlan(m)
	if err != nil {
		return nil, pimarray.Stats{}, err
	}
	arr, err := pimarray.New(m.Array.Rows, m.Array.Cols, opts...)
	if err != nil {
		return nil, pimarray.Stats{}, err
	}
	out, err := p.Execute(arr, ifm, w)
	if err != nil {
		return nil, pimarray.Stats{}, err
	}
	return out, arr.Stats(), nil
}

// Verify executes mapping m on deterministic random integer inputs and
// compares the crossbar OFM bit-for-bit against the reference convolution.
// It returns nil when they match exactly, and a descriptive error otherwise.
// Grouped layers verify against the grouped reference on compact OC×ICg
// weights.
func Verify(m core.Mapping, seed uint64) error {
	l := m.Layer.Normalized()
	ifm := tensor.RandTensor3(seed, l.IC, l.IH, l.IW)
	w := tensor.RandTensor4(seed^0x9e3779b97f4a7c15, l.OC, l.ICg(), l.KH, l.KW)
	want, err := conv.Reference(l, ifm, w)
	if err != nil {
		return err
	}
	got, stats, err := Run(m, ifm, w)
	if err != nil {
		return err
	}
	if stats.Cycles != m.Cycles {
		return fmt.Errorf("mapping: %v executed %d cycles, analytic model says %d",
			m, stats.Cycles, m.Cycles)
	}
	if !got.Equal(want) {
		return fmt.Errorf("mapping: %v OFM mismatch (max |diff| = %g)",
			m, got.MaxAbsDiff(want))
	}
	return nil
}

// VerifyAllSchemes verifies layer l on array a under im2col, searched SMD,
// searched SDK and searched VW-SDK mappings, in that order, each the Best of
// core.Search under its method. It returns the first failure. Grouped layers
// verify the schemes with grouped physical layouts (im2col and VW-SDK); SMD
// duplication and SDK have dense-only layouts and are skipped.
func VerifyAllSchemes(l core.Layer, a core.Array, seed uint64) error {
	methods := []core.Method{{Scheme: core.SchemeIm2col}, {Scheme: core.SchemeSMD}, {Scheme: core.SchemeSDK}, core.MethodVWSDK}
	if l.NumGroups() > 1 {
		methods = []core.Method{{Scheme: core.SchemeIm2col}, core.MethodVWSDK}
	}
	for _, m := range methods {
		res, err := core.Search(context.Background(), l, a, m)
		if err != nil {
			return err
		}
		if err := Verify(res.Best, seed); err != nil {
			return fmt.Errorf("%v: %w", m, err)
		}
	}
	return nil
}
