package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/fanout"
	"repro/internal/model"
)

// Cell identifies one (network, array, variant) combination of a batch
// sweep.
type Cell struct {
	Network model.Network
	Array   core.Array
	Variant core.Variant
}

// CellResult is the outcome of one sweep cell. Err is per-cell so a sweep
// that mixes feasible and infeasible combinations still reports every
// feasible one; after a cancellation, cells that were never dispatched carry
// the context's error.
type CellResult struct {
	Cell   Cell
	Result core.NetworkResult
	Err    error
}

// Speedup returns the cell's whole-network speedup over im2col (0 on error).
func (c CellResult) Speedup() float64 {
	if c.Err != nil {
		return 0
	}
	return c.Result.Speedup()
}

// Sweep optimizes every network on every array under every variant. An
// empty variants slice means the full VW-SDK search only. Results are
// returned in deterministic input order — networks outermost, variants
// innermost — and repeated layer shapes across cells are served from the
// engine's cache, so e.g. ResNet-18's four conv2..conv5 repeats and shapes
// shared between VGG variants are costed once per array.
//
// Cells run through fanout.Each on at most one worker per pool slot, inline
// on a single-worker engine; each cell's layers fan out again through
// SearchNetworkVariant. Once ctx ends no further cell is dispatched — such
// cells come back with Err set to ctx.Err() — and cells already running stop
// at their searches' next cancellation checkpoint. Sweep itself always
// returns the full, input-ordered slice.
func (e *Engine) Sweep(ctx context.Context, networks []model.Network, arrays []core.Array, variants []core.Variant) []CellResult {
	if len(variants) == 0 {
		variants = []core.Variant{core.VariantFull}
	}
	out := make([]CellResult, 0, len(networks)*len(arrays)*len(variants))
	for _, n := range networks {
		for _, a := range arrays {
			for _, v := range variants {
				out = append(out, CellResult{Cell: Cell{Network: n, Array: a, Variant: v}})
			}
		}
	}
	errs := fanout.Each(ctx, len(out), e.workers, func(i int) (err error) {
		if e.sweepCellHook != nil {
			e.sweepCellHook(i)
		}
		c := &out[i]
		c.Result, err = e.SearchNetworkVariant(ctx, c.Cell.Network.CoreLayers(), c.Cell.Array, c.Cell.Variant)
		return err
	})
	for i, err := range errs {
		out[i].Err = err
	}
	return out
}
