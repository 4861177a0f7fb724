package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/fanout"
)

// NetworkResult is the outcome of optimizing every layer of a network.
type NetworkResult struct {
	// Results holds one search result per layer, in input order.
	Results []Result

	// TotalCycles is the sum of the chosen mappings' cycles.
	TotalCycles int64

	// TotalIm2col is the sum of the im2col baselines' cycles.
	TotalIm2col int64
}

// Speedup returns the whole-network speedup over im2col.
func (n NetworkResult) Speedup() float64 {
	if n.TotalCycles == 0 {
		return 0
	}
	return float64(n.TotalIm2col) / float64(n.TotalCycles)
}

// SearchNetwork runs SearchVWSDK on every layer and aggregates the totals
// (see SearchNetworkWith). SearchNetworkContext is the same aggregation
// under a caller context.
func SearchNetwork(layers []Layer, a Array) (NetworkResult, error) {
	return SearchNetworkContext(context.Background(), layers, a)
}

// SearchNetworkContext optimizes every layer under ctx: each per-layer
// search runs its own cancellation checkpoints, so cancelling ctx stops the
// whole network search within one candidate row per in-flight layer.
func SearchNetworkContext(ctx context.Context, layers []Layer, a Array) (NetworkResult, error) {
	return SearchNetworkWith(ctx, layers, a, Serial{}, MethodVWSDK)
}

// SearchNetworkWith is SearchNetworkContext with a caller-chosen searcher
// and method: every layer runs s.Search(ctx, layer, a, m). internal/engine
// aggregates its memoized searches through it, so the two paths cannot
// diverge. Layers run through fanout.Each on at most GOMAXPROCS workers,
// inline when there is one worker or one layer. Results are returned in
// layer order and the first error in layer order wins; a layer not yet
// started when ctx ends is never started.
func SearchNetworkWith(ctx context.Context, layers []Layer, a Array, s Searcher, m Method) (NetworkResult, error) {
	if len(layers) == 0 {
		return NetworkResult{}, fmt.Errorf("core: SearchNetwork with no layers")
	}
	results := make([]Result, len(layers))
	errs := fanout.Each(ctx, len(layers), runtime.GOMAXPROCS(0), func(i int) (err error) {
		results[i], err = s.Search(ctx, layers[i], a, m)
		return err
	})
	var out NetworkResult
	for i := range layers {
		if errs[i] != nil {
			return NetworkResult{}, fmt.Errorf("core: layer %q: %w", layers[i].Name, errs[i])
		}
		out.Results = append(out.Results, results[i])
		out.TotalCycles += results[i].Best.Cycles
		out.TotalIm2col += results[i].Im2col.Cycles
	}
	return out, nil
}
