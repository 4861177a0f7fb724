package core

import "context"

// Searcher is the set of mapping searches shared by the serial reference
// implementation (Serial) and the concurrent, memoizing engine
// (internal/engine). Experiment generators, the compile pipeline and the
// CLIs accept a Searcher so callers choose the execution strategy; both
// implementations return bit-identical results.
//
// Every method is context-first: the search loops run cooperative
// cancellation checkpoints (once per candidate row), so a cancelled or
// expired context actually stops the work instead of letting it run to
// completion. Pass context.Background() when cancellation is not needed.
type Searcher interface {
	SearchVWSDK(ctx context.Context, l Layer, a Array) (Result, error)
	SearchSDK(ctx context.Context, l Layer, a Array) (Result, error)
	SearchSMD(ctx context.Context, l Layer, a Array) (Result, error)
	SearchVariant(ctx context.Context, l Layer, a Array, v Variant) (Result, error)
	SearchNetwork(ctx context.Context, layers []Layer, a Array) (NetworkResult, error)
}

// Serial is the Searcher backed directly by this package's single-threaded
// algorithms; it holds no state and the zero value is ready to use.
type Serial struct{}

// SearchVWSDK runs Algorithm 1 serially.
func (Serial) SearchVWSDK(ctx context.Context, l Layer, a Array) (Result, error) {
	return SearchVWSDKContext(ctx, l, a)
}

// SearchSDK runs the SDK baseline search serially.
func (Serial) SearchSDK(ctx context.Context, l Layer, a Array) (Result, error) {
	return SearchSDKContext(ctx, l, a)
}

// SearchSMD runs the SMD baseline search serially.
func (Serial) SearchSMD(ctx context.Context, l Layer, a Array) (Result, error) {
	return SearchSMDContext(ctx, l, a)
}

// SearchVariant runs an ablated search serially.
func (Serial) SearchVariant(ctx context.Context, l Layer, a Array, v Variant) (Result, error) {
	return SearchVariantContext(ctx, l, a, v)
}

// SearchNetwork optimizes every layer and sums the totals.
func (Serial) SearchNetwork(ctx context.Context, layers []Layer, a Array) (NetworkResult, error) {
	return SearchNetworkContext(ctx, layers, a)
}

// Exhaustive is the Searcher backed by the brute-force sweeps
// (SearchVWSDKExhaustive / SearchVariantExhaustive): the reference the
// default closed-form search (and the ablated variants' own walks) is
// differentially tested and benchmarked against. The baseline searches
// (SDK, SMD) have no default/exhaustive split and are shared with Serial.
// The zero value is ready to use.
type Exhaustive struct{}

// SearchVWSDK runs the brute-force Algorithm 1 sweep.
func (Exhaustive) SearchVWSDK(ctx context.Context, l Layer, a Array) (Result, error) {
	return searchVWSDKExhaustive(ctx, l.Normalized(), a)
}

// SearchSDK runs the SDK baseline search (no exhaustive split).
func (Exhaustive) SearchSDK(ctx context.Context, l Layer, a Array) (Result, error) {
	return SearchSDKContext(ctx, l, a)
}

// SearchSMD runs the SMD baseline search (no exhaustive split).
func (Exhaustive) SearchSMD(ctx context.Context, l Layer, a Array) (Result, error) {
	return SearchSMDContext(ctx, l, a)
}

// SearchVariant runs a brute-force ablated sweep.
func (Exhaustive) SearchVariant(ctx context.Context, l Layer, a Array, v Variant) (Result, error) {
	return searchVariantExhaustive(ctx, l.Normalized(), a, v)
}

// SearchNetwork optimizes every layer with the brute-force sweep and sums
// the totals.
func (Exhaustive) SearchNetwork(ctx context.Context, layers []Layer, a Array) (NetworkResult, error) {
	return SearchNetworkWith(ctx, layers, a, func(ctx context.Context, l Layer, a Array) (Result, error) {
		return searchVWSDKExhaustive(ctx, l.Normalized(), a)
	})
}
