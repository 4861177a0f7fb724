package core

import (
	"context"
	"fmt"
)

// Method names one per-layer mapping search: the scheme the paper compares
// (im2col, SMD, SDK or VW-SDK) and, for VW-SDK, which Algorithm 1 ablation
// runs. Method is comparable, so it keys caches directly; a baseline scheme
// has no ablations, and Canonical folds its Variant away so that methods
// running the same search compare equal. The zero value is the im2col
// baseline; MethodVWSDK is Algorithm 1.
type Method struct {
	Scheme  Scheme
	Variant Variant
}

// MethodVWSDK is the paper's full VW-SDK search (Algorithm 1).
var MethodVWSDK = Method{Scheme: SchemeVWSDK, Variant: VariantFull}

// Canonical returns m with the Variant cleared to VariantFull unless m is a
// VW-SDK method: the variant selects an ablation of Algorithm 1 only, so an
// SDK method carrying VariantSquareTiled runs exactly the SDK search.
func (m Method) Canonical() Method {
	if m.Scheme != SchemeVWSDK {
		m.Variant = VariantFull
	}
	return m
}

// String names the method: the scheme, followed by the ablation variant for
// an ablated VW-SDK search ("VW-SDK square+tiled").
func (m Method) String() string {
	if m = m.Canonical(); m.Variant != VariantFull {
		return m.Scheme.String() + " " + m.Variant.String()
	}
	return m.Scheme.String()
}

// Search runs the per-layer search m names for layer l on array a under ctx:
// the im2col baseline (no search; Best is the im2col mapping), SMD's
// duplication factor, or the class walk of m's corner — SDK, Algorithm 1 or
// one of its two ablations. It is the one place a method selects its
// algorithm. Every search checks ctx at least once, and once per candidate
// row, and returns ctx.Err() once it observes a cancellation. An unknown
// method is an error.
func Search(ctx context.Context, l Layer, a Array, m Method) (Result, error) {
	l = l.Normalized()
	switch m.Canonical() {
	case Method{Scheme: SchemeIm2col}:
		return searchIm2col(ctx, l, a)
	case Method{Scheme: SchemeSMD}:
		return searchSMD(ctx, l, a)
	}
	c, ok := cornerOf(m)
	if !ok {
		return Result{}, unknownMethod(m)
	}
	return walk(ctx, l, a, c, nil)
}

// SearchExhaustive is Search's oracle: SDK, Algorithm 1 and its ablations
// run the brute force of their corner, candidate by candidate with no
// pruning, and return the same Best and Im2col as Search (differential and
// fuzz tests pin this). Evaluated keeps its legacy meaning there and equals
// Swept. im2col and SMD have no walk to check and run Search.
func SearchExhaustive(ctx context.Context, l Layer, a Array, m Method) (Result, error) {
	c, ok := cornerOf(m)
	if !ok {
		return Search(ctx, l, a, m)
	}
	return bruteForce(ctx, l.Normalized(), a, c)
}

// cornerOf maps a method to its corner of the ablation grid, and reports
// false for im2col, SMD and unknown methods, which have none.
func cornerOf(m Method) (corner, bool) {
	switch m.Canonical() {
	case Method{Scheme: SchemeSDK}:
		return corner{square: true, whole: true}, true
	case MethodVWSDK:
		return corner{}, true
	case Method{Scheme: SchemeVWSDK, Variant: VariantSquareTiled}:
		return corner{square: true}, true
	case Method{Scheme: SchemeVWSDK, Variant: VariantRectFullChannel}:
		return corner{whole: true}, true
	}
	return corner{}, false
}

func unknownMethod(m Method) error { return fmt.Errorf("core: unknown search method %v", m) }

// Searcher runs per-layer mapping searches. The serial reference (Serial),
// its brute-force oracle (Exhaustive) and the concurrent, memoizing engine
// (internal/engine) implement it, and the compile pipeline, the experiment
// generators and the CLIs accept one, so callers choose the execution
// strategy; every implementation returns results bit-identical to Search.
//
// Search is context-first: the search loops run cooperative cancellation
// checkpoints (once per candidate row), so a cancelled or expired context
// actually stops the work instead of letting it run to completion. Pass
// context.Background() when cancellation is not needed.
type Searcher interface {
	Search(ctx context.Context, l Layer, a Array, m Method) (Result, error)
}

// Serial is the Searcher backed directly by this package's single-threaded
// algorithms (Search); it holds no state and the zero value is ready to use.
type Serial struct{}

// Search runs Search serially.
func (Serial) Search(ctx context.Context, l Layer, a Array, m Method) (Result, error) {
	return Search(ctx, l, a, m)
}

// Exhaustive is the Searcher backed by the brute force (SearchExhaustive):
// the reference the class walk of SDK, Algorithm 1 and its ablations is
// differentially tested and benchmarked against.
// The zero value is ready to use.
type Exhaustive struct{}

// Search runs SearchExhaustive.
func (Exhaustive) Search(ctx context.Context, l Layer, a Array, m Method) (Result, error) {
	return SearchExhaustive(ctx, l, a, m)
}
