package core

import (
	"context"
	"fmt"
)

// Result is the outcome of a mapping search: the chosen mapping, the im2col
// reference the paper normalizes speedups to, and search statistics.
type Result struct {
	// Best is the minimum-cycle mapping found.
	Best Mapping

	// Im2col is the im2col baseline for the same layer and array; the
	// paper's speedups are Best vs Im2col.
	Im2col Mapping

	// Evaluated is the number of distinct cost classes evaluated by the
	// search that produced this result (excluding the im2col seed). The
	// class walk of SDK, Algorithm 1 and its ablations evaluates one
	// representative per constant-cycle run of candidate widths, so
	// Evaluated ≤ Swept; with whole channels it also counts the one
	// filtered class that ends a row early, which that costing costs
	// before it filters, so on the square diagonal it counts every step.
	// The brute force reports every candidate it costs, so
	// Evaluated == Swept.
	Evaluated int

	// Swept is the number of candidate windows the brute force costs for
	// this (layer, array, search) — the legacy meaning of Evaluated. With
	// tiled channels (Algorithm 1, square-tiled) it costs only feasible
	// windows; with whole channels (SDK, rect-full-channel) it costs every
	// window of its lattice before the baseline rule filters it, so there
	// Swept counts infeasible windows too. The walk and the brute force
	// report the same Swept (computed analytically by the former), which
	// differential tests pin.
	Swept int
}

// SpeedupVsIm2col returns how many times faster Best is than im2col.
func (r Result) SpeedupVsIm2col() float64 { return r.Best.Speedup(r.Im2col) }

// checkpoint is the cooperative cancellation check the search loops run once
// per candidate row: it returns the context's error once the context is
// cancelled or past its deadline, and nil otherwise. Row granularity keeps
// the overhead to one atomic load per O(√Cols) costed classes while bounding
// the work after a cancel to a single row of candidates.
func checkpoint(ctx context.Context) error { return ctx.Err() }

// SearchVWSDK implements Algorithm 1 of the paper: it initializes the
// minimum computing cycles with the im2col mapping, then considers every
// parallel-window shape from the kernel size up to the padded IFM size —
// width in the inner loop, height in the outer loop, exactly as the paper's
// pseudocode increments PW_width first — costing candidates with eq. 8 and
// keeping the first strictly better one. Infeasible candidates (window
// larger than the rows can hold even one channel, or more windows than
// columns) are skipped.
//
// Every layer shape — dense, grouped, depthwise, strided — runs the
// closed-form class walk (search_closed.go), which evaluates each
// constant-cycle cost class arithmetically and pays at most one cost-model
// call to materialize the winner. It is bit-identical — including the
// first-strictly-better tie-break — to the brute-force sweep, which remains
// available as SearchVWSDKExhaustive for differential and fuzz testing.
//
// SearchVWSDK never cancels; SearchVWSDKContext is the same search under a
// caller context with cooperative cancellation checkpoints.
func SearchVWSDK(l Layer, a Array) (Result, error) {
	return Search(context.Background(), l, a, MethodVWSDK)
}

// SearchVWSDKContext is Algorithm 1 under ctx: the search loop checks for
// cancellation once per candidate row and returns ctx.Err() as soon as it
// observes it, so an abandoned request stops burning CPU mid-search.
func SearchVWSDKContext(ctx context.Context, l Layer, a Array) (Result, error) {
	return Search(ctx, l, a, MethodVWSDK)
}

// SearchVWSDKExhaustive is the brute-force Algorithm 1 sweep: every
// candidate window of the padded IFM is handed to the cost model —
// O(PaddedW × PaddedH) candidates per layer. It returns exactly the same
// Best and Im2col as SearchVWSDK (differential and fuzz tests pin this) and
// exists as the reference the closed-form search is validated against; use
// SearchVWSDK everywhere else.
func SearchVWSDKExhaustive(l Layer, a Array) (Result, error) {
	return SearchExhaustive(context.Background(), l, a, MethodVWSDK)
}

// searchIm2col is the im2col baseline as a search: no candidate is costed,
// and Best is the im2col mapping itself. l must be normalized.
func searchIm2col(ctx context.Context, l Layer, a Array) (Result, error) {
	if err := checkpoint(ctx); err != nil {
		return Result{}, err
	}
	m, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	return Result{Best: m, Im2col: m}, nil
}

// SearchSDK implements the existing SDK-based algorithm the paper compares
// against [Zhang TCAD'20] as the paper characterizes it: it considers only
// square parallel windows holding the entire input channels, duplicating
// kernels "in the unit of square number" (window K+d gives (d+1)² windows
// for stride 1).
//
// A candidate window is feasible only if the duplication does not increase
// the row or column cycle counts relative to im2col:
//
//	ceil(PW²·IC/Rows) ≤ ceil(K²·IC/Rows)  and  ceil(Nw·OC/Cols) ≤ ceil(OC/Cols)
//
// This is the rule (documented in DESIGN.md §2.3) under which the search
// reproduces every SDK entry of the paper's Table I — e.g. VGG-13 layers 2–3
// keep a 4×4 window at AR=2 while ResNet-18 layer 3 falls back to the kernel
// window, and 5×5 is rejected for VGG-13 layer 1 because 9·64 > 512 columns.
// When no larger window is feasible the result degenerates to im2col, which
// is how the paper explains SDK's flat speedup beyond VGG-13 layer 3.
//
// SDK is the square whole-channel corner of the ablation grid (DESIGN.md
// §5): it runs the same closed-form class walk as Algorithm 1 over the
// diagonal kernel + d·stride, with at most one cost-model call, and
// SearchExhaustive's brute force over the same corner is its oracle.
func SearchSDK(l Layer, a Array) (Result, error) {
	return Search(context.Background(), l, a, Method{Scheme: SchemeSDK})
}

// SearchSMD implements the sub-matrix duplication baseline [Peng ISCAS'19]:
// it chooses the largest duplication factor whose block-diagonal kernel
// copies fit the array; with no room to duplicate it degenerates to im2col
// tiling (dup = 1).
func SearchSMD(l Layer, a Array) (Result, error) {
	return Search(context.Background(), l, a, Method{Scheme: SchemeSMD})
}

// searchSMD is SearchSMD under ctx; l must be normalized. SMD costs a single
// candidate, so the context is checked once at entry.
func searchSMD(ctx context.Context, l Layer, a Array) (Result, error) {
	if err := checkpoint(ctx); err != nil {
		return Result{}, err
	}
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	dup := 1
	// The duplicated block is one group's kernel matrix (KernelRows × OCg);
	// on a dense layer ICg == IC, OCg == OC and this is the classic rule.
	if kr := l.KernelRows(); kr <= a.Rows && l.OCg() <= a.Cols {
		dup = min(a.Rows/kr, a.Cols/l.OCg())
		dup = min(dup, l.Windows())
	}
	m, err := SMD(l, a, dup)
	if err != nil {
		return Result{}, err
	}
	// Exactly one SMD mapping is costed regardless of the duplication factor
	// chosen; Evaluated consistently counts candidates costed, as in the
	// other searches.
	res.Evaluated = 1
	res.Swept = 1
	if m.Cycles < res.Best.Cycles || dup > 1 {
		res.Best = m
	} else {
		res.Best.Scheme = SchemeSMD
		res.Best.Dup = 1
	}
	return res, nil
}

// Variant selects an ablation of the VW-SDK search that disables one of the
// paper's two ideas, attributing the overall gain between them (DESIGN.md §5).
type Variant int

const (
	// VariantFull is the unrestricted VW-SDK search (Algorithm 1).
	VariantFull Variant = iota
	// VariantSquareTiled allows channel tiling but only square-shaped
	// parallel windows: isolates the benefit of rectangular shapes.
	VariantSquareTiled
	// VariantRectFullChannel allows rectangular windows but maps entire
	// channels with the SDK baseline's row/column granularity and
	// feasibility rule: isolates the benefit of channel tiling.
	VariantRectFullChannel
)

// String names the ablation variant.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "full"
	case VariantSquareTiled:
		return "square+tiled"
	case VariantRectFullChannel:
		return "rect+full-channels"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// SearchVariant runs the VW-SDK search restricted to the given ablation
// variant. Each variant is a corner of the ablation grid (DESIGN.md §5),
// so all three run the one closed-form class walk (search_closed.go) with
// at most one cost-model call; VariantFull is SearchVWSDK.
// SearchVariantExhaustive is the brute-force reference.
func SearchVariant(l Layer, a Array, v Variant) (Result, error) {
	return Search(context.Background(), l, a, Method{Scheme: SchemeVWSDK, Variant: v})
}

// SearchVariantExhaustive is the brute-force counterpart of SearchVariant:
// the one brute force over the variant's corner, candidate by candidate
// with no pruning, returning the same Best and Im2col (differential and
// fuzz tests pin this). Evaluated keeps its legacy meaning here — every
// candidate costed — and always equals Swept.
func SearchVariantExhaustive(l Layer, a Array, v Variant) (Result, error) {
	return SearchExhaustive(context.Background(), l, a, Method{Scheme: SchemeVWSDK, Variant: v})
}
