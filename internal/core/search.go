package core

import (
	"context"
	"errors"
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
	// default searches evaluate one representative per constant-cycle run
	// of candidate widths, so Evaluated ≤ Swept; the exhaustive sweeps
	// report every candidate they cost, so Evaluated == Swept.
	Evaluated int

	// Swept is the number of candidate windows the exhaustive sweep costs
	// for this (layer, array, search) — the legacy meaning of Evaluated.
	// The VW-SDK and square-tiled sweeps cost only feasible windows; the
	// SDK and rect-full-channel sweeps cost every enumerated window before
	// the baseline rule filters it, so there Swept counts infeasible windows
	// too. Default and exhaustive searches report the same Swept (computed
	// analytically by the former), which differential tests pin.
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
// closed-form argmin search (search_closed.go), which evaluates each
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

// searchVWSDKExhaustive is the brute-force sweep under ctx; l must be
// normalized. Cancellation is checked once per candidate row.
func searchVWSDKExhaustive(ctx context.Context, l Layer, a Array) (Result, error) {
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	for h := l.KH; h <= l.PaddedH(); h++ {
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		for w := l.KW; w <= l.PaddedW(); w++ {
			if w == l.KW && h == l.KH {
				continue // the im2col seed covers the kernel-sized window
			}
			// l is normalized and validated (Im2col above) and the loop
			// bounds keep every candidate inside [kernel, padded IFM], so
			// the sweep-tuned costing applies.
			m, err := SweepVW(l, a, Window{W: w, H: h})
			if err != nil {
				if errors.Is(err, ErrInfeasible) {
					continue
				}
				return Result{}, err
			}
			res.Evaluated++
			if m.Cycles < res.Best.Cycles {
				res.Best = m
			}
		}
	}
	res.Swept = res.Evaluated
	return res, nil
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
func SearchSDK(l Layer, a Array) (Result, error) {
	return Search(context.Background(), l, a, Method{Scheme: SchemeSDK})
}

// searchSDK is SearchSDK under ctx, checking for cancellation once per
// candidate window; l must be normalized.
func searchSDK(ctx context.Context, l Layer, a Array) (Result, error) {
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	// Square windows require a square kernel extent to stay square in
	// window units; for rectangular kernels the baseline grows both sides
	// equally from the kernel, matching "shift and duplicate" in both axes.
	// (An earlier version also broke when max(pw.W, pw.H) exceeded
	// min(PaddedW, PaddedH); for square kernels with equal strides — where
	// pw stays square — and for square IFMs that check is implied by the
	// two bounds below, see TestSearchSDKBoundsGuard. On rectangular IFMs
	// with rectangular kernels it wrongly truncated the sweep before the
	// window reached the padded IFM, discarding valid candidates.)
	for d := 1; ; d++ {
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		pw := Window{W: l.KW + d*l.StrideW, H: l.KH + d*l.StrideH}
		if pw.W > l.PaddedW() || pw.H > l.PaddedH() {
			break
		}
		m, err := SDK(l, a, pw)
		if err != nil {
			return Result{}, err
		}
		res.Evaluated++
		if m.AR > base.AR || m.AC > base.AC {
			continue // infeasible under the baseline's rule
		}
		if m.Cycles < res.Best.Cycles {
			res.Best = m
		}
	}
	res.Swept = res.Evaluated
	if res.Best.Scheme == SchemeIm2col {
		// Report the degenerate choice in SDK notation (kernel window).
		res.Best.Scheme = SchemeSDK
	}
	return res, nil
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
// variant. VariantFull is SearchVWSDK's closed-form search; the two ablated
// variants run their breakpoint-pruned walks (search_pruned.go).
// SearchVariantExhaustive is the brute-force reference.
func SearchVariant(l Layer, a Array, v Variant) (Result, error) {
	return Search(context.Background(), l, a, Method{Scheme: SchemeVWSDK, Variant: v})
}

// SearchVariantExhaustive is the brute-force counterpart of SearchVariant:
// candidate-by-candidate sweeps with no breakpoint pruning, returning the
// same Best and Im2col (differential and fuzz tests pin this). Evaluated
// keeps its legacy meaning here — every candidate costed — and always
// equals Swept.
func SearchVariantExhaustive(l Layer, a Array, v Variant) (Result, error) {
	return SearchExhaustive(context.Background(), l, a, Method{Scheme: SchemeVWSDK, Variant: v})
}

// searchSquareTiledExhaustive is the brute-force VariantSquareTiled sweep
// under ctx; l must be normalized.
func searchSquareTiledExhaustive(ctx context.Context, l Layer, a Array) (Result, error) {
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	for d := 1; ; d++ {
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		pw := Window{W: l.KW + d*l.StrideW, H: l.KH + d*l.StrideH}
		if pw.W > l.PaddedW() || pw.H > l.PaddedH() {
			break
		}
		m, err := SweepVW(l, a, pw)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				// Skip rather than early-exit: the brute force stays
				// deliberately free of monotonicity assumptions so it can
				// falsify the pruned search's (guarded by a regression
				// test that the pruned early exit misses nothing).
				continue
			}
			return Result{}, err
		}
		res.Evaluated++
		if m.Cycles < res.Best.Cycles {
			res.Best = m
		}
	}
	res.Swept = res.Evaluated
	return res, nil
}

// searchRectFullChannelExhaustive is the brute-force VariantRectFullChannel
// sweep under ctx; l must be normalized. Like searchSDK it costs every
// enumerated window before the baseline rule filters it.
func searchRectFullChannelExhaustive(ctx context.Context, l Layer, a Array) (Result, error) {
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	for h := l.KH; h <= l.PaddedH(); h++ {
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		for w := l.KW; w <= l.PaddedW(); w++ {
			if w == l.KW && h == l.KH {
				continue
			}
			m, err := SDK(l, a, Window{W: w, H: h})
			if err != nil {
				return Result{}, err
			}
			res.Evaluated++
			if m.AR > base.AR || m.AC > base.AC {
				continue
			}
			if m.Cycles < res.Best.Cycles {
				res.Best = m
			}
		}
	}
	res.Swept = res.Evaluated
	return res, nil
}
