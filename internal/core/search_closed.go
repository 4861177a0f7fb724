package core

import (
	"context"
	"fmt"
)

// This file implements the closed-form Algorithm 1 search that SearchVWSDK
// runs for every layer shape. It walks the breakpoint structure of eq. 8
// (DESIGN.md §3): for a fixed window height every term of the cycle count is
// a step function of the window width, so the walk visits one class start
// per constant-cycle cost class. On a class start every term is already
// known in closed form:
//
//	Cycles(h, w) = ⌈OutW/NwW⌉ · ⌈OutH/NwH⌉ · ⌈ICg/ICt⌉ · ⌈OCg/OCt⌉ · G
//
// with NwW = ⌊(w−KW)/StrideW⌋+1, NwH = ⌊(h−KH)/StrideH⌋+1,
// ICt = min(⌊Rows/(w·h)⌋, ICg) and OCt = min(⌊Cols/(NwW·NwH)⌋, OCg). The
// search therefore evaluates every class start with pure integer arithmetic
// — no Mapping is built, no cost model runs — tracks the argmin under
// Algorithm 1's first-strictly-better tie-break, and materializes only the
// single winning candidate through SweepVW at the end: at most one
// cost-model call per search. The arithmetic is SweepVW's, term for term,
// so grouping (per-group caps, a constant ×G) and strides (step-function
// window counts) need no preconditions (DESIGN.md §7, §8). Result (Best,
// Im2col, Evaluated, Swept) is bit-identical to the exhaustive sweep,
// pinned by the zoo differential test and FuzzSearchEquivalence.

// SearchStats reports how a VW-SDK search arrived at its Result. It is
// diagnostic metadata — never part of Result, so serialized plans and the
// VGG-13 golden file are unaffected.
type SearchStats struct {
	// Path names the search implementation that ran. SearchVWSDKInstrumented
	// always reports PathClosedForm.
	Path string

	// CostModelCalls counts the candidate Mapping constructions (SweepVW
	// calls) the search performed, excluding the im2col seed: at most one,
	// to materialize the winner.
	CostModelCalls int
}

// The Path values search reports carry. PathClosedForm labels the VW-SDK
// search; PathPruned labels the ablation-variant walks (search_pruned.go),
// which pay one cost-model call per cost class.
const (
	PathClosedForm = "closed-form"
	PathPruned     = "pruned"
)

// SearchVWSDKInstrumented is SearchVWSDK plus the SearchStats describing how
// the result was obtained (which path ran, how many cost-model evaluations
// it paid). The Result is identical to SearchVWSDK's.
func SearchVWSDKInstrumented(ctx context.Context, l Layer, a Array) (Result, SearchStats, error) {
	st := SearchStats{Path: PathClosedForm}
	res, err := searchVWSDKClosed(ctx, l.Normalized(), a, &st)
	return res, st, err
}

// searchVWSDKClosed is the closed-form Algorithm 1; l must be normalized. It
// walks (height, width-class) pairs in Algorithm 1's scan order, with
// monotone early exits on both axes and one cancellation checkpoint per
// candidate row, evaluates each class's cycle count arithmetically, and
// defers the cost model to a single materializing call for the argmin.
// Result.Evaluated counts the classes evaluated; Result.Swept counts the
// feasible candidates the exhaustive sweep costs, accumulated per row. st,
// which may be nil, counts the cost-model call.
func searchVWSDKClosed(ctx context.Context, l Layer, a Array, st *SearchStats) (Result, error) {
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	W, H := l.PaddedW(), l.PaddedH()
	outW, outH := l.OutW(), l.OutH()
	sw, sh := l.StrideW, l.StrideH
	icg, ocg := l.ICg(), l.OCg()
	// Every candidate's Cycles carries the same ×G factor, so the walk
	// compares per-group cycles; im2col's Cycles carries it too, which makes
	// this division exact. The ×G comes back only in the final guard.
	g := int64(l.NumGroups())
	bestCycles := base.Cycles / g
	bestW, bestH := 0, 0 // 0 = the im2col seed is still winning
	for h := l.KH; h <= H; h++ {
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		// Monotone early-exit on the height axis: the narrowest window of
		// this row is infeasible, and both causes only worsen with h.
		if l.KW*h > a.Rows {
			break
		}
		nwH := h - l.KH + 1
		if sh != 1 {
			nwH = (h-l.KH)/sh + 1
		}
		if nwH > a.Cols {
			break
		}
		// The row's feasible widths form the contiguous range [KW, wMax] —
		// the monotone early exit on the width axis: w·h ≤ Rows, and
		// NwW·NwH ≤ Cols ⇔ w ≤ KW + ⌊Cols/NwH⌋·StrideW − 1.
		wMax := min(a.Rows/h, l.KW+(a.Cols/nwH)*sw-1, W)
		res.Swept += wMax - l.KW + 1
		npwH := ceilDiv(outH, nwH)
		w := l.KW
		if h == l.KH {
			w++         // the im2col seed covers the kernel-sized window
			res.Swept-- // and the exhaustive sweep never costs it
		}
		for w <= wMax {
			// Unit strides skip the division: most layers have them, and a
			// division per class is measurable in this loop.
			nwW := w - l.KW + 1
			if sw != 1 {
				nwW = (w-l.KW)/sw + 1
			}
			// Eq. 8 per group for this class, in closed form — exactly
			// SweepVW's arithmetic, without building the Mapping.
			ict := min(a.Rows/(w*h), icg)
			oct := min(a.Cols/(nwW*nwH), ocg)
			npwW := ceilDiv(outW, nwW)
			npw := npwW * npwH
			cycles := int64(npw) * int64(ceilDiv(icg, ict)) * int64(ceilDiv(ocg, oct))
			res.Evaluated++
			if cycles < bestCycles {
				bestCycles, bestW, bestH = cycles, w, h
			}
			// Class end: the class extends while ICt, OCt and ⌈OutW/NwW⌉
			// are all unchanged (DESIGN.md §3.1). ICt (already capped)
			// stays while w'·h·ICt ≤ Rows; OCt stays while
			// NwW'·NwH·OCt ≤ Cols; ⌈OutW/NwW'⌉ stays while
			// NwW' ≤ (OutW−1)/(npwW−1), and for npwW == 1 never changes.
			end := a.Rows / (h * ict)
			nwWEnd := a.Cols / (nwH * oct)
			if npwW > 1 {
				nwWEnd = min(nwWEnd, (outW-1)/(npwW-1))
			}
			// The widest w' whose window count along the width is nwWEnd.
			end = min(end, l.KW+nwWEnd*sw-1)
			// Defensive: the bounds above are ≥ w by construction.
			w = max(end, w) + 1
		}
	}
	if bestW == 0 {
		return res, nil // nothing beat the im2col seed
	}
	// Materialize the argmin — the search's only cost-model call.
	m, err := SweepVW(l, a, Window{W: bestW, H: bestH})
	if err != nil {
		// Unreachable: the row bound wMax is exactly SweepVW's feasibility.
		// Kept so a future cost-model change fails loudly.
		return Result{}, err
	}
	if st != nil {
		st.CostModelCalls++
	}
	if m.Cycles != bestCycles*g {
		// Unreachable: the arithmetic above mirrors SweepVW term by term.
		// A divergence means the closed form no longer matches the cost
		// model — fail loudly rather than serve a silently wrong plan.
		return Result{}, fmt.Errorf("core: closed-form search diverged from cost model for %s window %dx%d: computed %d cycles, cost model %d",
			l.Name, bestW, bestH, bestCycles*g, m.Cycles)
	}
	res.Best = m
	return res, nil
}
