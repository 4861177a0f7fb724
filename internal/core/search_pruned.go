package core

import (
	"context"
	"errors"
)

// This file holds the breakpoint-pruned walks of the two ablation variants
// (DESIGN.md §5) and ExhaustiveCandidates. Like the VW-SDK search
// (search_closed.go) they exploit the structure of eq. 8: for a fixed window
// height h, every term of the cycle count is a step function of the window
// width w, so the cycle count is constant over maximal runs of w — "cost
// classes" — and Algorithm 1's first-strictly-better scan can only update at
// a class's first w. The walks cost one representative per class, in scan
// order, with the same strict-< update, and are therefore bit-identical to
// the exhaustive sweeps (pinned by differential and fuzz tests).
// Infeasibility is monotone on both loop axes, so both loops early-exit
// instead of skipping candidate-by-candidate. Each walk pays one cost-model
// call per class. The derivation and the tie-break argument are in
// DESIGN.md §3.

// searchSquareTiledPruned is the VariantSquareTiled search with monotone
// early-exit: the window grows in both axes with d, so ICt = floor(Rows/area)
// and OCt = floor(Cols/Nw) are non-increasing and a candidate that is
// infeasible can never become feasible again. Every d changes Nw = (d+1)², so
// each feasible candidate is its own cost class and Evaluated equals the
// exhaustive sweep's count.
func searchSquareTiledPruned(ctx context.Context, l Layer, a Array) (Result, error) {
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
				break
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

// searchRectFullChannelPruned is the breakpoint-pruned VariantRectFullChannel
// search. The SDK costing's terms are again step functions of w for fixed h —
// AR = ceil(w·h·IC/Rows), AC = ceil(NwW·NwH·OC/Cols), NPWw = ceil(OutW/NwW) —
// and the baseline feasibility rule (AR ≤ im2col's AR and AC ≤ im2col's AC)
// is monotone on both axes, so a filtered class ends its row and a filtered
// kernel-width candidate ends the whole scan. Result.Evaluated counts the
// classes costed; Result.Swept retains the exhaustive count, which for this
// variant is every enumerated candidate (the serial loop costs before it
// filters).
func searchRectFullChannelPruned(ctx context.Context, l Layer, a Array) (Result, error) {
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	res.Swept = int(ExhaustiveCandidates(l, VariantRectFullChannel))
	W, H := l.PaddedW(), l.PaddedH()
	outW := l.OutW()
	for h := l.KH; h <= H; h++ {
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		nwH := (h-l.KH)/l.StrideH + 1
		// Monotone early-exit on the height axis: the narrowest window of
		// this row already violates the baseline rule, and AR and AC only
		// grow with h. The SDK costing is per group (ICg/OCg), so the rule
		// and the class algebra below use the per-group channel counts.
		if ceilDiv(l.KW*h*l.ICg(), a.Rows) > base.AR || ceilDiv(nwH*l.OCg(), a.Cols) > base.AC {
			break
		}
		w := l.KW
		if h == l.KH {
			w++
		}
		for w <= W {
			m, err := SDK(l, a, Window{W: w, H: h})
			if err != nil {
				return Result{}, err
			}
			res.Evaluated++
			if m.AR > base.AR || m.AC > base.AC {
				break // monotone in w: the rest of the row is filtered too
			}
			if m.Cycles < res.Best.Cycles {
				res.Best = m
			}
			// Class end: AR stays while w'·h·ICg ≤ AR·Rows; AC stays while
			// NwW'·NwH·OCg ≤ AC·Cols; ceil(OutW/NwW') as in the VW walk.
			end := m.AR * a.Rows / (h * l.ICg())
			nwWEnd := m.AC * a.Cols / (m.NwH * l.OCg())
			if npwW := ceilDiv(outW, m.NwW); npwW > 1 {
				nwWEnd = min(nwWEnd, (outW-1)/(npwW-1))
			}
			end = min(end, l.KW+nwWEnd*l.StrideW-1, W)
			w = max(end, w) + 1
		}
	}
	return res, nil
}

// ExhaustiveCandidates returns the number of candidate windows the exhaustive
// search for variant v enumerates (and hands to the cost model) for layer l:
// the full [kernel, padded IFM] rectangle minus the im2col seed for the 2-D
// sweeps, and every in-bounds square for VariantSquareTiled. This is the
// candidate count the pruned searches avoid; engine.Stats and the
// cmd/vwsdkbench report use it to quantify the pruning.
func ExhaustiveCandidates(l Layer, v Variant) int64 {
	l = l.Normalized()
	switch v {
	case VariantSquareTiled:
		return int64(min((l.PaddedW()-l.KW)/l.StrideW, (l.PaddedH()-l.KH)/l.StrideH))
	default:
		return int64(l.PaddedW()-l.KW+1)*int64(l.PaddedH()-l.KH+1) - 1
	}
}
