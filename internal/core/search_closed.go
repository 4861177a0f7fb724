package core

import (
	"context"
	"errors"
	"fmt"
)

// This file implements the one class walk every windowed search runs — SDK,
// Algorithm 1 and its two ablations — and the one brute force it is checked
// against. The paper's two ideas make its ablation a 2×2 grid (DESIGN.md
// §5): a search scans either the full [kernel, padded IFM] rectangle or the
// square diagonal kernel + d·stride, and it either tiles channels (eqs. 4–7)
// or maps them whole with SDK's costing and the baseline's feasibility rule.
// A corner names one cell of that grid.
//
// The walk exploits the breakpoint structure of eq. 8 (DESIGN.md §3): for a
// fixed window height every term of the cycle count is a step function of
// the window width, so the walk visits one class start per constant-cycle
// cost class, where every term is known in closed form:
//
//	Cycles(h, w) = ⌈OutW/NwW⌉ · ⌈OutH/NwH⌉ · AR · AC · G
//
// with AR = ⌈ICg/ICt⌉ and AC = ⌈OCg/OCt⌉ under tiling, and
// AR = ⌈w·h·ICg/Rows⌉ and AC = ⌈NwW·NwH·OCg/Cols⌉ for whole channels. The
// walk evaluates every class start with integer arithmetic — no Mapping is
// built, no cost model runs — tracks the argmin under Algorithm 1's
// first-strictly-better tie-break, and materializes only the winner: at
// most one cost-model call per search. Both costings admit a window
// (w, h) exactly when w·h ≤ rowCap and NwW·NwH ≤ colCap (DESIGN.md §3.1), so
// one row bound serves both. Result (Best, Im2col, Evaluated, Swept) is
// pinned against the brute force by the zoo differential test and
// FuzzSearchEquivalence.

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

// The Path values search reports carry. PathClosedForm labels the class
// walk every windowed search runs. Nothing reports PathPruned any more: it
// stays declared only for the repository benchmark, which reads it, and
// goes with the benchmark change that drops that read.
const (
	PathClosedForm = "closed-form"
	PathPruned     = "pruned"
)

// SearchVWSDKInstrumented is SearchVWSDK plus the SearchStats describing how
// the result was obtained (which path ran, how many cost-model evaluations
// it paid). The Result is identical to SearchVWSDK's.
func SearchVWSDKInstrumented(ctx context.Context, l Layer, a Array) (Result, SearchStats, error) {
	st := SearchStats{Path: PathClosedForm}
	res, err := walk(ctx, l.Normalized(), a, corner{}, &st)
	return res, st, err
}

// A corner is one cell of the paper's 2×2 ablation grid (DESIGN.md §5): the
// window lattice a search scans and how it costs channels. The zero value is
// Algorithm 1; the square whole-channel corner is SDK.
type corner struct {
	// square scans the diagonal kernel + d·stride, d = 1, 2, …; otherwise
	// the search scans the full rectangle, height outer and width inner.
	square bool
	// whole maps entire channels with SDK's costing and keeps a window only
	// if neither AR nor AC exceeds im2col's; otherwise channels are tiled
	// by eqs. 4–7 and a window is kept if one channel fits.
	whole bool
}

// row returns row r ≥ 0 of c's lattice on l: its height and its first and
// last width. A rectangle row spans every width, less the kernel-sized seed
// on the first row; a diagonal row is one window. The lattice ends at the
// first row that leaves the padded IFM. l must be normalized.
func (c corner) row(l *Layer, r int) (h, wFirst, wLast int) {
	if c.square {
		h, wFirst = l.KH+(r+1)*l.StrideH, l.KW+(r+1)*l.StrideW
		return h, wFirst, wFirst
	}
	wFirst = l.KW
	if r == 0 {
		wFirst++ // the im2col seed covers the kernel-sized window
	}
	return l.KH + r, wFirst, l.PaddedW()
}

// candidates returns the number of windows in c's lattice on l, the seed
// excluded; l must be normalized.
func (c corner) candidates(l *Layer) int64 {
	if c.square {
		return int64(min((l.PaddedW()-l.KW)/l.StrideW, (l.PaddedH()-l.KH)/l.StrideH))
	}
	return int64(l.PaddedW()-l.KW+1)*int64(l.PaddedH()-l.KH+1) - 1
}

// cost runs c's cost model on window pw; l must be normalized and pw inside
// [kernel, padded IFM]. A tiled window that fits no channel is the bare
// ErrInfeasible.
func (c corner) cost(l Layer, a Array, pw Window) (Mapping, error) {
	if c.whole {
		return SDK(l, a, pw)
	}
	return SweepVW(l, a, pw)
}

// done finishes a search of c whose Best is final: SDK reports an im2col
// winner in its own notation, as its kernel window.
func (c corner) done(res Result) Result {
	if c.square && c.whole && res.Best.Scheme == SchemeIm2col {
		res.Best.Scheme = SchemeSDK
	}
	return res
}

// ExhaustiveCandidates returns the number of candidate windows the
// exhaustive search for variant v enumerates for layer l: the full [kernel,
// padded IFM] rectangle minus the im2col seed, or every in-bounds square
// for VariantSquareTiled. This is the candidate count the class walk
// avoids; engine.Stats and the search golden (TestSearchResultsGolden) use
// it to quantify the pruning.
func ExhaustiveCandidates(l Layer, v Variant) int64 {
	l = l.Normalized()
	return corner{square: v == VariantSquareTiled}.candidates(&l)
}

// walk is the closed-form class walk of corner c; l must be normalized. It
// scans c's lattice row by row with one cancellation checkpoint per row.
// Each row's admitted widths are the contiguous range [wFirst, wMax], and
// the walk evaluates one class start per cost class in that range. The
// rectangle stops at the first row whose kernel-width window is not
// admitted, since both caps only tighten as h grows; the diagonal has no
// such exit. Result.Evaluated counts the classes evaluated, plus, for whole
// channels, the one filtered class that ends a row before its last lattice
// width, which SDK's costing costs before the baseline rule filters it.
// Result.Swept counts the admitted windows under tiling and the whole
// lattice for whole channels, as the brute force does. st, which may be
// nil, counts the cost-model call.
func walk(ctx context.Context, l Layer, a Array, c corner, st *SearchStats) (Result, error) {
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	W, H := l.PaddedW(), l.PaddedH()
	outW, outH := l.OutW(), l.OutH()
	sw, sh := l.StrideW, l.StrideH
	icg, ocg := l.ICg(), l.OCg()
	// Tiling admits a window when one channel fits the rows and one output
	// channel per window fits the columns; whole channels admit it when
	// AR ≤ im2col's AR and AC ≤ im2col's AC, i.e. w·h·ICg ≤ AR₀·Rows and
	// NwW·NwH·OCg ≤ AC₀·Cols.
	rowCap, colCap := a.Rows, a.Cols
	if c.whole {
		rowCap, colCap = base.AR*a.Rows/icg, base.AC*a.Cols/ocg
		res.Swept = int(c.candidates(&l))
	}
	// Every candidate's Cycles carries the same ×G factor, so the walk
	// compares per-group cycles; im2col's Cycles carries it too, which makes
	// this division exact. The ×G comes back only in the final guard.
	g := int64(l.NumGroups())
	bestCycles := base.Cycles / g
	bestW, bestH := 0, 0 // 0 = the im2col seed is still winning
	for r := 0; ; r++ {
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		h, w, wLast := c.row(&l, r)
		if h > H || wLast > W {
			break
		}
		nwH := h - l.KH + 1
		if sh != 1 {
			nwH = (h-l.KH)/sh + 1
		}
		if !c.square && (l.KW*h > rowCap || nwH > colCap) {
			break
		}
		// w·h ≤ rowCap, and NwW·NwH ≤ colCap ⇔ w ≤ KW + ⌊colCap/NwH⌋·StrideW − 1.
		wMax := min(rowCap/h, l.KW+(colCap/nwH)*sw-1, wLast)
		if !c.whole {
			res.Swept += max(wMax-w+1, 0)
		} else if wMax < wLast {
			res.Evaluated++
		}
		// Each class start costs eq. 8 per group in closed form, then jumps
		// past the class end (DESIGN.md §3.1): the widest w' with the same
		// AR (end), and the largest NwW' with the same AC or the same
		// ⌈OutW/NwW'⌉ (nwWEnd), converted to a width. The costing is chosen
		// once per row so that the tiled loop stays as lean as a dedicated
		// one. Unit strides skip the division: most layers have them, and a
		// division per class is measurable in these loops.
		npwH := ceilDiv(outH, nwH)
		if c.whole {
			for w <= wMax {
				nwW := w - l.KW + 1
				if sw != 1 {
					nwW = (w-l.KW)/sw + 1
				}
				ar, ac := ceilDiv(w*h*icg, a.Rows), ceilDiv(nwW*nwH*ocg, a.Cols)
				npwW := ceilDiv(outW, nwW)
				cycles := int64(npwW*npwH) * int64(ar) * int64(ac)
				res.Evaluated++
				if cycles < bestCycles {
					bestCycles, bestW, bestH = cycles, w, h
				}
				end, nwWEnd := ar*a.Rows/(h*icg), ac*a.Cols/(nwH*ocg)
				if npwW > 1 {
					nwWEnd = min(nwWEnd, (outW-1)/(npwW-1))
				}
				w = max(min(end, l.KW+nwWEnd*sw-1), w) + 1
			}
			continue
		}
		for w <= wMax {
			nwW := w - l.KW + 1
			if sw != 1 {
				nwW = (w-l.KW)/sw + 1
			}
			ict, oct := min(a.Rows/(w*h), icg), min(a.Cols/(nwW*nwH), ocg)
			npwW := ceilDiv(outW, nwW)
			cycles := int64(npwW*npwH) * int64(ceilDiv(icg, ict)) * int64(ceilDiv(ocg, oct))
			res.Evaluated++
			if cycles < bestCycles {
				bestCycles, bestW, bestH = cycles, w, h
			}
			end, nwWEnd := a.Rows/(h*ict), a.Cols/(nwH*oct)
			if npwW > 1 {
				nwWEnd = min(nwWEnd, (outW-1)/(npwW-1))
			}
			// The bounds above are ≥ w by construction.
			w = max(min(end, l.KW+nwWEnd*sw-1), w) + 1
		}
	}
	if bestW == 0 {
		return c.done(res), nil // nothing beat the im2col seed
	}
	// Materialize the argmin — the search's only cost-model call.
	m, err := c.cost(l, a, Window{W: bestW, H: bestH})
	if err != nil {
		// Unreachable: the row bound wMax is exactly the cost model's
		// admission. Kept so a future cost-model change fails loudly.
		return Result{}, err
	}
	if st != nil {
		st.CostModelCalls++
	}
	if m.Cycles != bestCycles*g {
		// Unreachable: the arithmetic above mirrors the cost model term by
		// term. A divergence means the closed form no longer matches it —
		// fail loudly rather than serve a silently wrong plan.
		return Result{}, fmt.Errorf("core: closed-form search diverged from cost model for %s window %dx%d: computed %d cycles, cost model %d",
			l.Name, bestW, bestH, bestCycles*g, m.Cycles)
	}
	res.Best = m
	return res, nil
}

// bruteForce is the walk's oracle: it hands every window of c's lattice to
// the cost model in scan order, skips each one the corner does not admit,
// and keeps the first strictly better; l must be normalized. It never exits
// early, so it would expose a wrong monotonicity assumption in the walk
// (DESIGN.md §3.2). Evaluated and Swept both count the candidates costed:
// the admitted ones under tiling, every one for whole channels.
func bruteForce(ctx context.Context, l Layer, a Array, c corner) (Result, error) {
	base, err := Im2col(l, a)
	if err != nil {
		return Result{}, err
	}
	res := Result{Best: base, Im2col: base}
	for r := 0; ; r++ {
		if err := checkpoint(ctx); err != nil {
			return Result{}, err
		}
		h, wFirst, wLast := c.row(&l, r)
		if h > l.PaddedH() || wLast > l.PaddedW() {
			break
		}
		for w := wFirst; w <= wLast; w++ {
			m, err := c.cost(l, a, Window{W: w, H: h})
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			if err != nil {
				return Result{}, err
			}
			res.Evaluated++
			if c.whole && (m.AR > base.AR || m.AC > base.AC) {
				continue // infeasible under the baseline's rule
			}
			if m.Cycles < res.Best.Cycles {
				res.Best = m
			}
		}
	}
	res.Swept = res.Evaluated
	return c.done(res), nil
}
