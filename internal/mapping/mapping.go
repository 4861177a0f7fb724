// Package mapping turns an analytic mapping decision (core.Mapping) into a
// physical execution plan: concrete weight tiles programmed into a crossbar,
// input gather vectors per computing cycle, and output scatter rules that
// reassemble the output feature map.
//
// The package is the bridge between the paper's cycle arithmetic and an
// actual PIM array: executing a Plan on a simulated crossbar performs
// exactly Mapping.Cycles computing cycles and produces bit-identical results
// to the reference convolution, which is the repository's core integration
// test (DESIGN.md §6).
//
// One layout serves im2col, SDK and VW-SDK: rows are a parallel window
// unrolled channel-major (window raster order within a channel), and columns
// hold its Nw shifted kernel copies. The schemes differ only in the window
// and in where tiles cut (DESIGN.md §7):
//
//   - im2col, and SMD without duplication, take the kernel as the window
//     (PW = K, Nw = 1×1): one window per cycle, one column per output
//     channel, row tiles cut at array rows and column tiles at OCt channels.
//   - SDK orders columns window-major (all OC of window 0, then window 1,
//     ...) and cuts row and column tiles at array rows and columns, as the
//     baseline's eq. 1 assumes.
//   - VW-SDK orders columns channel-major (all Nw windows of an output
//     channel together) and cuts tiles at ICt input channels (eq. 4) and
//     OCt output channels (eq. 6).
//
// SMD duplication (Dup > 1) alone has its own layout: Dup block-diagonal
// copies of the im2col matrix in one tile, each cycle processing a group of
// Dup independent windows.
package mapping

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Position is one computing cycle's placement, a parallel-window origin or,
// for SMD duplication, a group of windows: the cycle's input region (per row
// tile) and the output elements it is responsible for.
type Position struct {
	// PX, PY is the parallel-window origin in padded IFM coordinates.
	PX, PY int

	// OXStart, OYStart are the output coordinates of the window at offset
	// (0,0) inside the parallel window.
	OXStart, OYStart int

	// FreshXLo, FreshYLo are the first window offsets (per axis) not
	// already covered by a previous, overlapping clamped position; offsets
	// below them are recomputed by the hardware but must not be scattered
	// twice.
	FreshXLo, FreshYLo int

	// Windows lists the output positions (oy·OutW+ox indices) an SMD
	// duplication cycle processes, one per kernel-matrix copy; nil for every
	// other layout, whose positions are parallel-window origins.
	Windows []int
}

// Tile is one array-row × array-column tile: the virtual row/column ranges
// of the scheme's full logical matrix that are programmed together.
type Tile struct {
	// I, J are the AR and AC tile indices.
	I, J int

	// RowLo, RowHi and ColLo, ColHi are half-open ranges in the scheme's
	// virtual row/column spaces.
	RowLo, RowHi int
	ColLo, ColHi int
}

// Rows returns the physical rows the tile occupies.
func (t Tile) Rows() int { return t.RowHi - t.RowLo }

// Cols returns the physical columns the tile occupies.
func (t Tile) Cols() int { return t.ColHi - t.ColLo }

// Plan is an executable weight-mapping schedule. Build one with NewPlan.
type Plan struct {
	// M is the analytic mapping the plan realizes.
	M core.Mapping

	// Tiles are the AR×AC weight tiles in (i, j) row-major order.
	Tiles []Tile

	// Positions are the per-tile computing cycles.
	Positions []Position
}

// NewPlanContext is NewPlan bracketed in an obs span ("mapping.plan", with
// the tile count attached) when ctx carries a trace; the compile pipeline's
// planning stage calls this form so physical planning shows up in compile
// provenance. The plan itself is identical to NewPlan's.
func NewPlanContext(ctx context.Context, m core.Mapping) (*Plan, error) {
	sp := obs.StartLeaf(ctx, "mapping.plan")
	defer sp.End()
	p, err := NewPlan(m)
	if err == nil {
		sp.SetInt("tiles", int64(len(p.Tiles)))
	}
	return p, err
}

// NewPlan builds the execution plan for a costed mapping. The mapping must
// come from one of core's constructors or searches; NewPlan re-derives and
// cross-checks the geometry and fails on inconsistent hand-built values.
func NewPlan(m core.Mapping) (*Plan, error) {
	l := m.Layer.Normalized()
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if err := m.Array.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{M: m}
	p.M.Layer = l
	switch m.Scheme {
	case core.SchemeIm2col, core.SchemeSMD:
		if m.Dup < 1 || m.Scheme == core.SchemeIm2col && m.Dup > 1 {
			return nil, fmt.Errorf("mapping: %v with Dup=%d", m.Scheme, m.Dup)
		}
		if p.duplicated() && l.NumGroups() > 1 {
			return nil, fmt.Errorf("mapping: SMD duplication has no grouped layout (layer %v has %d groups)",
				l, l.NumGroups())
		}
	case core.SchemeSDK:
		if l.NumGroups() > 1 {
			return nil, fmt.Errorf("mapping: SDK's row-granular layout has no grouped form (layer %v has %d groups)",
				l, l.NumGroups())
		}
	case core.SchemeVWSDK:
	default:
		return nil, fmt.Errorf("mapping: unknown scheme %v", m.Scheme)
	}
	if p.duplicated() {
		p.buildDuplicated()
	} else {
		p.buildTiles()
		p.buildWindowPositions()
	}
	for _, t := range p.Tiles {
		if t.Rows() > m.Array.Rows || t.Cols() > m.Array.Cols {
			return nil, fmt.Errorf("mapping: tile (%d,%d) is %dx%d, exceeds array %v",
				t.I, t.J, t.Rows(), t.Cols(), m.Array)
		}
		if t.Rows() <= 0 || t.Cols() <= 0 {
			return nil, fmt.Errorf("mapping: tile (%d,%d) is empty (inconsistent mapping %+v)",
				t.I, t.J, m)
		}
	}
	if got := int64(len(p.Tiles)) * int64(len(p.Positions)); got != m.Cycles {
		return nil, fmt.Errorf("mapping: plan executes %d cycles, mapping says %d (inconsistent mapping)",
			got, m.Cycles)
	}
	return p, nil
}

// duplicated reports whether the plan is SMD duplication, the one layout
// that is not a window layout.
func (p *Plan) duplicated() bool { return p.M.Scheme == core.SchemeSMD && p.M.Dup > 1 }

// buildDuplicated lays out SMD duplication (dense only): the Dup
// block-diagonal copies of the im2col matrix form a single tile, and each
// position is a group of Dup consecutive windows, one per copy; the last
// group may be partial.
func (p *Plan) buildDuplicated() {
	l, dup := p.M.Layer, p.M.Dup
	p.Tiles = []Tile{{RowHi: dup * l.KernelRows(), ColHi: dup * l.OC}}
	windows := l.Windows()
	for lo := 0; lo < windows; lo += dup {
		hi := min(lo+dup, windows)
		idx := make([]int, 0, hi-lo)
		for w := lo; w < hi; w++ {
			idx = append(idx, w)
		}
		p.Positions = append(p.Positions, Position{Windows: idx})
	}
}

// buildTiles creates the AR×AC tile grid of the window layout once per
// convolution group. Group g owns the virtual rows of input channels
// [g·ICg, (g+1)·ICg) and the columns of output channels [g·OCg, (g+1)·OCg),
// and its tiles are core.Mapping.TileBounds offset into that block, so a
// tile never crosses a group boundary: the physical form of "a group cannot
// share array columns with another group".
func (p *Plan) buildTiles() {
	m, l := &p.M, &p.M.Layer
	rows, cols := l.ICg()*m.PW.Area(), l.OCg()*m.Nw()
	for g := 0; g < l.NumGroups(); g++ {
		for i := 0; i < m.AR; i++ {
			for j := 0; j < m.AC; j++ {
				rowLo, rowHi, colLo, colHi := m.TileBounds(i, j)
				p.Tiles = append(p.Tiles, Tile{I: i, J: j,
					RowLo: g*rows + rowLo, RowHi: g*rows + rowHi, ColLo: g*cols + colLo, ColHi: g*cols + colHi})
			}
		}
	}
}

// buildWindowPositions enumerates the parallel-window origins of the window
// layout; for im2col every window is its own position. Origins advance by
// Nw outputs per axis; the final position per axis is clamped so the window
// stays inside the padded IFM, and its Fresh*Lo fields mark which window
// offsets were not already produced by the previous position (the hardware
// recomputes them; the scatter skips them). The start before the first,
// oxStart(-1) = -NwW, leaves the first position all fresh.
func (p *Plan) buildWindowPositions() {
	m, l := p.M, p.M.Layer
	outW, outH := l.OutW(), l.OutH()
	oxStart := func(g int) int { return min(g*m.NwW, outW-m.NwW) }
	oyStart := func(g int) int { return min(g*m.NwH, outH-m.NwH) }
	for gy := 0; gy < ceilDiv(outH, m.NwH); gy++ {
		oy := oyStart(gy)
		freshY := oyStart(gy-1) + m.NwH - oy
		for gx := 0; gx < ceilDiv(outW, m.NwW); gx++ {
			ox := oxStart(gx)
			p.Positions = append(p.Positions, Position{
				PX: ox * l.StrideW, PY: oy * l.StrideH,
				OXStart: ox, OYStart: oy,
				FreshXLo: oxStart(gx-1) + m.NwW - ox, FreshYLo: freshY,
			})
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
