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
// Layouts implemented (one per scheme):
//
//   - im2col: rows are the unrolled kernel (channel-major), one column per
//     output channel; each cycle processes one window.
//   - SMD: Dup block-diagonal copies of the im2col matrix; each cycle
//     processes a group of Dup independent windows.
//   - SDK: rows are the parallel window unrolled channel-major (window
//     raster order within a channel); columns hold Nw shifted kernel copies,
//     window-major (all OC of window 0, then window 1, ...). Row tiles split
//     row-granularly and column tiles column-granularly, as the baseline's
//     eq. 1 assumes.
//   - VW-SDK: same row layout but tiles cut at channel boundaries (ICt per
//     tile, eq. 4); columns are channel-major (all Nw windows of an output
//     channel together) so column tiles cut at OCt boundaries (eq. 6).
package mapping

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Position is one parallel-window placement: a single computing cycle's
// input region (per row tile) and the output elements it is responsible for.
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

	// Windows lists the output positions (oy·OutW+ox indices) processed by
	// this cycle for the im2col and SMD schemes; nil for window schemes.
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
		if m.Dup < 1 {
			return nil, fmt.Errorf("mapping: %v with Dup=%d", m.Scheme, m.Dup)
		}
		if m.Dup > 1 && l.NumGroups() > 1 {
			return nil, fmt.Errorf("mapping: SMD duplication has no grouped layout (layer %v has %d groups)",
				l, l.NumGroups())
		}
		p.buildIm2colTiles()
		p.buildGroupPositions()
	case core.SchemeSDK:
		if l.NumGroups() > 1 {
			return nil, fmt.Errorf("mapping: SDK's row-granular layout has no grouped form (layer %v has %d groups)",
				l, l.NumGroups())
		}
		p.buildSDKTiles()
		p.buildWindowPositions()
	case core.SchemeVWSDK:
		p.buildVWTiles()
		p.buildWindowPositions()
	default:
		return nil, fmt.Errorf("mapping: unknown scheme %v", m.Scheme)
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

// buildIm2colTiles creates the AR×AC grid for im2col and SMD layouts — per
// convolution group, over global virtual spaces: group g's kernel rows
// occupy [g·KernelRows, (g+1)·KernelRows) and its output channels
// [g·OCg, (g+1)·OCg), so every tile lies inside one group's block. For SMD
// with Dup > 1 (dense only) the whole block-diagonal matrix forms a single
// tile.
func (p *Plan) buildIm2colTiles() {
	m, l := p.M, p.M.Layer
	if m.Scheme == core.SchemeSMD && m.Dup > 1 {
		p.Tiles = []Tile{{
			RowLo: 0, RowHi: m.Dup * l.KernelRows(),
			ColLo: 0, ColHi: m.Dup * l.OC,
		}}
		return
	}
	kr, ocg := l.KernelRows(), l.OCg()
	for g := 0; g < l.NumGroups(); g++ {
		for i := 0; i < m.AR; i++ {
			rowLo := g*kr + i*m.Array.Rows
			rowHi := min(rowLo+m.Array.Rows, (g+1)*kr)
			for j := 0; j < m.AC; j++ {
				colLo := g*ocg + j*m.OCt
				colHi := min(colLo+m.OCt, (g+1)*ocg)
				p.Tiles = append(p.Tiles, Tile{I: i, J: j,
					RowLo: rowLo, RowHi: rowHi, ColLo: colLo, ColHi: colHi})
			}
		}
	}
}

// buildSDKTiles creates row-granular × column-granular tiles over the
// parallel-window layout (virtual rows PW²·IC, virtual columns Nw·OC).
func (p *Plan) buildSDKTiles() {
	m, l := p.M, p.M.Layer
	totalRows := m.PW.Area() * l.IC
	totalCols := m.Nw() * l.OC
	for i := 0; i < m.AR; i++ {
		rowLo := i * m.Array.Rows
		rowHi := min(rowLo+m.Array.Rows, totalRows)
		for j := 0; j < m.AC; j++ {
			colLo := j * m.Array.Cols
			colHi := min(colLo+m.Array.Cols, totalCols)
			p.Tiles = append(p.Tiles, Tile{I: i, J: j,
				RowLo: rowLo, RowHi: rowHi, ColLo: colLo, ColHi: colHi})
		}
	}
}

// buildVWTiles creates channel-granular tiles: row tiles cut at ICt channel
// boundaries (eq. 4/5) and column tiles at OCt output-channel boundaries
// (eq. 6/7) over the channel-major column layout. Grouped layers repeat the
// per-group AR×AC grid once per group in the global channel spaces (group g
// owns input channels [g·ICg, (g+1)·ICg) and output channels
// [g·OCg, (g+1)·OCg)), so a tile never crosses a group boundary — the
// physical form of "a group cannot share array columns with another group".
func (p *Plan) buildVWTiles() {
	m, l := p.M, p.M.Layer
	area := m.PW.Area()
	nw := m.Nw()
	icg, ocg := l.ICg(), l.OCg()
	for g := 0; g < l.NumGroups(); g++ {
		for i := 0; i < m.AR; i++ {
			cLo := g*icg + i*m.ICt
			cHi := min(cLo+m.ICt, (g+1)*icg)
			for j := 0; j < m.AC; j++ {
				oLo := g*ocg + j*m.OCt
				oHi := min(oLo+m.OCt, (g+1)*ocg)
				p.Tiles = append(p.Tiles, Tile{I: i, J: j,
					RowLo: cLo * area, RowHi: cHi * area,
					ColLo: oLo * nw, ColHi: oHi * nw})
			}
		}
	}
}

// buildGroupPositions enumerates window groups for im2col (groups of one)
// and SMD (groups of Dup windows).
func (p *Plan) buildGroupPositions() {
	l := p.M.Layer
	windows := l.Windows()
	group := p.M.Dup
	for lo := 0; lo < windows; lo += group {
		hi := min(lo+group, windows)
		idx := make([]int, 0, hi-lo)
		for w := lo; w < hi; w++ {
			idx = append(idx, w)
		}
		p.Positions = append(p.Positions, Position{Windows: idx})
	}
}

// buildWindowPositions enumerates parallel-window origins for the SDK and
// VW-SDK schemes. Origins advance by Nw outputs per axis; the final position
// per axis is clamped so the window stays inside the padded IFM, and its
// Fresh*Lo fields mark which window offsets were not already produced by the
// previous position (the hardware recomputes them; the scatter skips them).
func (p *Plan) buildWindowPositions() {
	m, l := p.M, p.M.Layer
	outW, outH := l.OutW(), l.OutH()
	nX := ceilDiv(outW, m.NwW)
	nY := ceilDiv(outH, m.NwH)
	oxStart := func(g int) int { return min(g*m.NwW, outW-m.NwW) }
	oyStart := func(g int) int { return min(g*m.NwH, outH-m.NwH) }
	for gy := 0; gy < nY; gy++ {
		oy := oyStart(gy)
		freshY := 0
		if gy > 0 {
			freshY = oyStart(gy-1) + m.NwH - oy
		}
		for gx := 0; gx < nX; gx++ {
			ox := oxStart(gx)
			freshX := 0
			if gx > 0 {
				freshX = oxStart(gx-1) + m.NwW - ox
			}
			p.Positions = append(p.Positions, Position{
				PX: ox * l.StrideW, PY: oy * l.StrideH,
				OXStart: ox, OYStart: oy,
				FreshXLo: freshX, FreshYLo: freshY,
			})
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
