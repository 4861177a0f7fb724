package mapping

import (
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/tensor"
)

// rowCoordWindow maps a parallel-window virtual row to (channel, y, x)
// inside the window: channel-major, then raster order over the PW extent.
func (p *Plan) rowCoordWindow(r int) (c, y, x int) {
	area := p.M.PW.Area()
	rem := r % area
	return r / area, rem / p.M.PW.W, rem % p.M.PW.W
}

// colSpec decodes a virtual column index into its window copy and output
// channel for the window schemes. SDK lays columns out window-major
// (w·OC + oc); VW-SDK channel-major (oc·Nw + w) so OCt tiles are contiguous.
func (p *Plan) colSpec(col int) (winX, winY, oc int) {
	var w int
	switch p.M.Scheme {
	case core.SchemeSDK:
		w, oc = col/p.M.Layer.OC, col%p.M.Layer.OC
	default: // VW-SDK
		oc, w = col/p.M.Nw(), col%p.M.Nw()
	}
	return w % p.M.NwW, w / p.M.NwW, oc
}

// WeightTile materializes the weight matrix for one tile: the cell values a
// crossbar is programmed with. Cells at layout positions no kernel covers
// are zero.
func (p *Plan) WeightTile(w *tensor.Tensor4, t Tile) *tensor.Matrix {
	l := p.M.Layer
	m := tensor.NewMatrix(t.Rows(), t.Cols())
	switch p.M.Scheme {
	case core.SchemeIm2col, core.SchemeSMD:
		if p.M.Dup > 1 {
			kr := l.KernelRows()
			for rr := 0; rr < m.Rows; rr++ {
				r := t.RowLo + rr
				d := r / kr
				c, ky, kx := conv.RowCoord(l, r%kr)
				// Only the matching duplicate's column block is non-zero.
				for oc := 0; oc < l.OC; oc++ {
					m.Set(rr, d*l.OC+oc, w.At(oc, c, ky, kx))
				}
			}
			return m
		}
		// Grouped layers: a tile lies inside one group's row/column block,
		// and the compact weight tensor is indexed with the group-local
		// input channel r % KernelRows; dense layers have r < KernelRows.
		kr := l.KernelRows()
		for rr := 0; rr < m.Rows; rr++ {
			ci, ky, kx := conv.RowCoord(l, (t.RowLo+rr)%kr)
			for cc := 0; cc < m.Cols; cc++ {
				m.Set(rr, cc, w.At(t.ColLo+cc, ci, ky, kx))
			}
		}
		return m
	default: // SDK, VW-SDK
		icg := l.ICg()
		for rr := 0; rr < m.Rows; rr++ {
			c, y, x := p.rowCoordWindow(t.RowLo + rr)
			for cc := 0; cc < m.Cols; cc++ {
				winX, winY, oc := p.colSpec(t.ColLo + cc)
				kx := x - winX*l.StrideW
				ky := y - winY*l.StrideH
				if kx >= 0 && kx < l.KW && ky >= 0 && ky < l.KH {
					// c is the global input channel; the compact grouped
					// weight tensor wants the group-local index (a tile never
					// crosses groups, so oc's group is c's group).
					m.Set(rr, cc, w.At(oc, c%icg, ky, kx))
				}
			}
		}
		return m
	}
}

// InputVector gathers the row voltages for one computing cycle: tile t of
// the virtual layout at parallel-window (or window-group) position pos.
// padded is the zero-padded IFM.
func (p *Plan) InputVector(padded *tensor.Tensor3, t Tile, pos Position) []float64 {
	l := p.M.Layer
	in := make([]float64, t.Rows())
	outW := l.OutW()
	switch p.M.Scheme {
	case core.SchemeIm2col, core.SchemeSMD:
		kr := l.KernelRows()
		for rr := range in {
			r := t.RowLo + rr
			// For SMD duplication (dense only) r/kr selects the duplicate's
			// window; otherwise it decodes the convolution group, whose rows
			// all feed the position's single window.
			d, g := 0, 0
			if p.M.Dup > 1 {
				d = r / kr
			} else {
				g = r / kr
			}
			if d >= len(pos.Windows) {
				continue // partial last SMD group: unused copy rows idle
			}
			win := pos.Windows[d]
			oy, ox := win/outW, win%outW
			ci, ky, kx := conv.RowCoord(l, r%kr)
			in[rr] = padded.At(g*l.ICg()+ci, oy*l.StrideH+ky, ox*l.StrideW+kx)
		}
	default: // SDK, VW-SDK
		for rr := range in {
			c, y, x := p.rowCoordWindow(t.RowLo + rr)
			iy, ix := pos.PY+y, pos.PX+x
			// With stride > 1 a clamped window may extend past the padded
			// IFM; those rows carry no kernel weights (structurally zero
			// cells), so a zero input is exact.
			if iy < padded.H && ix < padded.W {
				in[rr] = padded.At(c, iy, ix)
			}
		}
	}
	return in
}

// Scatter accumulates one cycle's column readouts res into the OFM. Columns
// whose window offset was already produced by an earlier overlapping
// position (below pos.Fresh*Lo) are skipped; every output element therefore
// receives exactly one contribution per array-row tile, and AR partial sums
// accumulate to the full convolution.
func (p *Plan) Scatter(out *tensor.Tensor3, t Tile, pos Position, res []float64) {
	l := p.M.Layer
	outW := l.OutW()
	switch p.M.Scheme {
	case core.SchemeIm2col, core.SchemeSMD:
		for cc, v := range res {
			col := t.ColLo + cc
			d, oc := 0, col
			if p.M.Dup > 1 {
				d, oc = col/l.OC, col%l.OC
			}
			if d >= len(pos.Windows) {
				continue
			}
			win := pos.Windows[d]
			oy, ox := win/outW, win%outW
			out.Set(oc, oy, ox, out.At(oc, oy, ox)+v)
		}
	default: // SDK, VW-SDK
		for cc, v := range res {
			winX, winY, oc := p.colSpec(t.ColLo + cc)
			if winX < pos.FreshXLo || winY < pos.FreshYLo {
				continue
			}
			oy := pos.OYStart + winY
			ox := pos.OXStart + winX
			out.Set(oc, oy, ox, out.At(oc, oy, ox)+v)
		}
	}
}

// PatternCells counts the weight-holding cells of tile t independent of
// weight values (an all-ones kernel), i.e. the layout's U_n term in the
// paper's eq. 9. It cross-checks core.Mapping.Tile.
func (p *Plan) PatternCells(t Tile) int64 {
	l := p.M.Layer
	ones := tensor.NewTensor4(l.OC, l.ICg(), l.KH, l.KW)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	return p.WeightTile(ones, t).NonZero()
}
