package mapping

import (
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/tensor"
)

// rowCoordWindow maps a window-layout virtual row to (channel, y, x) inside
// the parallel window: channel-major, then raster order over the PW extent.
// The channel is global; for im2col (PW = K) this is conv.RowCoord's
// unrolling, group by group.
func (p *Plan) rowCoordWindow(r int) (c, y, x int) {
	area := p.M.PW.Area()
	rem := r % area
	return r / area, rem / p.M.PW.W, rem % p.M.PW.W
}

// colSpec decodes a window-layout virtual column into its window copy and
// output channel. SDK lays columns out window-major (w·OC + oc); VW-SDK and
// im2col channel-major (oc·Nw + w) so OCt tiles are contiguous. With one
// window (Nw = 1) the two orders coincide. It reads NwW·NwH rather than
// the value-receiver Nw, which would copy the whole Mapping once per cell.
func (p *Plan) colSpec(col int) (winX, winY, oc int) {
	nw := p.M.NwW * p.M.NwH
	oc, w := col/nw, col%nw
	if p.M.Scheme == core.SchemeSDK {
		w, oc = col/p.M.Layer.OC, col%p.M.Layer.OC
	}
	return w % p.M.NwW, w / p.M.NwW, oc
}

// inputCoord maps virtual row rr of tile t at position pos to the padded
// IFM element it drives. ok is false for rows that carry no input: the idle
// copies of a partial last SMD group, and the rows of a clamped strided
// window that overhang the padded IFM, which hold no kernel weights
// (structurally zero cells), so a zero input is exact.
func (p *Plan) inputCoord(t Tile, pos Position, rr int) (c, y, x int, ok bool) {
	l := p.M.Layer
	r := t.RowLo + rr
	if p.duplicated() {
		kr := l.KernelRows()
		d := r / kr
		if d >= len(pos.Windows) {
			return 0, 0, 0, false
		}
		win := pos.Windows[d]
		c, ky, kx := conv.RowCoord(l, r%kr)
		return c, win/l.OutW()*l.StrideH + ky, win%l.OutW()*l.StrideW + kx, true
	}
	c, y, x = p.rowCoordWindow(r)
	y, x = pos.PY+y, pos.PX+x
	return c, y, x, y < l.PaddedH() && x < l.PaddedW()
}

// WeightTile materializes the weight matrix for one tile: the cell values a
// crossbar is programmed with. Cells at layout positions no kernel covers
// are zero.
func (p *Plan) WeightTile(w *tensor.Tensor4, t Tile) *tensor.Matrix {
	l := p.M.Layer
	m := tensor.NewMatrix(t.Rows(), t.Cols())
	if p.duplicated() {
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
	icg := l.ICg()
	for rr := 0; rr < m.Rows; rr++ {
		// c is the global input channel; the compact grouped weight tensor
		// wants the group-local index (a tile never crosses groups, so each
		// column's output channel is in c's group).
		c, y, x := p.rowCoordWindow(t.RowLo + rr)
		c %= icg
		for cc := 0; cc < m.Cols; cc++ {
			winX, winY, oc := p.colSpec(t.ColLo + cc)
			kx := x - winX*l.StrideW
			ky := y - winY*l.StrideH
			if kx >= 0 && kx < l.KW && ky >= 0 && ky < l.KH {
				m.Set(rr, cc, w.At(oc, c, ky, kx))
			}
		}
	}
	return m
}

// InputVector gathers the row voltages for one computing cycle: tile t of
// the virtual layout at parallel-window (or SMD window-group) position pos.
// padded is the zero-padded IFM.
func (p *Plan) InputVector(padded *tensor.Tensor3, t Tile, pos Position) []float64 {
	in := make([]float64, t.Rows())
	for rr := range in {
		if c, y, x, ok := p.inputCoord(t, pos, rr); ok {
			in[rr] = padded.At(c, y, x)
		}
	}
	return in
}

// Scatter accumulates one cycle's column readouts res into the OFM. Columns
// whose window offset was already produced by an earlier overlapping
// position (below pos.Fresh*Lo), and the idle copies of a partial last SMD
// group, are skipped; every output element therefore receives exactly one
// contribution per array-row tile, and AR partial sums accumulate to the
// full convolution.
func (p *Plan) Scatter(out *tensor.Tensor3, t Tile, pos Position, res []float64) {
	l := p.M.Layer
	for cc, v := range res {
		col := t.ColLo + cc
		var oc, oy, ox int
		if p.duplicated() {
			d := col / l.OC
			if d >= len(pos.Windows) {
				continue
			}
			oc, oy, ox = col%l.OC, pos.Windows[d]/l.OutW(), pos.Windows[d]%l.OutW()
		} else {
			winX, winY, c := p.colSpec(col)
			if winX < pos.FreshXLo || winY < pos.FreshYLo {
				continue
			}
			oc, oy, ox = c, pos.OYStart+winY, pos.OXStart+winX
		}
		out.Set(oc, oy, ox, out.At(oc, oy, ox)+v)
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
