package mapping

import (
	"repro/internal/conv"
	"repro/internal/core"
)

// ReuseStats quantifies input-feature-map reuse — the motivation of the
// paper's Fig. 1: im2col re-reads overlapping window elements every cycle,
// while a parallel window reads each covered element once and shares it
// across its Nw duplicated kernels.
type ReuseStats struct {
	// Driven is the total number of row values driven across all
	// computing cycles (DAC loads, including structurally-zero rows).
	Driven int64

	// Distinct is the number of distinct (channel, y, x) IFM elements the
	// schedule reads at least once.
	Distinct int64

	// LoadsPerElement is Driven/Distinct: the average number of times each
	// needed input element crosses a DAC. 1.0 would be perfect reuse.
	LoadsPerElement float64
}

// InputReuse computes the schedule's input-load statistics analytically
// (no crossbar execution), by walking the same gather geometry Execute uses.
func (p *Plan) InputReuse() ReuseStats {
	l := p.M.Layer
	padW := l.PaddedW()
	seen := make(map[int]struct{})
	var driven int64
	for _, t := range p.Tiles {
		for _, pos := range p.Positions {
			driven += int64(t.Rows())
			for rr := 0; rr < t.Rows(); rr++ {
				c, y, x, ok := p.inputCoord(t, pos, rr)
				if !ok {
					continue
				}
				seen[(c*l.PaddedH()+y)*padW+x] = struct{}{}
			}
		}
	}
	out := ReuseStats{Driven: driven, Distinct: int64(len(seen))}
	if out.Distinct > 0 {
		out.LoadsPerElement = float64(out.Driven) / float64(out.Distinct)
	}
	return out
}

// inputCoord maps virtual row rr of tile t at position pos to its padded
// IFM coordinate, mirroring InputVector's gather. ok is false for rows that
// carry no input (idle SMD copies, or strided windows overhanging the IFM).
func (p *Plan) inputCoord(t Tile, pos Position, rr int) (c, y, x int, ok bool) {
	l := p.M.Layer
	r := t.RowLo + rr
	switch p.M.Scheme {
	case core.SchemeIm2col, core.SchemeSMD:
		kr := l.KernelRows()
		d, rk := r/kr, r%kr
		if d >= len(pos.Windows) {
			return 0, 0, 0, false
		}
		win := pos.Windows[d]
		oy, ox := win/l.OutW(), win%l.OutW()
		c, ky, kx := conv.RowCoord(l, rk)
		return c, oy*l.StrideH + ky, ox*l.StrideW + kx, true
	default:
		c, wy, wx := p.rowCoordWindow(r)
		iy, ix := pos.PY+wy, pos.PX+wx
		if iy >= l.PaddedH() || ix >= l.PaddedW() {
			return 0, 0, 0, false
		}
		return c, iy, ix, true
	}
}
