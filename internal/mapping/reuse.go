package mapping

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
// (no crossbar execution), reading every row through the gather InputVector
// uses.
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
