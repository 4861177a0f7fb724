package core

// TileShape describes what one computing cycle occupies on the array: the
// bounding-box footprint (rows driven by DACs, columns read by ADCs) and the
// number of cells actually holding weight values. For shifted/duplicated
// kernel layouts the footprint is larger than the weight-cell count because a
// column only stores kernel weights at the K×K positions its window covers.
type TileShape struct {
	// Rows and Cols are the occupied bounding box of the cycle.
	Rows, Cols int

	// UsedCells is the number of cells storing weights, the paper's U_n in
	// eq. 9.
	UsedCells int64
}

// TileBounds returns tile (i, j)'s virtual rows [rowLo, rowHi) and columns
// [colLo, colHi) in one convolution group's block of the window layout:
// ICg·PW rows, the parallel window unrolled channel-major, by Nw·OCg
// columns, the window's kernel copies. Row tiles step by the array's rows
// when the mapping is RowGranular (im2col, SDK), else by ICt channels of
// the window's area (eqs. 4–5); column tiles step by the array's columns
// when it is ColGranular (SDK), else by OCt output channels of every copy
// (eqs. 6–7). The last tile along each axis takes what remains. SMD
// duplication is not a window layout: Tile gives its one tile's shape.
func (m *Mapping) TileBounds(i, j int) (rowLo, rowHi, colLo, colHi int) {
	area, nw := m.PW.Area(), m.NwW*m.NwH
	rowStep, colStep := m.ICt*area, m.OCt*nw
	if m.RowGranular {
		rowStep = m.Array.Rows
	}
	if m.ColGranular {
		colStep = m.Array.Cols
	}
	rowLo, colLo = i*rowStep, j*colStep
	return rowLo, min(rowLo+rowStep, m.Layer.ICg()*area), colLo, min(colLo+colStep, m.Layer.OCg()*nw)
}

// Tile returns the shape of the cycle at array-row tile i and array-column
// tile j (0 ≤ i < AR, 0 ≤ j < AC), counted from its bounds. Every
// parallel-window position reuses the same weights, so the shape depends
// only on (i, j); for SMD the last window group may drive fewer columns,
// which Utilization accounts for separately.
func (m *Mapping) Tile(i, j int) TileShape {
	if m.Scheme == SchemeSMD && m.Dup > 1 {
		rows, cols, used := m.Grid()
		return TileShape{Rows: rows, Cols: cols, UsedCells: used}
	}
	rowLo, rowHi, colLo, colHi := m.TileBounds(i, j)
	t := TileShape{Rows: rowHi - rowLo, Cols: colHi - colLo}
	if !m.wideSDK() {
		t.UsedCells = int64(m.weightRows(t.Rows)) * int64(t.Cols)
		return t
	}
	// SDK lays its copies out window-major, OCg columns each, and a window
	// wider than the kernel leaves holes in each copy's rows: every copy in
	// the tile adds its columns there times its kernel rows in the tile. A
	// decoded plan's mapping is untrusted, so nothing divides by a size it
	// has not checked.
	ocg := m.Layer.OCg()
	if ocg <= 0 || m.PW.Area() <= 0 {
		return t
	}
	for w := max(colLo/ocg, 0); w < min(m.NwW*m.NwH, ceilDiv(colHi, ocg)); w++ {
		cols := min(colHi, (w+1)*ocg) - max(colLo, w*ocg)
		t.UsedCells += int64(cols) * int64(m.rowsBefore(w, rowHi)-m.rowsBefore(w, rowLo))
	}
	return t
}

// rowsBefore counts the virtual rows below r that hold a weight of SDK
// kernel copy w (at window offset w%NwW, w/NwW): KW·KH for each whole
// channel before r, plus the copy's raster positions before r in r's
// channel. The window's area must be positive.
func (m *Mapping) rowsBefore(w, r int) int {
	l := &m.Layer
	area := m.PW.Area()
	y, x := r%area/m.PW.W, r%area%m.PW.W
	dy, dx := w/m.NwW*l.StrideH, w%m.NwW*l.StrideW
	n := r/area*l.KW*l.KH + min(max(y-dy, 0), l.KH)*l.KW
	if y >= dy && y < dy+l.KH {
		n += min(max(x-dx, 0), l.KW)
	}
	return n
}

// wideSDK reports whether the mapping is an SDK window wider than the
// kernel, the one window layout whose columns differ in the rows that hold
// their weights: its window-major copies straddle column tiles and its
// holes spread unevenly over row tiles. SDK's kernel window is im2col's
// layout.
func (m *Mapping) wideSDK() bool {
	return m.Scheme == SchemeSDK && m.PW != m.Layer.Kernel()
}

// weightRows returns how many rows of a window-layout tile of the given
// rows hold a weight in each of its columns, in a layout that is not a
// wide SDK window. Its columns hold whole output channels of every copy,
// or the one copy, so each holds the same weight rows: all of them when the
// window is the kernel (row-granular im2col, SMD and SDK), else KW·KH of
// each whole channel the channel-granular rows hold.
func (m *Mapping) weightRows(rows int) int {
	if m.RowGranular {
		return rows
	}
	if area := m.PW.Area(); area > 0 {
		return rows / area * m.Layer.KW * m.Layer.KH
	}
	return 0
}

// Grid returns one convolution group's layout: its rows, its columns and
// the weight cells it holds. A window layout (im2col, SMD without
// duplication, SDK with any window, VW-SDK) is ICg·PW rows, the window
// unrolled channel-major, by OCg output channels of each of its NwW·NwH
// kernel copies, and each copy holds its KW·KH·ICg weights in each of its
// columns. SMD duplication is its one tile: Dup block-diagonal copies of
// the KW·KH·ICg × OCg kernel matrix. The AR×AC tiles partition the
// layout (TileBounds), so no sum over them needs to visit them: their
// weight cells add up to used, each column of tiles has rows rows and each
// row of tiles cols columns.
func (m *Mapping) Grid() (rows, cols int, used int64) {
	l := &m.Layer
	if m.Scheme == SchemeSMD && m.Dup > 1 {
		kr, ocg := l.KernelRows(), l.OCg()
		return m.Dup * kr, m.Dup * ocg, int64(m.Dup) * int64(kr) * int64(ocg)
	}
	nw, icg, ocg := m.NwW*m.NwH, l.ICg(), l.OCg()
	return icg * m.PW.Area(), ocg * nw, int64(nw) * int64(ocg) * int64(l.KW) * int64(l.KH) * int64(icg)
}

// Utilization returns the paper's eq. 9: the average over all computing
// cycles of used weight cells over total array cells, in percent. Cycles at
// different parallel-window positions reuse the same tiles, so the average
// runs over the AR×AC tile grid (and over window groups for SMD, whose last
// group may be partial). The tiles partition the layout, so their fractions
// sum to the layout's weight cells (Grid) over the array's cells, taken as
// one correctly rounded quotient. On an array whose cell count is a power
// of two each tile's fraction is exact, so a per-tile sum gives that
// quotient to the bit. For grouped layers the grid is one group's — the
// divisibility constraint (IC%G == OC%G == 0) makes every group's AR×AC
// grid identical, so the per-group average equals the all-group average.
func (m *Mapping) Utilization() float64 {
	if m.Scheme == SchemeSMD && m.Dup > 1 {
		l := &m.Layer
		full := m.NPW - 1
		rem := l.Windows() - full*m.Dup
		perWin := int64(l.KernelRows()) * int64(l.OCg())
		sum := float64(full)*cellFrac(int64(m.Dup)*perWin, m.Array) +
			cellFrac(int64(rem)*perWin, m.Array)
		return 100 * sum / float64(m.NPW)
	}
	var sum float64
	if m.AR > 0 && m.AC > 0 {
		_, _, used := m.Grid()
		sum = cellFrac(used, m.Array)
	}
	return 100 * sum / float64(int64(m.AR)*int64(m.AC))
}

// PeakUtilization returns the utilization of the fullest cycle in percent;
// the paper's "up to 73.8%" for VGG-13 layer 5 is this value. Tile (0, 0)
// is full along both axes, and it holds the most weights of any tile but
// in a wide SDK window (wideSDK), whose tiles are compared one by one.
func (m *Mapping) PeakUtilization() float64 {
	var best int64
	switch {
	case m.AR < 1 || m.AC < 1:
	case m.wideSDK():
		for i := range m.AR {
			for j := range m.AC {
				best = max(best, m.Tile(i, j).UsedCells)
			}
		}
	default:
		best = m.Tile(0, 0).UsedCells
	}
	return 100 * cellFrac(best, m.Array)
}

// cellFrac returns used/total cells as a fraction.
func cellFrac(used int64, a Array) float64 {
	return float64(used) / float64(a.Cells())
}
