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
		kr, ocg := m.Layer.KernelRows(), m.Layer.OCg()
		return TileShape{Rows: m.Dup * kr, Cols: m.Dup * ocg, UsedCells: int64(m.Dup) * int64(kr) * int64(ocg)}
	}
	rowLo, rowHi, colLo, colHi := m.TileBounds(i, j)
	t := TileShape{Rows: rowHi - rowLo, Cols: colHi - colLo}
	if m.tileClasses() {
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

// tileClasses reports whether the mapping's tiles fall into the four
// classes of classTiles. Two layouts do not: SMD duplication, whose one
// tile holds Dup block-diagonal copies of the kernel matrix, and an SDK
// window wider than the kernel, whose window-major copies straddle column
// tiles and whose holes spread unevenly over row tiles. SDK's kernel
// window is im2col's layout.
func (m *Mapping) tileClasses() bool {
	switch m.Scheme {
	case SchemeSMD:
		return m.Dup <= 1
	case SchemeSDK:
		return m.PW == m.Layer.Kernel()
	}
	return true
}

// weightRows returns how many rows of a window-layout tile of the given
// rows, in a layout with tile classes, hold a weight in each of its
// columns. Its columns hold whole output channels of every copy, or the one
// copy, so each holds the same weight rows: all of them when the window is
// the kernel (row-granular im2col, SMD and SDK), else KW·KH of each whole
// channel the channel-granular rows hold.
func (m *Mapping) weightRows(rows int) int {
	if m.RowGranular {
		return rows
	}
	if area := m.PW.Area(); area > 0 {
		return rows / area * m.Layer.KW * m.Layer.KH
	}
	return 0
}

// classTiles returns the shape of each class of tiles, indexed [lastRow]
// [lastCol]: with tile classes, a tile's shape depends only on whether it
// is in the last row tile and whether it is in the last column tile, so
// the bounds of the first and the last tile give all four. Tiling is per
// convolution group; divisibility makes every group's grid identical.
func (m *Mapping) classTiles() (shapes [2][2]TileShape) {
	rowLo, rowHi, colLo, colHi := m.TileBounds(0, 0)
	lastRowLo, lastRowHi, lastColLo, lastColHi := m.TileBounds(m.AR-1, m.AC-1)
	rows := [2]int{rowHi - rowLo, lastRowHi - lastRowLo}
	cols := [2]int{colHi - colLo, lastColHi - lastColLo}
	for r := range shapes {
		used := int64(m.weightRows(rows[r]))
		for c := range shapes[r] {
			shapes[r][c] = TileShape{Rows: rows[r], Cols: cols[c], UsedCells: used * int64(cols[c])}
		}
	}
	return shapes
}

// EachTileClass calls f once per class of the AR×AC tile grid with the
// shape its tiles share and how many tiles it holds. There are at most four
// classes (see classTiles), holding (AR−1)(AC−1), AR−1, AC−1 and 1 tiles;
// an empty class is skipped. A layout without classes (tileClasses) has f
// see each of its tiles with count 1: SMD duplication's one tile, or every
// tile of an SDK window wider than the kernel.
func (m *Mapping) EachTileClass(f func(shape TileShape, count int64)) {
	if !m.tileClasses() {
		for i := range m.AR {
			for j := range m.AC {
				f(m.Tile(i, j), 1)
			}
		}
		return
	}
	if m.AR < 1 || m.AC < 1 {
		return
	}
	counts := [2][2]int64{{int64(m.AR-1) * int64(m.AC-1), int64(m.AR - 1)}, {int64(m.AC - 1), 1}}
	for r, row := range m.classTiles() {
		for c, shape := range row {
			if n := counts[r][c]; n > 0 {
				f(shape, n)
			}
		}
	}
}

// Utilization returns the paper's eq. 9: the average over all computing
// cycles of used weight cells over total array cells, in percent. Cycles at
// different parallel-window positions reuse the same tiles, so the average
// runs over the AR×AC tile grid (and over window groups for SMD, whose last
// group may be partial). For grouped layers the grid is one group's — the
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
	// Each tile class's fraction is computed once, [lastRow][lastCol], but
	// the sum still adds one term per tile in row-major order: a class
	// fraction times its count would round differently. An SDK window wider
	// than the kernel, which has no classes, adds each tile's own.
	var frac [2][2]float64
	for r, row := range m.classTiles() {
		for c, shape := range row {
			frac[r][c] = cellFrac(shape.UsedCells, m.Array)
		}
	}
	classes := m.tileClasses()
	var sum float64
	for i := range m.AR {
		row := &frac[0]
		if i == m.AR-1 {
			row = &frac[1]
		}
		for j := range m.AC {
			switch {
			case !classes:
				sum += cellFrac(m.Tile(i, j).UsedCells, m.Array)
			case j < m.AC-1:
				sum += row[0]
			default:
				sum += row[1]
			}
		}
	}
	return 100 * sum / float64(m.AR*m.AC)
}

// PeakUtilization returns the utilization of the fullest cycle in percent;
// the paper's "up to 73.8%" for VGG-13 layer 5 is this value.
func (m *Mapping) PeakUtilization() float64 {
	var best int64
	m.EachTileClass(func(shape TileShape, _ int64) { best = max(best, shape.UsedCells) })
	return 100 * cellFrac(best, m.Array)
}

// cellFrac returns used/total cells as a fraction.
func cellFrac(used int64, a Array) float64 {
	return float64(used) / float64(a.Cells())
}
