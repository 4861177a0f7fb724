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

// span returns the extent of one tile along an axis that n tiles of size full
// cover, the last of them taking what remains of total: the channels of a
// channel-granular row or column tile, or the raw rows of a row-granular one.
func span(total, full, n int, last bool) int {
	if !last {
		return full
	}
	return total - (n-1)*full
}

// Tile returns the shape of the cycle at array-row tile i and array-column
// tile j (0 ≤ i < AR, 0 ≤ j < AC). Every parallel-window position reuses the
// same weights, so the shape depends only on (i, j); for SMD the last window
// group may drive fewer columns, which Utilization accounts for separately.
func (m *Mapping) Tile(i, j int) TileShape {
	if m.Scheme == SchemeSDK {
		return m.sdkTile(i, j)
	}
	var r, c int
	if i >= m.AR-1 {
		r = 1
	}
	if j >= m.AC-1 {
		c = 1
	}
	return m.classTiles()[r][c]
}

// classTiles returns the shape of each class of tiles, for every scheme but
// SDK. Such a tile's shape depends only on whether it is in the last row
// tile and whether it is in the last column tile, so the classes are indexed
// [lastRow][lastCol]: every other row tile holds ICt channels (or,
// row-granularly, the whole array's rows), every other column tile OCt
// channels, and the last tile along each axis takes the remainder. Tiling is
// per convolution group (ICg and OCg channels); divisibility makes every
// group's grid identical.
func (m *Mapping) classTiles() (shapes [2][2]TileShape) {
	// Each value-method call copies the layer or the mapping, so the
	// derived sizes are read once.
	kernelRows, icg, ocg, nw := m.Layer.KernelRows(), m.Layer.ICg(), m.Layer.OCg(), m.Nw()
	for r, lastRow := range [2]bool{false, true} {
		for c, lastCol := range [2]bool{false, true} {
			switch {
			case m.Scheme == SchemeIm2col, m.Scheme == SchemeSMD && m.Dup <= 1:
				rows := span(kernelRows, m.Array.Rows, m.AR, lastRow)
				cols := span(ocg, m.OCt, m.AC, lastCol)
				shapes[r][c] = TileShape{Rows: rows, Cols: cols, UsedCells: int64(rows) * int64(cols)}
			case m.Scheme == SchemeSMD:
				used := int64(m.Dup) * int64(kernelRows) * int64(ocg)
				shapes[r][c] = TileShape{Rows: m.Dup * kernelRows, Cols: m.Dup * ocg, UsedCells: used}
			default: // SchemeVWSDK
				ic := span(icg, m.ICt, m.AR, lastRow)
				cols := nw * span(ocg, m.OCt, m.AC, lastCol)
				used := int64(m.Layer.KW*m.Layer.KH*ic) * int64(cols)
				shapes[r][c] = TileShape{Rows: m.PW.Area() * ic, Cols: cols, UsedCells: used}
			}
		}
	}
	return shapes
}

// EachTileClass calls f once per class of the AR×AC tile grid with the
// shape its tiles share and how many tiles it holds. For every scheme but
// SDK there are at most four classes (see classTiles), holding (AR−1)(AC−1),
// AR−1, AC−1 and 1 tiles; an empty class is skipped. SDK tiles have no
// classes, so f sees each of them with count 1.
func (m *Mapping) EachTileClass(f func(shape TileShape, count int64)) {
	if m.Scheme == SchemeSDK {
		for i := range m.AR {
			for j := range m.AC {
				f(m.sdkTile(i, j), 1)
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

// sdkTile computes the exact shape of an SDK cycle, where rows split
// row-granularly across the PW·PW·IC unrolled window and columns split
// column-granularly across the Nw·OC duplicated kernels. Weight cells are
// counted by enumerating, per window copy, the kernel positions that fall in
// the tile's row range.
func (m *Mapping) sdkTile(i, j int) TileShape {
	icg, ocg := m.Layer.ICg(), m.Layer.OCg()
	totalRows := m.PW.Area() * icg
	totalCols := m.Nw() * ocg

	rowLo := i * m.Array.Rows
	rowHi := min(rowLo+m.Array.Rows, totalRows)
	colLo := j * m.Array.Cols
	colHi := min(colLo+m.Array.Cols, totalCols)

	var used int64
	for wy := 0; wy < m.NwH; wy++ {
		for wx := 0; wx < m.NwW; wx++ {
			w := wy*m.NwW + wx
			// Columns of this window copy overlapping the column tile.
			cLo := max(colLo, w*ocg)
			cHi := min(colHi, (w+1)*ocg)
			if cLo >= cHi {
				continue
			}
			nnz := m.sdkWindowRowsIn(icg, wx, wy, rowLo, rowHi)
			used += int64(cHi-cLo) * int64(nnz)
		}
	}
	return TileShape{Rows: rowHi - rowLo, Cols: colHi - colLo, UsedCells: used}
}

// sdkWindowRowsIn counts the weight-holding rows of one shifted kernel copy
// (window offset wx,wy inside the parallel window) that fall in the
// row-granular range [lo, hi). Rows are laid out channel-major: each of the
// icg channels c occupies rows [c·area, (c+1)·area) in parallel-window
// raster order.
func (m *Mapping) sdkWindowRowsIn(icg, wx, wy, lo, hi int) int {
	l := &m.Layer
	area := m.PW.Area()
	dx := wx * l.StrideW
	dy := wy * l.StrideH
	count := 0
	for c := 0; c < icg; c++ {
		base := c * area
		if base >= hi {
			break
		}
		if base+area <= lo {
			continue
		}
		for ky := 0; ky < l.KH; ky++ {
			rowBase := base + (dy+ky)*m.PW.W + dx
			for kx := 0; kx < l.KW; kx++ {
				r := rowBase + kx
				if r >= lo && r < hi {
					count++
				}
			}
		}
	}
	return count
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
	var sum float64
	if m.Scheme == SchemeSDK {
		for i := range m.AR {
			for j := range m.AC {
				sum += cellFrac(m.sdkTile(i, j).UsedCells, m.Array)
			}
		}
		return 100 * sum / float64(m.AR*m.AC)
	}
	// Each tile class's fraction is computed once, [lastRow][lastCol], but
	// the sum still adds one term per tile in row-major order: a class
	// fraction times its count would round differently.
	var frac [2][2]float64
	for r, row := range m.classTiles() {
		for c, shape := range row {
			frac[r][c] = cellFrac(shape.UsedCells, m.Array)
		}
	}
	for i := range m.AR {
		row := &frac[0]
		if i == m.AR-1 {
			row = &frac[1]
		}
		for j := range m.AC {
			if j < m.AC-1 {
				sum += row[0]
			} else {
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
