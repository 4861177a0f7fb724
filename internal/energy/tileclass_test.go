package energy

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// enumTile is a tile's shape computed from its indices alone, one tile at a
// time, as the per-tile loops did before tile classes; SDK tiles come from
// sdkTile, which walks every channel.
func enumTile(m *core.Mapping, i, j int) core.TileShape {
	l := m.Layer
	icTile := l.ICg() - (m.AR-1)*m.ICt
	if i < m.AR-1 {
		icTile = m.ICt
	}
	ocTile := l.OCg() - (m.AC-1)*m.OCt
	if j < m.AC-1 {
		ocTile = m.OCt
	}
	rowTile := l.KernelRows() - (m.AR-1)*m.Array.Rows
	if i < m.AR-1 {
		rowTile = m.Array.Rows
	}
	switch {
	case m.Scheme == core.SchemeSDK:
		return sdkTile(m, i, j)
	case m.Scheme == core.SchemeIm2col, m.Scheme == core.SchemeSMD && m.Dup <= 1:
		return core.TileShape{Rows: rowTile, Cols: ocTile, UsedCells: int64(rowTile) * int64(ocTile)}
	case m.Scheme == core.SchemeSMD:
		return core.TileShape{Rows: m.Dup * l.KernelRows(), Cols: m.Dup * l.OCg(),
			UsedCells: int64(m.Dup) * int64(l.KernelRows()) * int64(l.OCg())}
	default:
		cols := m.Nw() * ocTile
		return core.TileShape{Rows: m.PW.Area() * icTile, Cols: cols,
			UsedCells: int64(l.KW*l.KH*icTile) * int64(cols)}
	}
}

// sdkTile is an SDK tile's shape found without core's tile bounds or
// prefix counts: rows cut at i·Rows and columns at j·Cols, and the weights
// of each window copy overlapping the column tile found by enumerating its
// kernel positions channel by channel (sdkWindowRowsIn).
func sdkTile(m *core.Mapping, i, j int) core.TileShape {
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
			used += int64(cHi-cLo) * int64(sdkWindowRowsIn(m, icg, wx, wy, rowLo, rowHi))
		}
	}
	return core.TileShape{Rows: rowHi - rowLo, Cols: colHi - colLo, UsedCells: used}
}

// sdkWindowRowsIn counts the weight-holding rows of one shifted kernel copy
// (window offset wx,wy inside the parallel window) that fall in the
// row-granular range [lo, hi). Rows are laid out channel-major: each of the
// icg channels c occupies rows [c·area, (c+1)·area) in parallel-window
// raster order.
func sdkWindowRowsIn(m *core.Mapping, icg, wx, wy, lo, hi int) int {
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

// enumUtilization is eq. 9 summed over every tile in row-major order.
func enumUtilization(m *core.Mapping) float64 {
	cells := float64(m.Array.Cells())
	if m.Scheme == core.SchemeSMD && m.Dup > 1 {
		l := m.Layer
		full := m.NPW - 1
		rem := l.Windows() - full*m.Dup
		perWin := int64(l.KernelRows()) * int64(l.OCg())
		sum := float64(full)*(float64(int64(m.Dup)*perWin)/cells) + float64(int64(rem)*perWin)/cells
		return 100 * sum / float64(m.NPW)
	}
	var sum float64
	for i := 0; i < m.AR; i++ {
		for j := 0; j < m.AC; j++ {
			sum += float64(enumTile(m, i, j).UsedCells) / cells
		}
	}
	return 100 * sum / float64(m.AR*m.AC)
}

// enumPeak is the fullest tile's utilization, found by visiting every tile.
func enumPeak(m *core.Mapping) float64 {
	var best int64
	for i := 0; i < m.AR; i++ {
		for j := 0; j < m.AC; j++ {
			best = max(best, enumTile(m, i, j).UsedCells)
		}
	}
	return 100 * float64(best) / float64(m.Array.Cells())
}

// enumEstimate is the energy report accumulated one tile at a time.
func enumEstimate(e Model, m *core.Mapping) Report {
	var r Report
	npw := int64(m.NPW)
	for i := 0; i < m.AR; i++ {
		for j := 0; j < m.AC; j++ {
			tile := enumTile(m, i, j)
			rows, cols := m.Array.Rows, m.Array.Cols
			if e.GatePeripherals {
				rows, cols = tile.Rows, tile.Cols
			}
			r.DACConversions += npw * int64(rows)
			r.ADCConversions += npw * int64(cols)
			r.CellMACCycles += npw * tile.UsedCells
			r.CellWrites += int64(tile.Rows) * int64(tile.Cols)
		}
	}
	if g := int64(m.Layer.NumGroups()); g > 1 {
		r.DACConversions *= g
		r.ADCConversions *= g
		r.CellMACCycles *= g
		r.CellWrites *= g
	}
	r.Cycles = m.Cycles
	r.Latency = time.Duration(r.Cycles) * e.TCycle
	r.EnergyDAC = float64(r.DACConversions) * e.EnergyDAC
	r.EnergyADC = float64(r.ADCConversions) * e.EnergyADC
	r.EnergyCompute = float64(r.CellMACCycles) * e.EnergyCellMAC
	r.EnergyProgram = float64(r.CellWrites) * e.EnergyCellWrite
	r.EnergyTotal = r.EnergyDAC + r.EnergyADC + r.EnergyCompute
	return r
}

// candidates returns each scheme's winner on (l, a), both ablation
// winners, and SMD at duplication 1 and at its largest duplication.
func candidates(l core.Layer, a core.Array) []core.Mapping {
	var out []core.Mapping
	if m, err := core.Im2col(l, a); err == nil {
		out = append(out, m)
	}
	for _, search := range []func(core.Layer, core.Array) (core.Result, error){
		core.SearchSMD, core.SearchSDK, core.SearchVWSDK,
		func(l core.Layer, a core.Array) (core.Result, error) {
			return core.SearchVariant(l, a, core.VariantSquareTiled)
		},
		func(l core.Layer, a core.Array) (core.Result, error) {
			return core.SearchVariant(l, a, core.VariantRectFullChannel)
		},
	} {
		if r, err := search(l, a); err == nil {
			out = append(out, r.Best)
		}
	}
	n := l.Normalized()
	for _, dup := range []int{1, min(a.Rows/n.KernelRows(), a.Cols/n.OCg())} {
		if m, err := core.SMD(l, a, dup); err == nil {
			out = append(out, m)
		}
	}
	return out
}

// eachEnumerated calls check with each candidate mapping of every zoo
// layer and of eight model.Random networks on each of arrays, and then
// holds its Estimate under both peripheral models to enumEstimate, float
// for float. It leaves out, and counts, the mappings of more than maxTiles
// tiles.
func eachEnumerated(t *testing.T, arrays []core.Array, maxTiles int64, check func(l core.Layer, a core.Array, m *core.Mapping)) (skipped int) {
	t.Helper()
	var layers []core.Layer
	for _, n := range model.All() {
		layers = append(layers, n.CoreLayers()...)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		layers = append(layers, model.Random(seed, 6).CoreLayers()...)
	}
	models := []Model{Default(), Default()}
	models[1].GatePeripherals = true

	for _, l := range layers {
		for _, a := range arrays {
			for _, m := range candidates(l, a) {
				if int64(m.AR)*int64(m.AC) > maxTiles {
					skipped++
					continue
				}
				check(l, a, &m)
				for _, e := range models {
					got, err := e.Estimate(m)
					if err != nil {
						t.Fatalf("%s on %s, %v: %v", l.Name, a, m, err)
					}
					if want := enumEstimate(e, &m); got != want {
						t.Errorf("%s on %s, %v, gated=%v: Estimate = %+v, enumeration %+v",
							l.Name, a, m, e.GatePeripherals, got, want)
					}
				}
			}
		}
	}
	return skipped
}

// TestTileClassesMatchEnumeration holds the tile-class sums to a per-tile
// enumeration: Utilization, PeakUtilization and Estimate under both
// peripheral models must equal, float for float, what visiting every tile
// of the AR×AC grid gives. It covers every zoo layer and a set of random
// ones on arrays from 32×32 to 1024×1024, and fails unless the mappings
// include grids with AR = 1, with AC = 1 and with both above 1.
func TestTileClassesMatchEnumeration(t *testing.T) {
	arrays := []core.Array{{Rows: 32, Cols: 32}, {Rows: 64, Cols: 128}, {Rows: 128, Cols: 64},
		{Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}, {Rows: 1024, Cols: 1024}}

	var oneRow, oneCol, grid, sdk, smdDup int
	eachEnumerated(t, arrays, math.MaxInt64, func(l core.Layer, a core.Array, m *core.Mapping) {
		switch {
		case m.Scheme == core.SchemeSDK:
			sdk++
		case m.Scheme == core.SchemeSMD && m.Dup > 1:
			smdDup++
		case m.AR == 1:
			oneRow++
		case m.AC == 1:
			oneCol++
		default:
			grid++
		}
		if got, want := m.Utilization(), enumUtilization(m); got != want {
			t.Errorf("%s on %s, %v: Utilization = %v, enumeration %v", l.Name, a, *m, got, want)
		}
		if got, want := m.PeakUtilization(), enumPeak(m); got != want {
			t.Errorf("%s on %s, %v: PeakUtilization = %v, enumeration %v", l.Name, a, *m, got, want)
		}
	})
	t.Logf("mappings: %d with AR = 1, %d with AC = 1, %d on a larger grid, %d SDK, %d SMD dup > 1",
		oneRow, oneCol, grid, sdk, smdDup)
	if oneRow == 0 || oneCol == 0 || grid == 0 || sdk == 0 || smdDup == 0 {
		t.Error("the mappings miss a grid shape the tile classes distinguish")
	}
}

// TestTileClassesEmptyGrid pins that a mapping with no tiles (AR or AC below
// one) keeps the per-tile loops' results, bit for bit.
func TestTileClassesEmptyGrid(t *testing.T) {
	l := core.Layer{Name: "c", IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: 4}
	for _, s := range []core.Scheme{core.SchemeIm2col, core.SchemeSMD, core.SchemeSDK, core.SchemeVWSDK} {
		for _, g := range [][2]int{{0, 3}, {3, 0}, {-1, -1}, {0, 0}} {
			m := core.Mapping{Layer: l, Array: core.Array{Rows: 16, Cols: 16}, Scheme: s,
				PW: core.Window{W: 3, H: 3}, NwW: 1, NwH: 1, Dup: 1, ICt: 1, OCt: 1, AR: g[0], AC: g[1]}
			if got, want := m.Utilization(), enumUtilization(&m); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v AR=%d AC=%d: Utilization = %v, enumeration %v", s, g[0], g[1], got, want)
			}
			if got, want := m.PeakUtilization(), enumPeak(&m); got != want {
				t.Errorf("%v AR=%d AC=%d: PeakUtilization = %v, enumeration %v", s, g[0], g[1], got, want)
			}
		}
	}
}

// TestGridMatchesEnumeration holds the closed forms to the per-tile
// enumeration on arrays whose cell count is not a power of two, and on the
// 1×1 array, whose grids are the largest: there eq. 9's per-tile float sum
// and the one ratio may round apart. Grid's weight cells must equal the
// enumerated tiles' sum, Estimate under both peripheral models the
// enumerated report, PeakUtilization the fullest enumerated tile's
// fraction, and Utilization the ratio 100·(used/cells)/(AR·AC), or SMD
// duplication's window-group formula, all bit for bit. It fails unless the
// mappings include a grid with AR and AC above 1, an SDK window wider than
// the kernel and an SMD duplication.
//
// The enumeration visits at most 65,536 tiles a mapping: every mapping on
// the other arrays, and 646 of the 891 on the 1×1 array, whose largest
// grids (2.4 million tiles, 223 million in all) would take about 11 s a
// pass. TestGridAtChannelLimit pins the closed forms on the largest grid a
// layer can have.
func TestGridMatchesEnumeration(t *testing.T) {
	const maxTiles = 1 << 16
	arrays := []core.Array{{Rows: 1, Cols: 1}, {Rows: 13, Cols: 9}, {Rows: 80, Cols: 96}, {Rows: 1000, Cols: 1000}}

	var grid, wideSDK, smdDup int
	skipped := eachEnumerated(t, arrays, maxTiles, func(l core.Layer, a core.Array, m *core.Mapping) {
		switch {
		case m.Scheme == core.SchemeSMD && m.Dup > 1:
			smdDup++
		case m.Scheme == core.SchemeSDK && m.PW != m.Layer.Kernel():
			wideSDK++
		case m.AR > 1 && m.AC > 1:
			grid++
		}
		var used, best int64
		for i := 0; i < m.AR; i++ {
			for j := 0; j < m.AC; j++ {
				u := enumTile(m, i, j).UsedCells
				used += u
				best = max(best, u)
			}
		}
		if _, _, got := m.Grid(); got != used {
			t.Errorf("%s on %s, %v: Grid used = %d, enumeration %d", l.Name, a, *m, got, used)
		}
		cells := float64(a.Cells())
		want := 100 * (float64(used) / cells) / float64(int64(m.AR)*int64(m.AC))
		if m.Scheme == core.SchemeSMD && m.Dup > 1 {
			want = enumUtilization(m)
		}
		if got := m.Utilization(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s on %s, %v: Utilization = %v, want %v", l.Name, a, *m, got, want)
		}
		if got, want := m.PeakUtilization(), 100*(float64(best)/cells); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s on %s, %v: PeakUtilization = %v, enumeration %v", l.Name, a, *m, got, want)
		}
	})
	t.Logf("mappings: %d on a grid with AR, AC > 1, %d SDK wider than the kernel, %d SMD dup > 1; %d grids of more than %d tiles left out",
		grid, wideSDK, smdDup, skipped, maxTiles)
	if grid == 0 || wideSDK == 0 || smdDup == 0 {
		t.Error("the mappings miss a layout the closed forms distinguish")
	}
}

// TestGridAtChannelLimit pins the closed forms on a grid no per-tile loop
// could finish: the im2col mapping of a 1×1 layer with core.MaxChannels
// input and output channels on a 1×1 array has 1<<20 × 1<<20 tiles, each
// one weight cell, so every count is 1<<40 and the array is always full.
func TestGridAtChannelLimit(t *testing.T) {
	const c, n = core.MaxChannels, int64(core.MaxChannels) * core.MaxChannels
	l := core.Layer{Name: "wide", IW: 1, IH: 1, KW: 1, KH: 1, IC: c, OC: c}
	m, err := core.Im2col(l, core.Array{Rows: 1, Cols: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.AR != c || m.AC != c || m.Cycles != n {
		t.Fatalf("AR, AC, cycles = %d, %d, %d, want %d, %d, %d", m.AR, m.AC, m.Cycles, c, c, n)
	}
	if rows, cols, used := m.Grid(); rows != c || cols != c || used != n {
		t.Errorf("Grid = %d, %d, %d, want %d, %d, %d", rows, cols, used, c, c, n)
	}
	if u, p := m.Utilization(), m.PeakUtilization(); u != 100 || p != 100 {
		t.Errorf("Utilization, PeakUtilization = %v, %v, want 100, 100", u, p)
	}
	for _, gated := range []bool{false, true} {
		e := Default()
		e.GatePeripherals = gated
		r, err := e.Estimate(m)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != n || r.DACConversions != n || r.ADCConversions != n || r.CellMACCycles != n || r.CellWrites != n {
			t.Errorf("gated=%v: counts %+v, want %d each", gated, r, n)
		}
	}
}
