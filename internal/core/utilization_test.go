package core

import (
	"math"
	"testing"
	"testing/quick"
)

// TestVGG13Layer5PeakUtilization pins the paper's headline utilization
// number: VW-SDK reaches 73.8% on VGG-13 layer 5 with a 512x512 array
// (9·42·2·256 / 512² = 73.83%).
func TestVGG13Layer5PeakUtilization(t *testing.T) {
	l := Layer{Name: "conv5", IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256}
	res, err := SearchVWSDK(l, array512)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Best.PeakUtilization()
	if math.Abs(got-73.828125) > 1e-9 {
		t.Errorf("peak utilization = %v, want 73.828125", got)
	}
	// The average is lower because the last AR tile holds only
	// 128 - 3·42 = 2 channels.
	avg := res.Best.Utilization()
	want := 100 * (3*float64(9*42*512) + float64(9*2*512)) / (4 * 512 * 512)
	if math.Abs(avg-want) > 1e-9 {
		t.Errorf("avg utilization = %v, want %v", avg, want)
	}
}

// TestIm2colUtilization checks the dense row-granular accounting: VGG-13
// layer 5 im2col occupies (512+512+128)x256 cells over 3 row tiles.
func TestIm2colUtilization(t *testing.T) {
	l := Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256}
	m, err := Im2col(l, array512)
	if err != nil {
		t.Fatal(err)
	}
	if m.AR != 3 || m.AC != 1 {
		t.Fatalf("AR,AC = %d,%d, want 3,1", m.AR, m.AC)
	}
	want := 100 * float64(1152*256) / float64(3*512*512)
	if got := m.Utilization(); math.Abs(got-want) > 1e-9 {
		t.Errorf("utilization = %v, want %v (=37.5)", got, want)
	}
	tile := m.Tile(2, 0)
	if tile.Rows != 128 || tile.Cols != 256 || tile.UsedCells != 128*256 {
		t.Errorf("last tile = %+v, want 128x256 dense", tile)
	}
}

// TestSDKUtilizationBruteForce cross-checks the analytic SDK used-cell count
// against a brute-force construction of the full unrolled weight matrix.
func TestSDKUtilizationBruteForce(t *testing.T) {
	layers := []struct {
		name string
		l    Layer
		pw   Window
		a    Array
	}{
		{"fits", Layer{IW: 12, IH: 12, KW: 3, KH: 3, IC: 4, OC: 6}, Window{5, 4}, Array{128, 128}},
		{"row split", Layer{IW: 12, IH: 12, KW: 3, KH: 3, IC: 9, OC: 6}, Window{4, 4}, Array{64, 128}},
		{"col split", Layer{IW: 12, IH: 12, KW: 3, KH: 3, IC: 3, OC: 40}, Window{5, 5}, Array{128, 96}},
		{"both split", Layer{IW: 16, IH: 16, KW: 3, KH: 3, IC: 11, OC: 33}, Window{6, 5}, Array{100, 80}},
	}
	for _, tt := range layers {
		t.Run(tt.name, func(t *testing.T) {
			m, err := SDK(tt.l, tt.a, tt.pw)
			if err != nil {
				t.Fatal(err)
			}
			l := m.Layer
			area := m.PW.Area()
			totalRows := area * l.IC
			totalCols := m.Nw() * l.OC
			// Build the dense 0/1 occupancy of the full virtual matrix.
			occ := make([][]bool, totalRows)
			for r := range occ {
				occ[r] = make([]bool, totalCols)
			}
			for wy := 0; wy < m.NwH; wy++ {
				for wx := 0; wx < m.NwW; wx++ {
					w := wy*m.NwW + wx
					for c := 0; c < l.IC; c++ {
						for ky := 0; ky < l.KH; ky++ {
							for kx := 0; kx < l.KW; kx++ {
								row := c*area + (wy*l.StrideH+ky)*m.PW.W + wx*l.StrideW + kx
								for oc := 0; oc < l.OC; oc++ {
									occ[row][w*l.OC+oc] = true
								}
							}
						}
					}
				}
			}
			for i := 0; i < m.AR; i++ {
				for j := 0; j < m.AC; j++ {
					var want int64
					for r := i * tt.a.Rows; r < min((i+1)*tt.a.Rows, totalRows); r++ {
						for cc := j * tt.a.Cols; cc < min((j+1)*tt.a.Cols, totalCols); cc++ {
							if occ[r][cc] {
								want++
							}
						}
					}
					got := m.Tile(i, j).UsedCells
					if got != want {
						t.Errorf("tile(%d,%d) used = %d, want %d", i, j, got, want)
					}
				}
			}
		})
	}
}

// TestSDKFullCoverage checks that across all tiles the SDK layout stores
// exactly Nw · OC kernel copies: sum of used cells == Nw·OC·K·K·IC.
func TestSDKFullCoverage(t *testing.T) {
	f := func(iw, ic, oc, pw, ph uint8) bool {
		l := Layer{
			IW: int(iw%12) + 6, IH: int(iw%12) + 6,
			KW: 3, KH: 3, IC: int(ic%12) + 1, OC: int(oc%24) + 1,
		}
		w := Window{W: 3 + int(pw)%4, H: 3 + int(ph)%4}
		if w.W > l.IW || w.H > l.IH {
			return true
		}
		a := Array{Rows: 96, Cols: 64}
		m, err := SDK(l, a, w)
		if err != nil {
			return true
		}
		var sum int64
		for i := 0; i < m.AR; i++ {
			for j := 0; j < m.AC; j++ {
				sum += m.Tile(i, j).UsedCells
			}
		}
		want := int64(m.Nw()) * int64(l.OC) * int64(l.KernelRows())
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestVWSDKFullCoverage: VW-SDK stores Nw·OC kernel copies overall too, with
// channel-granular tiles.
func TestVWSDKFullCoverage(t *testing.T) {
	f := func(iw, ic, oc, pw, ph uint8) bool {
		l := Layer{
			IW: int(iw%12) + 6, IH: int(iw%12) + 6,
			KW: 3, KH: 3, IC: int(ic%40) + 1, OC: int(oc%40) + 1,
		}
		w := Window{W: 3 + int(pw)%4, H: 3 + int(ph)%4}
		if w.W > l.IW || w.H > l.IH {
			return true
		}
		m, err := VW(l, Array{128, 128}, w)
		if err != nil {
			return true
		}
		var sum int64
		for i := 0; i < m.AR; i++ {
			for j := 0; j < m.AC; j++ {
				tile := m.Tile(i, j)
				// Footprint bounds the array.
				if tile.Rows > 128 || tile.Cols > 128 {
					return false
				}
				sum += tile.UsedCells
			}
		}
		// Each (AR tile, AC tile) pair stores K·K·ict·Nw·oct cells;
		// summing over the grid yields K·K·IC·Nw·OC.
		want := int64(m.Nw()) * int64(l.OC) * int64(l.KernelRows())
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization is in (0, 100] for every scheme.
func TestUtilizationBounds(t *testing.T) {
	f := func(iw, ic, oc uint8) bool {
		l := Layer{
			IW: int(iw%16) + 5, IH: int(iw%16) + 5,
			KW: 3, KH: 3, IC: int(ic%32) + 1, OC: int(oc%32) + 1,
		}
		a := Array{Rows: 128, Cols: 128}
		ms := make([]Mapping, 0, 4)
		if m, err := Im2col(l, a); err == nil {
			ms = append(ms, m)
		}
		if r, err := SearchSMD(l, a); err == nil {
			ms = append(ms, r.Best)
		}
		if r, err := SearchSDK(l, a); err == nil {
			ms = append(ms, r.Best)
		}
		if r, err := SearchVWSDK(l, a); err == nil {
			ms = append(ms, r.Best)
		}
		for _, m := range ms {
			u := m.Utilization()
			p := m.PeakUtilization()
			if u <= 0 || u > 100 || p <= 0 || p > 100 || p < u-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSMDUtilization(t *testing.T) {
	// 3x3x4x8 on 128x128 with dup 3: per full cycle 3·36·8 = 864 used of
	// 16384 cells; windows = 64 = 3·21+1, so the last of 22 groups drives
	// a single copy.
	l := Layer{IW: 10, IH: 10, KW: 3, KH: 3, IC: 4, OC: 8}
	m, err := SMD(l, Array{128, 128}, 3)
	if err != nil {
		t.Fatal(err)
	}
	perCopy := float64(36*8) / float64(128*128)
	want := 100 * (21*3*perCopy + 1*perCopy) / 22
	if got := m.Utilization(); math.Abs(got-want) > 1e-9 {
		t.Errorf("SMD utilization = %v, want %v", got, want)
	}
	tile := m.Tile(0, 0)
	if tile.Rows != 108 || tile.Cols != 24 || tile.UsedCells != 864 {
		t.Errorf("SMD tile = %+v, want 108x24 used 864", tile)
	}
}

// TestUtilizationPaperOrdering reproduces the qualitative claim of Fig. 9(a):
// at 512x512 the three mappings have equal utilization on VGG-13 layers 1–3
// (identical windows up to SDK/VW equivalence), and VW-SDK is strictly
// better on layers 4–6.
func TestUtilizationPaperOrdering(t *testing.T) {
	for i, l := range vgg13Shapes()[:6] {
		im, err := Im2col(l, array512)
		if err != nil {
			t.Fatal(err)
		}
		sdk, err := SearchSDK(l, array512)
		if err != nil {
			t.Fatal(err)
		}
		vw, err := SearchVWSDK(l, array512)
		if err != nil {
			t.Fatal(err)
		}
		uIm, uSDK, uVW := im.Utilization(), sdk.Best.Utilization(), vw.Best.Utilization()
		if i >= 3 { // layers 4..6
			if uVW <= uSDK || uVW <= uIm {
				t.Errorf("layer %d: VW util %.1f not above SDK %.1f / im2col %.1f",
					i+1, uVW, uSDK, uIm)
			}
		}
	}
}

// TestPeakUtilizationWideSDK pins the one tile walk PeakUtilization keeps:
// in an SDK window wider than the kernel the first tile need not be the
// fullest. A 4×4 window of a 3×3 kernel over 3 channels on a 4×64 array
// leaves holes in each copy's rows, and row tile 1 holds 24 weight cells
// where tile 0 holds 12.
func TestPeakUtilizationWideSDK(t *testing.T) {
	l := Layer{Name: "p", IW: 8, IH: 8, KW: 3, KH: 3, IC: 3, OC: 2}
	a := Array{Rows: 4, Cols: 64}
	m, err := SDK(l, a, Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	if first, second := m.Tile(0, 0).UsedCells, m.Tile(1, 0).UsedCells; first != 12 || second != 24 {
		t.Fatalf("tiles (0, 0) and (1, 0) hold %d and %d weight cells, want 12 and 24", first, second)
	}
	if got, want := m.PeakUtilization(), 100*(24.0/256); got != want {
		t.Errorf("PeakUtilization = %v, want %v", got, want)
	}
}
