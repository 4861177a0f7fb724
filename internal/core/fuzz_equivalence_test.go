package core

import "testing"

// FuzzSearchEquivalence fuzzes random (layer, array) pairs through the class
// walk and the brute force of every corner of the ablation grid — SDK,
// Algorithm 1 and its two ablations — and holds them together with
// checkWalk: Best and Im2col identical field for field (cycles, PW, ICt,
// OCt and the width-inner/height-outer first-strictly-better tie-break),
// the walk's analytic Swept equal to the brute force's count, the whole
// Result equal on the square diagonal, and for Algorithm 1 the
// checkClosedForm pins. The gr byte selects the group structure: 0 keeps
// the layer dense, 1 makes it depthwise (G == IC == OC, ICg == 1), and
// 2..7 scale IC/OC into multiples of a proper group count. Run in CI
// alongside the unit suite
// (go test -fuzz FuzzSearchEquivalence -fuzztime 10s ./internal/core).
func FuzzSearchEquivalence(f *testing.F) {
	f.Add(uint8(14), uint8(14), uint8(3), uint8(3), uint8(64), uint8(64), uint8(1), uint8(1), uint8(0), uint8(0), uint8(3), uint8(3), uint8(0))
	f.Add(uint8(224), uint8(224), uint8(3), uint8(3), uint8(3), uint8(64), uint8(1), uint8(1), uint8(0), uint8(0), uint8(7), uint8(7), uint8(0))
	f.Add(uint8(27), uint8(27), uint8(5), uint8(5), uint8(96), uint8(255), uint8(1), uint8(1), uint8(2), uint8(2), uint8(7), uint8(7), uint8(0))
	f.Add(uint8(40), uint8(12), uint8(5), uint8(3), uint8(16), uint8(32), uint8(2), uint8(3), uint8(1), uint8(0), uint8(4), uint8(2), uint8(0))
	f.Add(uint8(56), uint8(7), uint8(7), uint8(1), uint8(8), uint8(8), uint8(4), uint8(1), uint8(0), uint8(3), uint8(0), uint8(15), uint8(0))
	// Grouped seeds: a MobileNet-style depthwise 3x3, a strided depthwise,
	// a ResNeXt-style grouped 3x3 and a grouped pointwise layer.
	f.Add(uint8(14), uint8(14), uint8(3), uint8(3), uint8(95), uint8(95), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(3), uint8(1))
	f.Add(uint8(28), uint8(28), uint8(3), uint8(3), uint8(47), uint8(47), uint8(2), uint8(2), uint8(1), uint8(1), uint8(7), uint8(7), uint8(1))
	f.Add(uint8(56), uint8(56), uint8(3), uint8(3), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(7), uint8(7), uint8(4))
	f.Add(uint8(14), uint8(14), uint8(1), uint8(1), uint8(31), uint8(47), uint8(1), uint8(1), uint8(0), uint8(0), uint8(3), uint8(3), uint8(2))
	// A rectangular kernel on a rectangular IFM, where SDK's diagonal
	// leaves the short axis first (TestSearchSDKBoundsGuard's last case).
	f.Add(uint8(9), uint8(39), uint8(2), uint8(4), uint8(1), uint8(3), uint8(1), uint8(1), uint8(0), uint8(0), uint8(15), uint8(15), uint8(0))
	f.Fuzz(func(t *testing.T, iw, ih, kw, kh, ic, oc, sw, sh, pw, ph, rows, cols, gr uint8) {
		l := Layer{
			Name: "fuzz",
			IW:   int(iw%56) + 1, IH: int(ih%56) + 1,
			KW: int(kw%9) + 1, KH: int(kh%9) + 1,
			IC: int(ic) + 1, OC: int(oc) + 1,
			StrideW: int(sw % 5), StrideH: int(sh % 5),
			PadW: int(pw % 4), PadH: int(ph % 4),
		}
		switch g := int(gr % 8); g {
		case 0: // dense
		case 1: // depthwise: one channel per group
			l.OC = l.IC
			l.Groups = l.IC
		default: // proper grouping: scale the channels into multiples of g
			l.IC *= g
			l.OC *= g
			l.Groups = g
		}
		a := Array{Rows: (int(rows%16) + 1) * 32, Cols: (int(cols%16) + 1) * 32}
		if l.Validate() != nil {
			t.Skip()
		}
		for _, m := range walkMethods {
			checkWalk(t, l, a, m)
		}
	})
}
