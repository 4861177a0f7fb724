package energy

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.EnergyADC = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero ADC energy accepted")
	}
	bad = Default()
	bad.TCycle = -time.Nanosecond
	if err := bad.Validate(); err == nil {
		t.Fatal("negative cycle time accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		bad = Default()
		bad.EnergyDAC = v
		if err := bad.Validate(); err == nil {
			t.Fatalf("DAC energy %v accepted", v)
		}
		bad = Default()
		bad.EnergyCellWrite = v
		if err := bad.Validate(); err == nil {
			t.Fatalf("cell-write energy %v accepted", v)
		}
	}
}

func TestEstimateSmallLayerByHand(t *testing.T) {
	// 3x3x2x4 kernel on a 32x16 array, im2col: 18 rows, 4 cols, AR=AC=1,
	// windows = 36 cycles.
	l := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 2, OC: 4}
	a := core.Array{Rows: 32, Cols: 16}
	mp, err := core.Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	mdl := Default()
	r, err := mdl.Estimate(mp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 36 {
		t.Fatalf("cycles = %d, want 36", r.Cycles)
	}
	// Full-array peripherals: whole 32x16 banks convert every cycle.
	if r.DACConversions != 36*32 {
		t.Errorf("DAC = %d, want %d", r.DACConversions, 36*32)
	}
	if r.ADCConversions != 36*16 {
		t.Errorf("ADC = %d, want %d", r.ADCConversions, 36*16)
	}
	if r.CellMACCycles != 36*18*4 {
		t.Errorf("cell MACs = %d, want %d", r.CellMACCycles, 36*18*4)
	}
	if r.CellWrites != 18*4 {
		t.Errorf("cell writes = %d, want %d", r.CellWrites, 18*4)
	}
	if r.Latency != 3600*time.Nanosecond {
		t.Errorf("latency = %v, want 3.6us", r.Latency)
	}
	wantDAC := float64(36*32) * mdl.EnergyDAC
	if math.Abs(r.EnergyDAC-wantDAC) > 1e-18 {
		t.Errorf("EnergyDAC = %v, want %v", r.EnergyDAC, wantDAC)
	}
	// Programming is one-time and excluded from the per-inference total.
	sum := r.EnergyDAC + r.EnergyADC + r.EnergyCompute
	if math.Abs(r.EnergyTotal-sum) > 1e-18 {
		t.Errorf("EnergyTotal = %v, want %v", r.EnergyTotal, sum)
	}
	if r.EnergyProgram <= 0 {
		t.Error("EnergyProgram not reported")
	}

	// Gated peripherals convert only the 18x4 footprint.
	gated := mdl
	gated.GatePeripherals = true
	g, err := gated.Estimate(mp)
	if err != nil {
		t.Fatal(err)
	}
	if g.DACConversions != 36*18 || g.ADCConversions != 36*4 {
		t.Errorf("gated conversions = %d/%d, want %d/%d",
			g.DACConversions, g.ADCConversions, 36*18, 36*4)
	}
}

// TestGatedModelCanInvertOrdering documents the refinement recorded in
// EXPERIMENTS.md: with gated peripherals VW-SDK's wider per-cycle footprint
// can cost more conversions than im2col even though it is faster.
func TestGatedModelCanInvertOrdering(t *testing.T) {
	l := core.Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	a := core.Array{Rows: 512, Cols: 512}
	im, err := core.Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	gated := Default()
	gated.GatePeripherals = true
	rIm, err := gated.Estimate(im)
	if err != nil {
		t.Fatal(err)
	}
	rVW, err := gated.Estimate(vw.Best)
	if err != nil {
		t.Fatal(err)
	}
	if rVW.Latency >= rIm.Latency {
		t.Errorf("VW latency %v not below im2col %v", rVW.Latency, rIm.Latency)
	}
	if rVW.ADCConversions <= rIm.ADCConversions {
		t.Skipf("gated ADC ordering changed: vw=%d im=%d",
			rVW.ADCConversions, rIm.ADCConversions)
	}
}

func TestConversionsDominate(t *testing.T) {
	// The paper's premise: conversions are >98% of energy for realistic
	// layers under the default constants.
	l := core.Layer{IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256}
	a := core.Array{Rows: 512, Cols: 512}
	res, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Default().Estimate(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if f := r.ConversionFraction(); f < 0.98 {
		t.Errorf("conversion fraction = %v, want > 0.98 (paper, Section II-B)", f)
	}
}

func TestFewerCyclesLessEnergy(t *testing.T) {
	// VW-SDK's fewer cycles must translate into lower total energy than
	// im2col on the paper's layers.
	l := core.Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	a := core.Array{Rows: 512, Cols: 512}
	im, err := core.Im2col(l, a)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	mdl := Default()
	rIm, err := mdl.Estimate(im)
	if err != nil {
		t.Fatal(err)
	}
	rVW, err := mdl.Estimate(vw.Best)
	if err != nil {
		t.Fatal(err)
	}
	if rVW.EnergyTotal >= rIm.EnergyTotal {
		t.Errorf("VW energy %v not below im2col %v", rVW.EnergyTotal, rIm.EnergyTotal)
	}
	if rVW.Latency >= rIm.Latency {
		t.Errorf("VW latency %v not below im2col %v", rVW.Latency, rIm.Latency)
	}
}

// TestReportAdd pins that Report.Add sums two layer estimates component by
// component, the way a compiled plan totals its layers.
func TestReportAdd(t *testing.T) {
	a := core.Array{Rows: 128, Cols: 128}
	l1 := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 2, OC: 4}
	l2 := core.Layer{IW: 10, IH: 10, KW: 3, KH: 3, IC: 4, OC: 8}
	m1, err := core.Im2col(l1, a)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := core.Im2col(l2, a)
	if err != nil {
		t.Fatal(err)
	}
	mdl := Default()
	r1, _ := mdl.Estimate(m1)
	r2, _ := mdl.Estimate(m2)
	sum := r1
	sum.Add(r2)
	if sum.Cycles != r1.Cycles+r2.Cycles {
		t.Errorf("cycles = %d, want %d", sum.Cycles, r1.Cycles+r2.Cycles)
	}
	if math.Abs(sum.EnergyTotal-(r1.EnergyTotal+r2.EnergyTotal)) > 1e-18 {
		t.Errorf("energy sum mismatch")
	}
	if sum.Latency != r1.Latency+r2.Latency {
		t.Errorf("latency sum mismatch")
	}
}

func TestEstimateErrors(t *testing.T) {
	mdl := Default()
	if _, err := mdl.Estimate(core.Mapping{}); err == nil {
		t.Error("uncosted mapping accepted")
	}
	bad := Model{}
	l := core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 2, OC: 4}
	m, err := core.Im2col(l, core.Array{Rows: 32, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Estimate(m); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestConversionFractionZero(t *testing.T) {
	if (Report{}).ConversionFraction() != 0 {
		t.Fatal("empty report should have zero conversion fraction")
	}
}

// TestEstimateGrouped: a grouped layer's per-group AR×AC grid is identical
// across groups (the divisibility constraint guarantees it), so every counter
// is exactly G times its dense per-group slice — matching the G× cycle count.
func TestEstimateGrouped(t *testing.T) {
	l := core.Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 96, OC: 96,
		PadW: 1, PadH: 1, Groups: 96}
	slice := l
	slice.IC, slice.OC, slice.Groups = l.ICg(), l.OCg(), 0
	a := core.Array{Rows: 128, Cols: 64}
	mdl := Default()
	for _, gate := range []bool{false, true} {
		mdl.GatePeripherals = gate
		gm, err := core.Im2col(l, a)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := core.Im2col(slice, a)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := mdl.Estimate(gm)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := mdl.Estimate(sm)
		if err != nil {
			t.Fatal(err)
		}
		g := int64(l.NumGroups())
		if gr.Cycles != g*sr.Cycles {
			t.Errorf("gate=%v: cycles %d, want %d", gate, gr.Cycles, g*sr.Cycles)
		}
		if gr.DACConversions != g*sr.DACConversions || gr.ADCConversions != g*sr.ADCConversions {
			t.Errorf("gate=%v: conversions %d/%d, want %d/%d", gate,
				gr.DACConversions, gr.ADCConversions, g*sr.DACConversions, g*sr.ADCConversions)
		}
		if gr.CellMACCycles != g*sr.CellMACCycles {
			t.Errorf("gate=%v: cell MACs %d, want %d", gate, gr.CellMACCycles, g*sr.CellMACCycles)
		}
		if gr.CellWrites != g*sr.CellWrites {
			t.Errorf("gate=%v: cell writes %d, want %d", gate, gr.CellWrites, g*sr.CellWrites)
		}
	}
}

// TestEstimateIntoOverwrites: EstimateInto into a report that holds another
// layer's writes every field, so it equals Estimate's fresh result, on the
// VW-SDK winner and the im2col baseline of every zoo layer on 128², 256²
// and 512² arrays, gated and not, and the zero report on an error.
func TestEstimateIntoOverwrites(t *testing.T) {
	var ms []core.Mapping
	for _, a := range []core.Array{{Rows: 128, Cols: 128}, {Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}} {
		for _, n := range model.All() {
			for _, l := range n.CoreLayers() {
				r, err := core.Search(context.Background(), l, a, core.MethodVWSDK)
				if err != nil {
					t.Fatal(err)
				}
				ms = append(ms, r.Best, r.Im2col)
			}
		}
	}
	var dst Report
	for _, gated := range []bool{false, true} {
		m := Default()
		m.GatePeripherals = gated
		for i, mp := range ms {
			want, err := m.Estimate(mp)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.EstimateInto(&dst, &ms[(i+len(ms)/2)%len(ms)]); err != nil {
				t.Fatal(err)
			}
			if err := m.EstimateInto(&dst, &ms[i]); err != nil || dst != want {
				t.Fatalf("gated %v, %v: EstimateInto over another layer's = %+v, %v; want %+v", gated, mp, dst, err, want)
			}
		}
	}
	m := Default()
	uncosted := core.Mapping{Layer: ms[0].Layer, Array: ms[0].Array}
	if err := m.EstimateInto(&dst, &uncosted); err == nil || dst != (Report{}) {
		t.Errorf("EstimateInto of an uncosted mapping = %+v, %v; want the zero report and an error", dst, err)
	}
}
