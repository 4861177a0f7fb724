package compile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/model"
)

var array512 = core.Array{Rows: 512, Cols: 512}

// bg is the context every non-cancellation test compiles under.
var bg = context.Background()

// TestCompileMatchesHandWiredPath is the acceptance differential test: a
// Compile of VGG-13 (and ResNet-18) on the paper's array must be
// bit-identical to the same stages wired by hand — core.Search per layer for
// the results and cycle totals, chip.ScheduleLayer for the makespan and
// programmings, and energy.Model.Estimate for the energy report, each
// summed in layer order.
func TestCompileMatchesHandWiredPath(t *testing.T) {
	c := New(engine.New())
	for _, n := range []model.Network{model.VGG13(), model.ResNet18()} {
		for _, nArrays := range []int{1, 8} {
			p, err := c.Compile(bg, NewRequest(n, array512, Options{Arrays: nArrays}))
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}

			var cycles, im2col, makespan int64
			var programs int
			var rep energy.Report
			for i, l := range n.CoreLayers() {
				res, err := core.Search(bg, l, array512, core.MethodVWSDK)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p.Layers[i].Search, res) {
					t.Errorf("%s/%s: search result differs from serial", n.Name, l.Name)
				}
				sched, err := chip.ScheduleLayer(res.Best, nArrays)
				if err != nil {
					t.Fatal(err)
				}
				r, err := energy.Default().Estimate(res.Best)
				if err != nil {
					t.Fatal(err)
				}
				cycles += res.Best.Cycles
				im2col += res.Im2col.Cycles
				makespan += sched.Makespan
				programs += sched.Programs
				rep.Add(r)
			}

			if p.Totals.Cycles != cycles || p.Totals.Im2colCycles != im2col {
				t.Errorf("%s: totals %d/%d, want %d/%d", n.Name,
					p.Totals.Cycles, p.Totals.Im2colCycles, cycles, im2col)
			}
			if want := float64(im2col) / float64(cycles); p.Totals.Speedup != want {
				t.Errorf("%s: speedup %v, want %v", n.Name, p.Totals.Speedup, want)
			}
			if p.Totals.Makespan != makespan || p.Totals.Programs != programs {
				t.Errorf("%s on %d arrays: makespan/programs %d/%d, want %d/%d", n.Name,
					nArrays, p.Totals.Makespan, p.Totals.Programs, makespan, programs)
			}
			if p.Totals.Energy != rep {
				t.Errorf("%s: energy totals differ\ncompile %+v\nserial  %+v",
					n.Name, p.Totals.Energy, rep)
			}
		}
	}
}

// TestCompilePaperTotals pins the paper's whole-network totals on the
// 512×512 array (Table I): VW-SDK and im2col cycles for VGG-13 and
// ResNet-18, and ResNet-18's SDK cycles, with the speedups over im2col they
// imply.
func TestCompilePaperTotals(t *testing.T) {
	c := New(core.Serial{})
	cases := []struct {
		n              model.Network
		scheme         Scheme
		cycles, im2col int64
		speedup        float64
	}{
		{model.VGG13(), VWSDK, 77102, 243736, 3.161},
		{model.ResNet18(), VWSDK, 4294, 20041, 4.667},
		{model.ResNet18(), SDK, 7240, 20041, 2.768},
	}
	for _, tc := range cases {
		p, err := c.Compile(bg, NewRequest(tc.n, array512, Options{Scheme: tc.scheme}))
		if err != nil {
			t.Fatalf("%s %v: %v", tc.n.Name, tc.scheme, err)
		}
		if p.Totals.Cycles != tc.cycles || p.Totals.Im2colCycles != tc.im2col {
			t.Errorf("%s %v: totals = %d/%d, want %d/%d", tc.n.Name, tc.scheme,
				p.Totals.Cycles, p.Totals.Im2colCycles, tc.cycles, tc.im2col)
		}
		if math.Abs(p.Totals.Speedup-tc.speedup) > 0.001 {
			t.Errorf("%s %v: speedup = %v, want %v", tc.n.Name, tc.scheme, p.Totals.Speedup, tc.speedup)
		}
	}
}

// TestCompileEngineMatchesSerial is the whole-plan differential: on every zoo
// network, three array shapes and all six search methods (the four schemes
// and both VW-SDK ablations), compiling on one shared engine — first as the
// cache fills, then again from its hits — yields plans reflect.DeepEqual to
// compiling on the serial reference searcher.
func TestCompileEngineMatchesSerial(t *testing.T) {
	serial, eng := New(core.Serial{}), New(engine.New())
	arrays := []core.Array{{Rows: 128, Cols: 128}, {Rows: 256, Cols: 512}, {Rows: 512, Cols: 512}}
	options := []Options{
		{Scheme: VWSDK},
		{Scheme: VWSDK, Variant: core.VariantSquareTiled},
		{Scheme: VWSDK, Variant: core.VariantRectFullChannel},
		{Scheme: Im2col},
		{Scheme: SMD},
		{Scheme: SDK},
	}
	for _, n := range model.All() {
		for _, a := range arrays {
			for _, o := range options {
				name := fmt.Sprintf("%s on %v, %v/%v", n.Name, a, o.Scheme, o.Variant)
				req := NewRequest(n, a, o)
				want, err := serial.Compile(bg, req)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, pass := range []string{"first", "repeat"} {
					got, err := eng.Compile(bg, req)
					if err != nil {
						t.Fatalf("%s (%s): %v", name, pass, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s (%s): engine plan differs from serial", name, pass)
					}
				}
			}
		}
	}
}

// TestCompileGroupedNetworks: the grouped zoo networks compile end-to-end
// with the group structure preserved into every layer plan, and the
// grouped-layer totals remain consistent with the serial search path.
func TestCompileGroupedNetworks(t *testing.T) {
	c := New(engine.New())
	for _, n := range []model.Network{model.MobileNetV2(), model.ResNeXt50()} {
		p, err := c.Compile(bg, NewRequest(n, array512, Options{}))
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		groupedLayers := 0
		for i, lp := range p.Layers {
			want := n.Layers[i].Layer.Normalized()
			got := lp.Search.Best.Layer
			if got.NumGroups() != want.NumGroups() {
				t.Errorf("%s/%s: plan carries %d groups, want %d",
					n.Name, want.Name, got.NumGroups(), want.NumGroups())
			}
			if want.NumGroups() > 1 {
				groupedLayers++
				if tiles := lp.Search.Best.Tiles(); tiles != lp.Search.Best.AR*lp.Search.Best.AC*want.NumGroups() {
					t.Errorf("%s/%s: Tiles = %d, want AR*AC*G", n.Name, want.Name, tiles)
				}
			}
		}
		if groupedLayers == 0 {
			t.Fatalf("%s: no grouped layers reached the compile pipeline", n.Name)
		}
		var want int64
		for _, l := range n.CoreLayers() {
			res, err := core.Search(bg, l, array512, core.MethodVWSDK)
			if err != nil {
				t.Fatal(err)
			}
			want += res.Best.Cycles
		}
		if p.Totals.Cycles != want {
			t.Errorf("%s: total cycles %d, want %d", n.Name, p.Totals.Cycles, want)
		}
	}
}

// TestCompileSchemes pins each Scheme onto the search it selects, and that
// every scheme, im2col included, reaches the compiler's searcher: one engine
// search per one-layer compile.
func TestCompileSchemes(t *testing.T) {
	e := engine.New()
	c := New(e)
	l := core.Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	cases := []struct {
		scheme Scheme
		want   func() (core.Result, error)
	}{
		{VWSDK, func() (core.Result, error) { return core.SearchVWSDK(l, array512) }},
		{SDK, func() (core.Result, error) { return core.SearchSDK(l, array512) }},
		{SMD, func() (core.Result, error) { return core.SearchSMD(l, array512) }},
		{Im2col, func() (core.Result, error) {
			m, err := core.Im2col(l, array512)
			return core.Result{Best: m, Im2col: m}, err
		}},
	}
	for i, tc := range cases {
		want, err := tc.want()
		if err != nil {
			t.Fatal(err)
		}
		lp, err := c.CompileLayer(bg, l, array512, Options{Scheme: tc.scheme})
		if err != nil {
			t.Fatalf("%v: %v", tc.scheme, err)
		}
		if !reflect.DeepEqual(lp.Search, want) {
			t.Errorf("%v: search differs\ncompile %+v\nserial  %+v", tc.scheme, lp.Search, want)
		}
		if got := e.Stats().Searches; got != uint64(i+1) {
			t.Errorf("%v: %d engine searches after %d compiles, want one per compile", tc.scheme, got, i+1)
		}
	}
	if _, err := c.CompileLayer(bg, l, array512, Options{Scheme: Scheme(42)}); err == nil ||
		!strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("unknown scheme accepted: %v", err)
	}
	if got := e.Stats().Searches; got != uint64(len(cases)) {
		t.Errorf("an unknown scheme reached the searcher: %d searches", got)
	}
}

// TestCompileVariants pins the VW-SDK ablation selection.
func TestCompileVariants(t *testing.T) {
	c := New(core.Serial{})
	l := core.Layer{Name: "conv5", IW: 56, IH: 56, KW: 3, KH: 3, IC: 128, OC: 256}
	for _, v := range []core.Variant{core.VariantFull, core.VariantSquareTiled, core.VariantRectFullChannel} {
		want, err := core.SearchVariant(l, array512, v)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := c.CompileLayer(bg, l, array512, Options{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lp.Search, want) {
			t.Errorf("variant %v: search differs from serial", v)
		}
	}
}

// TestCompileScheduleEnergyInteraction covers the chip-schedule × energy
// coupling on both schedule regimes: the plan's total energy must equal the
// component-wise sum of its per-layer reports, and each layer's makespan
// must match chip.ScheduleLayer for chips with more arrays than tiles
// (replication) and fewer arrays than tiles (sequential rounds).
func TestCompileScheduleEnergyInteraction(t *testing.T) {
	c := New(core.Serial{})
	// conv5 on 512x512 maps to a single tile (AR=AC=1); conv1's im2col rows
	// exceed one array, giving multiple tiles. A 4-array chip is then above
	// conv5's tile count (replication path) and below VGG-13 conv8's
	// (sequential-rounds path).
	n := model.VGG13()
	const nArrays = 4
	p, err := c.Compile(bg, NewRequest(n, array512, Options{Arrays: nArrays}))
	if err != nil {
		t.Fatal(err)
	}
	var sum energy.Report
	var makespan int64
	sawReplicated, sawRounds := false, false
	for i, lp := range p.Layers {
		sum.Add(lp.Energy)
		makespan += lp.Schedule.Makespan
		want, err := chip.ScheduleLayer(lp.Search.Best, nArrays)
		if err != nil {
			t.Fatal(err)
		}
		if lp.Schedule != want {
			t.Errorf("%s: schedule %+v, want %+v", n.Layers[i].Name, lp.Schedule, want)
		}
		wantRep, err := energy.Default().Estimate(lp.Search.Best)
		if err != nil {
			t.Fatal(err)
		}
		if lp.Energy != wantRep {
			t.Errorf("%s: energy report differs from direct estimate", n.Layers[i].Name)
		}
		switch {
		case nArrays >= lp.Schedule.Tiles:
			sawReplicated = true
			if lp.Schedule.Rounds != 1 || lp.Schedule.Replicas != nArrays/lp.Schedule.Tiles {
				t.Errorf("%s: replication schedule %+v", n.Layers[i].Name, lp.Schedule)
			}
		default:
			sawRounds = true
			if lp.Schedule.Replicas != 1 || lp.Schedule.Rounds < 2 {
				t.Errorf("%s: rounds schedule %+v", n.Layers[i].Name, lp.Schedule)
			}
		}
	}
	if !sawReplicated || !sawRounds {
		t.Fatalf("test network did not cover both schedule regimes on %d arrays "+
			"(replicated=%v rounds=%v)", nArrays, sawReplicated, sawRounds)
	}
	if p.Totals.Energy != sum {
		t.Errorf("total energy %+v != sum of layer reports %+v", p.Totals.Energy, sum)
	}
	if p.Totals.Makespan != makespan {
		t.Errorf("total makespan %d != sum of layer makespans %d", p.Totals.Makespan, makespan)
	}
}

// TestCompileOptionDefaults checks zero-value normalization: one array, the
// default energy model, VW-SDK, and gated peripherals layered on top.
func TestCompileOptionDefaults(t *testing.T) {
	c := New(core.Serial{})
	l := core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	p, err := c.Compile(bg, NewRequest(model.Single(l), array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Options.Arrays != 1 || p.Options.Energy == nil {
		t.Errorf("defaults not applied: %+v", p.Options)
	}
	if p.Options.Energy.GatePeripherals {
		t.Error("default options gated the peripherals")
	}
	if p.Layers[0].Search.Best.Scheme != core.SchemeVWSDK {
		t.Errorf("zero options compiled %v, want VW-SDK", p.Layers[0].Search.Best.Scheme)
	}
	if p.Layers[0].Plan != nil {
		t.Error("plan built without Options.Plans")
	}

	gated, err := c.Compile(bg, NewRequest(model.Single(l), array512, Options{GatePeripherals: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !gated.Options.Energy.GatePeripherals {
		t.Error("GatePeripherals not applied to the energy model")
	}
	if gated.Totals.Energy.EnergyTotal >= p.Totals.Energy.EnergyTotal {
		t.Errorf("gated energy %g not below full-array %g",
			gated.Totals.Energy.EnergyTotal, p.Totals.Energy.EnergyTotal)
	}
	// The plan keeps a copy of a caller's model, gated or not: the gate is
	// never set on the caller's model, and the plan never points to it.
	for _, gate := range []bool{true, false} {
		own := energy.Default()
		mine, err := c.Compile(bg, NewRequest(model.Single(l), array512, Options{Energy: &own, GatePeripherals: gate}))
		if err != nil {
			t.Fatal(err)
		}
		if own.GatePeripherals || mine.Options.Energy == &own || mine.Options.Energy.GatePeripherals != gate {
			t.Errorf("gate %v on a caller's model: caller's gate %v, plan's model %p (caller's %p) gated %v",
				gate, own.GatePeripherals, mine.Options.Energy, &own, mine.Options.Energy.GatePeripherals)
		}
	}

	planned, err := c.Compile(bg, NewRequest(model.Single(l), array512, Options{Plans: true}))
	if err != nil {
		t.Fatal(err)
	}
	if planned.Layers[0].Plan == nil {
		t.Error("Options.Plans did not build the physical plan")
	}
}

// TestCompileErrors covers the failure paths: invalid networks, arrays,
// energy models and infeasible layers, with the failing layer named.
func TestCompileErrors(t *testing.T) {
	c := New(core.Serial{})
	if _, err := c.Compile(bg, NewRequest(model.Network{Name: "empty"}, array512, Options{})); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := c.Compile(bg, NewRequest(model.VGG13(), core.Array{}, Options{})); err == nil {
		t.Error("invalid array accepted")
	}
	bad := energy.Model{}
	if _, err := c.Compile(bg, NewRequest(model.VGG13(), array512, Options{Energy: &bad})); err == nil {
		t.Error("invalid energy model accepted")
	}
	// A kernel larger than the IFM fails layer validation inside the search;
	// the compile error must name the failing layer. model.Single would
	// reject it up front, so build the network by hand.
	huge := core.Layer{Name: "huge", IW: 8, IH: 8, KW: 16, KH: 16, IC: 1, OC: 1}
	net := model.Network{Name: "bad", Layers: []model.ConvLayer{{Layer: huge, Count: 1}}}
	if _, err := c.Compile(bg, NewRequest(net, core.Array{Rows: 8, Cols: 8}, Options{})); err == nil ||
		!strings.Contains(err.Error(), "huge") {
		t.Errorf("invalid layer error should name the layer, got %v", err)
	}
}

// TestLayerLimits compiles a layer at each of core's layer limits on the
// smallest array and on the largest chip (1<<20 arrays of 65536×65536),
// and checks that no total wrapped; a layer one past any limit, or a
// network whose MACs sum past core.MaxMACs, is rejected with an error
// naming the field and its limit. Past the limits a total could wrap into
// a negative count or a zero tile count, which chip.ScheduleLayer divided
// by.
func TestLayerLimits(t *testing.T) {
	const d, c = core.MaxLayerDim, core.MaxChannels
	dims, channels, macs := fmt.Sprint(d), fmt.Sprint(c), fmt.Sprint(core.MaxMACs)
	for _, tc := range []struct {
		field           string
		at, past        func(l *core.Layer)
		want, wantLimit string
	}{
		{"IW", func(l *core.Layer) { l.IW = d }, func(l *core.Layer) { l.IW = d + 1 }, "IFM", dims},
		{"IH", func(l *core.Layer) { l.IH = d }, func(l *core.Layer) { l.IH = d + 1 }, "IFM", dims},
		{"KW", func(l *core.Layer) { l.IW, l.KW = d, d }, func(l *core.Layer) { l.IW, l.KW = d, d+1 }, "kernel", dims},
		{"KH", func(l *core.Layer) { l.IH, l.KH = d, d }, func(l *core.Layer) { l.IH, l.KH = d, d+1 }, "kernel", dims},
		{"StrideW", func(l *core.Layer) { l.StrideW = d }, func(l *core.Layer) { l.StrideW = d + 1 }, "stride", dims},
		{"StrideH", func(l *core.Layer) { l.StrideH = d }, func(l *core.Layer) { l.StrideH = d + 1 }, "stride", dims},
		{"PadW", func(l *core.Layer) { l.PadW = d }, func(l *core.Layer) { l.PadW = d + 1 }, "padding", dims},
		{"PadH", func(l *core.Layer) { l.PadH = d }, func(l *core.Layer) { l.PadH = d + 1 }, "padding", dims},
		{"IC", func(l *core.Layer) { l.IC = c }, func(l *core.Layer) { l.IC = c + 1 }, "channels", channels},
		{"OC", func(l *core.Layer) { l.OC = c }, func(l *core.Layer) { l.OC = c + 1 }, "channels", channels},
		// 1<<32 windows × 64 input × 64 output channels is 1<<44 MACs.
		{"MACs", func(l *core.Layer) { l.IW, l.IH, l.IC, l.OC = d, d, 64, 64 },
			func(l *core.Layer) { l.IW, l.IH, l.IC, l.OC = d, d, 64, 65 }, "MAC count", macs},
	} {
		at := core.Layer{Name: tc.field, IW: 1, IH: 1, KW: 1, KH: 1, IC: 1, OC: 1}
		past := at
		tc.at(&at)
		tc.past(&past)
		for _, hw := range []struct {
			a      core.Array
			arrays int
		}{{core.Array{Rows: 1, Cols: 1}, 1}, {core.Array{Rows: core.MaxArrayDim, Cols: core.MaxArrayDim}, MaxArrays}} {
			p, err := New(nil).Compile(bg, NewRequest(model.Single(at), hw.a, Options{Arrays: hw.arrays}))
			if err != nil {
				t.Errorf("%s at the limit on %v × %d: %v", tc.field, hw.a, hw.arrays, err)
				continue
			}
			if bad := wrappedTotal(p.Totals); bad != "" {
				t.Errorf("%s at the limit on %v × %d: %s wrapped: %+v", tc.field, hw.a, hw.arrays, bad, p.Totals)
			}
		}
		err := NewRequest(model.Network{Name: "n", Layers: []model.ConvLayer{{Layer: past, Count: 1}}}, array512, Options{}).Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), tc.wantLimit) {
			t.Errorf("%s one past the limit: err = %v, want one naming %s and %s", tc.field, err, tc.want, tc.wantLimit)
		}
	}
	// Two layers of 1<<43 MACs reach the network limit; a third passes it.
	half := model.ConvLayer{Layer: core.Layer{Name: "half", IW: d, IH: d, KW: 1, KH: 1, IC: 64, OC: 32}, Count: 1}
	net := model.Network{Name: "n", Layers: []model.ConvLayer{half, half}}
	if err := net.Validate(); err != nil {
		t.Errorf("network of %d MACs: %v", net.TotalMACs(), err)
	}
	net.Layers = append(net.Layers, half)
	if err := net.Validate(); err == nil || !strings.Contains(err.Error(), "MAC count") || !strings.Contains(err.Error(), macs) {
		t.Errorf("network past the MAC limit: err = %v, want one naming the MAC count and %s", err, macs)
	}
}

// wrappedTotal names the first total of t that is negative, or not a
// finite non-negative number, or "" when every total is in range.
func wrappedTotal(t Totals) string {
	e := t.Energy
	for name, v := range map[string]int64{
		"cycles": t.Cycles, "im2col cycles": t.Im2colCycles, "makespan": t.Makespan, "programs": int64(t.Programs),
		"DAC conversions": e.DACConversions, "ADC conversions": e.ADCConversions, "cell MAC cycles": e.CellMACCycles,
		"cell writes": e.CellWrites, "latency": int64(e.Latency),
	} {
		if v <= 0 {
			return name
		}
	}
	for name, v := range map[string]float64{"speedup": t.Speedup, "utilization": t.Utilization, "energy": e.EnergyTotal, "program energy": e.EnergyProgram} {
		if !(v > 0) || math.IsInf(v, 0) {
			return name
		}
	}
	return ""
}

// TestCompileRejectsNonFiniteEnergy pins that a NaN or infinite energy
// constant fails the request up front, before any layer is searched, rather
// than yielding a plan that cannot be serialized.
func TestCompileRejectsNonFiniteEnergy(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		m := energy.Default()
		m.EnergyDAC = v
		s := &peakSearcher{}
		req := NewRequest(model.VGG13(), array512, Options{Energy: &m})
		if err := req.Validate(); err == nil {
			t.Errorf("Request.Validate accepted DAC energy %v", v)
		}
		if _, err := New(s).Compile(bg, req); err == nil {
			t.Errorf("Compile accepted DAC energy %v", v)
		}
		if n := s.calls.Load(); n != 0 {
			t.Errorf("DAC energy %v: %d layer searches ran before the rejection", v, n)
		}
	}
}

// TestCompilerSharedAcrossOptions checks that one engine-backed compiler
// reuses searches across compilations (the second compile of the same
// network is served from cache).
func TestCompilerSharedAcrossOptions(t *testing.T) {
	eng := engine.New()
	c := New(eng)
	n := model.ResNet18()
	if _, err := c.Compile(bg, NewRequest(n, array512, Options{})); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	if _, err := c.Compile(bg, NewRequest(n, array512, Options{Arrays: 16, GatePeripherals: true})); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if after.CacheMisses != before.CacheMisses {
		t.Errorf("recompile re-searched: misses %d -> %d", before.CacheMisses, after.CacheMisses)
	}
	if after.CacheHits <= before.CacheHits {
		t.Errorf("recompile did not hit the cache: hits %d -> %d", before.CacheHits, after.CacheHits)
	}
}

// TestNewNilSearcher pins that New(nil) builds a working engine-backed
// compiler.
func TestNewNilSearcher(t *testing.T) {
	c := New(nil)
	if c.Searcher() == nil {
		t.Fatal("nil searcher not defaulted")
	}
	if _, err := c.CompileLayer(bg, core.Layer{Name: "c", IW: 8, IH: 8, KW: 3, KH: 3, IC: 2, OC: 2},
		core.Array{Rows: 64, Cols: 64}, Options{}); err != nil {
		t.Fatal(err)
	}
}

// peakSearcher is the serial searcher with a count of its calls and a gauge
// of how many layer searches are in flight at once. Each search sleeps a
// millisecond, so searches that are allowed to overlap do.
type peakSearcher struct {
	calls, inFlight, peak atomic.Int32
}

func (s *peakSearcher) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (core.Result, error) {
	s.calls.Add(1)
	now := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		p := s.peak.Load()
		if now <= p || s.peak.CompareAndSwap(p, now) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	return core.Search(ctx, l, a, m)
}

// TestCompileBoundsLayerFanOut pins the layer fan-out's width: a compile of
// MobileNet-V2's many layers has at most GOMAXPROCS layer searches in flight,
// not one per layer. Every layer's search goes through the searcher once, so
// the bound cannot hold vacuously.
func TestCompileBoundsLayerFanOut(t *testing.T) {
	s := &peakSearcher{}
	n := model.MobileNetV2()
	if _, err := New(s).Compile(bg, NewRequest(n, array512, Options{})); err != nil {
		t.Fatal(err)
	}
	if got := s.calls.Load(); int(got) != len(n.Layers) {
		t.Errorf("searcher called %d times for %d layers, want one call per layer", got, len(n.Layers))
	}
	if got, limit := s.peak.Load(), runtime.GOMAXPROCS(0); int(got) > limit {
		t.Errorf("%d of %d layer searches in flight at once, want at most GOMAXPROCS = %d",
			got, len(n.Layers), limit)
	}
}

// rendezvousSearcher is the serial searcher whose searches each wait, up to
// a deadline, until two of them have started: a compile through it succeeds
// only if it runs two layer searches at once.
type rendezvousSearcher struct {
	entered atomic.Int32
	both    chan struct{}
}

func (s *rendezvousSearcher) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (core.Result, error) {
	if s.entered.Add(1) == 2 {
		close(s.both)
	}
	select {
	case <-s.both:
	case <-time.After(5 * time.Second):
		return core.Result{}, errors.New("no second layer search started alongside this one")
	}
	return core.Search(ctx, l, a, m)
}

// uncachedSearcher is a rendezvousSearcher that reports every search
// uncached, as a cold engine does.
type uncachedSearcher struct{ *rendezvousSearcher }

func (uncachedSearcher) Cached(core.Layer, core.Array, core.Method) bool { return false }

// twoLayers is a network of two distinct layer shapes, the smallest compile
// with a fan-out to choose.
var twoLayers = model.Network{Name: "two", Layers: []model.ConvLayer{
	{Layer: core.Layer{Name: "a", IW: 14, IH: 14, KW: 3, KH: 3, IC: 16, OC: 16}, Count: 1},
	{Layer: core.Layer{Name: "b", IW: 28, IH: 28, KW: 3, KH: 3, IC: 16, OC: 32}, Count: 1},
}}

// TestCompileFansOutUncachedSearches: at GOMAXPROCS ≥ 2, a two-layer
// compile runs both layer searches at once, on a searcher that cannot say
// what it holds (the GOMAXPROCS width) and on one that reports both searches
// uncached (one worker per search it must compute).
func TestCompileFansOutUncachedSearches(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, s := range []core.Searcher{
		&rendezvousSearcher{both: make(chan struct{})},
		uncachedSearcher{&rendezvousSearcher{both: make(chan struct{})}},
	} {
		if _, err := New(s).Compile(bg, NewRequest(twoLayers, array512, Options{})); err != nil {
			t.Errorf("%T: %v", s, err)
		}
	}
}

// TestCompileIntoReuse pins the reuse of a plan by CompileInto: VGG-13 with
// physical plans, then AlexNet (fewer layers) and MobileNet-V2 (more) without
// them, all compiled into one plan. Each must encode to the bytes of a fresh
// Compile, and the two without Options.Plans must keep none of VGG-13's
// physical plans.
func TestCompileIntoReuse(t *testing.T) {
	c := New(engine.New())
	var dst NetworkPlan
	for _, req := range []Request{
		NewRequest(model.VGG13(), array512, Options{Plans: true}),
		NewRequest(model.AlexNet(), array512, Options{}),
		NewRequest(model.MobileNetV2(), array512, Options{}),
	} {
		if err := c.CompileInto(bg, req, &dst); err != nil {
			t.Fatal(err)
		}
		fresh, err := c.Compile(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPlan(nil, &dst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := AppendPlan(nil, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: CompileInto a reused plan differs from a fresh Compile", req.Network.Name)
		}
		for i, lp := range dst.Layers {
			if (lp.Plan != nil) != req.Options.Plans {
				t.Fatalf("%s layer %d: physical plan %v with Options.Plans %v", req.Network.Name, i, lp.Plan != nil, req.Options.Plans)
			}
		}
	}
}
