package vwsdk

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestQuickstart exercises the documented quickstart flow end to end.
func TestQuickstart(t *testing.T) {
	layer := Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	array := Array{Rows: 512, Cols: 512}
	res, err := SearchVWSDK(layer, array)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Best.TileString(); got != "4x3x42x256" {
		t.Errorf("TileString = %q, want 4x3x42x256 (paper Table I)", got)
	}
	if res.Best.Cycles != 504 {
		t.Errorf("cycles = %d, want 504", res.Best.Cycles)
	}
	if sp := res.SpeedupVsIm2col(); sp < 1.42 || sp > 1.44 {
		t.Errorf("speedup = %v, want ≈1.43", sp)
	}
}

func TestFacadeCostFunctions(t *testing.T) {
	l := Layer{IW: 10, IH: 10, KW: 3, KH: 3, IC: 4, OC: 8}
	a := Array{Rows: 128, Cols: 128}
	if _, err := Im2col(l, a); err != nil {
		t.Error(err)
	}
	if _, err := SMD(l, a, 2); err != nil {
		t.Error(err)
	}
	if _, err := SDK(l, a, Window{W: 4, H: 4}); err != nil {
		t.Error(err)
	}
	if _, err := VW(l, a, Window{W: 4, H: 3}); err != nil {
		t.Error(err)
	}
	if _, err := SearchSDK(l, a); err != nil {
		t.Error(err)
	}
	if _, err := SearchSMD(l, a); err != nil {
		t.Error(err)
	}
	if _, err := SearchVariant(l, a, VariantSquareTiled); err != nil {
		t.Error(err)
	}
	if _, err := VW(l, Array{Rows: 8, Cols: 8}, Window{W: 10, H: 10}); !errors.Is(err, ErrInfeasible) {
		t.Error("ErrInfeasible alias broken")
	}
}

func TestFacadeNetworks(t *testing.T) {
	if len(Networks()) != 6 {
		t.Errorf("Networks() = %d entries, want 6", len(Networks()))
	}
	n, err := NetworkByName("ResNet-18")
	if err != nil || len(n.Layers) != 5 {
		t.Fatalf("NetworkByName: %v, %d layers", err, len(n.Layers))
	}
	if VGG13().Name != "VGG-13" || ResNet18().Name != "ResNet-18" ||
		VGG16().Name != "VGG-16" || AlexNet().Name != "AlexNet" ||
		MobileNetV2().Name != "MobileNet-V2" || ResNeXt50().Name != "ResNeXt-50" {
		t.Error("zoo constructors mislabeled")
	}
	// The grouped zoo entries expose their group structure through the facade.
	grouped := 0
	for _, l := range MobileNetV2().Layers {
		if l.NumGroups() > 1 {
			grouped++
		}
	}
	if grouped == 0 {
		t.Error("facade MobileNet-V2 lost its depthwise layers")
	}
}

func TestFacadeSimulation(t *testing.T) {
	l := Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 3, OC: 4}
	a := Array{Rows: 32, Cols: 16}
	m, err := VW(l, a, Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(m, 99); err != nil {
		t.Fatal(err)
	}
	ifm := RandFeatureMap(1, l.IC, l.IH, l.IW)
	w := RandWeights(2, l.OC, l.IC, l.KH, l.KW)
	out, stats, err := RunOnCrossbar(m, ifm, w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != m.Cycles {
		t.Errorf("stats cycles = %d, want %d", stats.Cycles, m.Cycles)
	}
	if out.C != l.OC || out.H != l.OutH() || out.W != l.OutW() {
		t.Errorf("output shape %v", out)
	}
	if _, _, err := RunOnCrossbar(m, ifm, w, WithQuantization(8, 4), WithReadNoise(0.001, 3)); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAllSchemes(l, a, 5); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiles) == 0 || len(p.Positions) == 0 {
		t.Error("plan empty")
	}
	fm := NewFeatureMap(1, 2, 2)
	if fm.Len() != 4 {
		t.Error("NewFeatureMap wrong")
	}
	if NewWeights(1, 1, 2, 2).Len() != 4 {
		t.Error("NewWeights wrong")
	}
}

func TestFacadeEnergy(t *testing.T) {
	mdl := DefaultEnergyModel()
	l := Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	res, err := SearchVWSDK(l, PaperArray)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mdl.Estimate(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 504 || rep.EnergyTotal <= 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestFacadeExperiments(t *testing.T) {
	r, err := ExperimentTableI(PaperArray)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary["resnet18/vw-cycles"] != 4294 {
		t.Errorf("Table I resnet vw = %v, want 4294", r.Summary["resnet18/vw-cycles"])
	}
	if !strings.Contains(r.String(), "Table I") {
		t.Error("experiment rendering broken")
	}
	if _, err := ExperimentFig8a(PaperArray); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentFig8b(); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentFig9a(PaperArray); err != nil {
		t.Error(err)
	}
}

func TestSchemeConstantsRoundTrip(t *testing.T) {
	for s, name := range map[Scheme]string{
		SchemeIm2col: "im2col",
		SchemeSMD:    "SMD",
		SchemeSDK:    "SDK",
		SchemeVWSDK:  "VW-SDK",
	} {
		if s.String() != name {
			t.Errorf("scheme %d = %q, want %q", int(s), s.String(), name)
		}
	}
	if VariantFull.String() != "full" {
		t.Error("variant alias broken")
	}
}

func TestFacadeExtensions(t *testing.T) {
	l := Layer{IW: 9, IH: 8, KW: 3, KH: 3, IC: 4, OC: 6}
	a := Array{Rows: 64, Cols: 48}

	// Bit slicing: full precision equals the base search; an 8-bit/1-bit
	// config is strictly slower; the bit-sliced run is exact.
	base, err := SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SearchVWSDKWithPrecision(l, a, FullPrecision())
	if err != nil {
		t.Fatal(err)
	}
	if full.Best.Cycles != base.Best.Cycles {
		t.Errorf("full precision cycles %d != base %d", full.Best.Cycles, base.Best.Cycles)
	}
	p := Precision{WeightBits: 4, CellBits: 2, InputBits: 4, DACBits: 2}
	m, err := VW(l, a, Window{W: 4, H: 4})
	if err != nil {
		t.Fatal(err)
	}
	ifm := RandFeatureMap(1, l.IC, l.IH, l.IW)
	w := RandWeights(2, l.OC, l.IC, l.KH, l.KW)
	want, _, err := RunOnCrossbar(m, ifm, w)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunBitSliced(m, p, ifm, w)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("bit-sliced run differs from ideal run")
	}
	if _, err := CostWithPrecision(l, a, Window{W: 4, H: 4}, p); err != nil {
		t.Error(err)
	}
	vals := []float64{9, -9}
	QuantizeValues(vals, 3)
	if vals[0] != 3 || vals[1] != -4 {
		t.Errorf("QuantizeValues = %v", vals)
	}

	// Chip scheduling.
	s, err := ScheduleLayer(base.Best, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan <= 0 {
		t.Error("empty layer schedule")
	}

	// Network-level inference: TinyCNN on crossbar == reference.
	cnn := TinyCNN(5)
	input := RandFeatureMap(6, 3, 16, 16)
	ref, err := cnn.Infer(input, ReferenceConv)
	if err != nil {
		t.Fatal(err)
	}
	xbar := func(l Layer, x *FeatureMap, wt *Weights) (*FeatureMap, error) {
		r, err := SearchVWSDK(l, Array{Rows: 96, Cols: 64})
		if err != nil {
			return nil, err
		}
		out, _, err := RunOnCrossbar(r.Best, x, wt)
		return out, err
	}
	onPIM, err := cnn.Infer(input, xbar)
	if err != nil {
		t.Fatal(err)
	}
	if !onPIM.Equal(ref) {
		t.Error("network inference on crossbar differs from reference")
	}
	if g := GlobalAvgPool(ref); len(g) != 8 {
		t.Errorf("GlobalAvgPool len = %d", len(g))
	}
	if ReLU(ref).Len() != ref.Len() {
		t.Error("ReLU changed shape")
	}
	if MaxPool(ref, 1).Len() != ref.Len() {
		t.Error("MaxPool k=1 changed shape")
	}
	if AvgPool(ref, 3).C != ref.C {
		t.Error("AvgPool changed channels")
	}

	// Fault injection through the facade.
	faulty, _, err := RunOnCrossbar(m, ifm, w, WithStuckCells(0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Equal(want) {
		t.Error("50% stuck cells had no effect")
	}
}

// TestFacadeExhaustiveSearch checks the brute-force exports agree with the
// pruned defaults and that the pruning bookkeeping is exposed.
func TestFacadeExhaustiveSearch(t *testing.T) {
	l := Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	pruned, err := SearchVWSDK(l, PaperArray)
	if err != nil {
		t.Fatal(err)
	}
	exh, err := SearchVWSDKExhaustive(l, PaperArray)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Best != exh.Best || pruned.Swept != exh.Evaluated {
		t.Errorf("pruned %+v vs exhaustive %+v", pruned.Best, exh.Best)
	}
	if n := ExhaustiveSearchCandidates(l, VariantFull); n != 12*12-1 {
		t.Errorf("ExhaustiveSearchCandidates = %d, want 143", n)
	}
	vp, err := SearchVariant(l, PaperArray, VariantSquareTiled)
	if err != nil {
		t.Fatal(err)
	}
	ve, err := SearchVariantExhaustive(l, PaperArray, VariantSquareTiled)
	if err != nil {
		t.Fatal(err)
	}
	if vp.Best != ve.Best {
		t.Error("variant pruned/exhaustive disagree")
	}
	es, err := ExhaustiveSearcher().Search(context.Background(), l, PaperArray, MethodVWSDK)
	if err != nil {
		t.Fatal(err)
	}
	if es.Best != exh.Best {
		t.Error("ExhaustiveSearcher disagrees with SearchVWSDKExhaustive")
	}
}

// TestFacadeSearchNetwork pins ResNet-18's Table I network total through the
// facade: 4294 VW-SDK cycles and a 4.67x speedup over im2col, the same on
// the serial searcher and on an engine.
func TestFacadeSearchNetwork(t *testing.T) {
	ctx := context.Background()
	req := NewCompileRequest(ResNet18(), PaperArray, CompileOptions{})
	serial, err := NewCompiler(SerialSearcher()).Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewCompiler(NewEngine()).Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*NetworkPlan{serial, parallel} {
		if p.Totals.Cycles != 4294 {
			t.Errorf("network total = %d, want 4294", p.Totals.Cycles)
		}
		if s := p.Totals.Speedup; s < 4.66 || s > 4.68 {
			t.Errorf("speedup = %v, want 4.67", s)
		}
	}
}

// TestFacadeEngine exercises the engine exports: a memoized search, a
// compile that shares the engine's cache, and the stats and cache-size
// knobs.
func TestFacadeEngine(t *testing.T) {
	ctx := context.Background()
	a := Array{Rows: 512, Cols: 512}
	eng := NewEngine(WithCacheSize(128))
	layers := ResNet18().CoreLayers()
	res, err := eng.Search(ctx, layers[3], a, MethodVWSDK)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.TileString() != "4x3x42x256" {
		t.Errorf("conv4 tile = %s, want 4x3x42x256", res.Best.TileString())
	}
	plan, err := NewCompiler(eng).Compile(ctx, NewCompileRequest(ResNet18(), a, CompileOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Layers[3].Search != res {
		t.Error("compiled conv4 differs from the engine's search")
	}
	if st := eng.Stats(); st.Searches == 0 || st.CacheHits == 0 {
		t.Errorf("engine stats = %+v, want searches and cache hits", st)
	}
	if SerialSearcher() == nil {
		t.Error("SerialSearcher returned nil")
	}
}

// TestFacadeCompile exercises the whole-network compilation exports: a
// one-call Compile, a shared Compiler, the scheme selector and the JSON
// surfaces for both network specs and compiled plans.
func TestFacadeCompile(t *testing.T) {
	plan, err := Compile(ResNet18(), PaperArray, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Totals.Cycles != 4294 {
		t.Errorf("compiled total = %d, want 4294 (paper Table I)", plan.Totals.Cycles)
	}
	if s := plan.Totals.Speedup; s < 4.66 || s > 4.68 {
		t.Errorf("speedup = %v, want 4.67", s)
	}
	if plan.Totals.Energy.EnergyTotal <= 0 || plan.Totals.Makespan != plan.Totals.Cycles {
		t.Errorf("totals incomplete: %+v", plan.Totals)
	}

	comp := NewCompiler(NewEngine())
	sdk, err := comp.Compile(context.Background(), NewCompileRequest(ResNet18(), PaperArray, CompileOptions{Scheme: CompileSDK}))
	if err != nil {
		t.Fatal(err)
	}
	if sdk.Totals.Cycles != 7240 {
		t.Errorf("SDK total = %d, want 7240 (paper Table I)", sdk.Totals.Cycles)
	}

	data, err := plan.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := NetworkPlanFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Totals != plan.Totals {
		t.Errorf("plan JSON round trip changed totals")
	}

	spec, err := NetworkToJSON(ResNet18())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NetworkFromJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "ResNet-18" || len(n.Layers) != 5 {
		t.Errorf("network spec round trip: %q/%d layers", n.Name, len(n.Layers))
	}

	single := SingleLayerNetwork(Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64})
	lp, err := comp.CompileLayer(context.Background(), single.Layers[0].Layer, PaperArray, CompileOptions{Plans: true})
	if err != nil {
		t.Fatal(err)
	}
	if lp.Plan == nil || lp.Search.Best.Cycles <= 0 {
		t.Errorf("layer compile incomplete: %+v", lp.Search.Best)
	}
}

// TestFacadeServer boots the re-exported HTTP compile service against an
// httptest listener and round-trips one compilation.
func TestFacadeServer(t *testing.T) {
	ts := httptest.NewServer(NewServer(ServerConfig{}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
		strings.NewReader(`{"network": "ResNet-18", "array": "512x512"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	plan, err := NetworkPlanFromJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table I: ResNet-18 VW-SDK total is 4294 cycles on 512x512.
	if plan.Totals.Cycles != 4294 {
		t.Errorf("served total cycles = %d, want 4294", plan.Totals.Cycles)
	}

	key, err := CompileKey(ResNet18(), PaperArray, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if key == "" || !strings.Contains(key, "ResNet-18") {
		t.Errorf("compile key %q", key)
	}
}

// TestFacadeContextForms pins the ctx-first facade surface: the Context
// forms return exactly what the context-free wrappers return under a live
// context, and honor cancellation under a dead one.
func TestFacadeContextForms(t *testing.T) {
	ctx := context.Background()
	l := Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	plain, err := SearchVWSDK(l, PaperArray)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := SearchVWSDKContext(ctx, l, PaperArray)
	if err != nil {
		t.Fatal(err)
	}
	if plain != withCtx {
		t.Error("SearchVWSDKContext differs from SearchVWSDK")
	}
	req := NewCompileRequest(ResNet18(), PaperArray, CompileOptions{})
	plan, err := CompileContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Totals.Cycles != 4294 {
		t.Errorf("CompileContext total = %d, want 4294", plan.Totals.Cycles)
	}
	k1, err := CompileKey(ResNet18(), PaperArray, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CompileRequestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("CompileKey and CompileRequestKey disagree on the same request")
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := CompileContext(cancelled, req); err == nil {
		t.Error("CompileContext ignored a cancelled context")
	}
}

// TestFacadeOptimize exercises the co-design exports end to end: a spec
// parsed with DesignSpaceFromJSON, searched with Optimize, yielding a valid
// frontier whose points all beat each other on some objective; plus the
// serialization round trip.
func TestFacadeOptimize(t *testing.T) {
	spec := []byte(`{
	  "name": "facade",
	  "network": {"name": "T", "layers": [
	    {"name": "c1", "iw": 16, "ih": 16, "kw": 3, "kh": 3, "ic": 3, "oc": 8},
	    {"name": "c2", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 8, "oc": 16}
	  ]},
	  "arrays": ["64x64", "128x128"],
	  "chips": [1, 2],
	  "gating": [false, true]
	}`)
	space, err := DesignSpaceFromJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := space.Points(); err != nil || n != 8 {
		t.Fatalf("Points() = %d, %v; want 8", n, err)
	}
	f, err := Optimize(space)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("frontier invalid: %v", err)
	}
	if f.Evaluated != 8 || len(f.Points) < 1 || f.Dominated < 1 {
		t.Errorf("frontier shape: evaluated=%d points=%d dominated=%d",
			f.Evaluated, len(f.Points), f.Dominated)
	}

	// NewOptimizer on a shared compiler reproduces the same frontier.
	o := NewOptimizer(NewCompiler(nil))
	var events []OptimizeEvent
	f2, err := o.Run(context.Background(), space, func(e OptimizeEvent) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Points) != len(f.Points) || len(events) == 0 {
		t.Errorf("shared-compiler run: %d points (want %d), %d events",
			len(f2.Points), len(f.Points), len(events))
	}

	data, err := DesignSpaceToJSON(space)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DesignSpaceFromJSON(data)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, data)
	}
	if len(back.Arrays) != len(space.Arrays) || back.Network.Name != space.Network.Name {
		t.Errorf("round trip changed the space: %+v vs %+v", back, space)
	}
}
