// Package compile is the whole-network compilation pipeline: it takes a CNN
// (model.Network), a PIM crossbar geometry (core.Array), a chip size and an
// energy model, and produces a NetworkPlan — the single artifact that
// represents "this network, compiled for this chip".
//
// A NetworkPlan holds, per layer, the chosen mapping (a core.Result from the
// selected search), its placement on the multi-array chip
// (chip.LayerSchedule), its latency/energy estimate (energy.Report) and,
// optionally, the physical weight-placement plan (mapping.Plan); network
// totals (cycles, speedup vs im2col, makespan, energy, utilization) are
// computed once, in one place, in layer order. Compile is the repository's
// one whole-network path: the experiments, CLIs, server and examples read
// every network total from a plan, and differential tests pin those totals
// to per-layer core.Search, chip.ScheduleLayer and energy.Model.Estimate
// calls summed by hand (the by-value forms of the in-place chip.Schedule
// and energy.Model.EstimateInto a compile runs).
//
// The stages run as a pipeline: each layer's search goes through the
// compiler's Searcher (normally the memoizing engine), and scheduling,
// energy estimation and physical planning run per layer as soon as its
// search completes, reading the chosen mapping in place. On a searcher that
// serves the searches it holds in place (the engine's Hit), a compile first
// finishes every layer it serves on the calling goroutine, in layer order
// and each search looked up once, up to the first layer it must search; the
// layers from there on fan out through fanout.Each on at most GOMAXPROCS
// workers, the calling goroutine among them, so layer i's schedule is built
// while layer j is still searching. A compile whose every search is a cache
// hit starts no goroutine. Each worker fills its layer's entry of the plan
// in place. Options
// selects the mapping scheme, the VW-SDK ablation variant, the chip size and
// the peripheral model, so one Compile call covers every ablation the
// repository evaluates.
//
// A compilation is described by the canonical Request{Network, Array,
// Options} — the one type shared by the vwsdk facade, the CLI flags and
// vwsdkd's HTTP bodies — and runs under a context.Context: Compile threads
// the context into every layer search, whose loops run cooperative
// cancellation checkpoints, so cancelling the context actually stops the
// work mid-search instead of letting it run to completion.
package compile

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/fanout"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/obs"
)

// Scheme selects the mapping search a compilation runs. The zero value is
// the paper's VW-SDK search, so a zero Options compiles the full algorithm;
// the core package's Scheme enum instead starts at im2col, matching the
// paper's figure order, which would make the zero Options a baseline.
type Scheme int

// The four mapping searches a Compiler can run.
const (
	// VWSDK runs Algorithm 1 (or the Options.Variant ablation of it).
	VWSDK Scheme = iota
	// Im2col costs the im2col baseline (no search).
	Im2col
	// SMD searches sub-matrix duplication factors.
	SMD
	// SDK searches square windows with entire channels.
	SDK
)

// schemes maps each Scheme, by index, onto the core scheme it searches.
var schemes = [...]core.Scheme{
	VWSDK:  core.SchemeVWSDK,
	Im2col: core.SchemeIm2col,
	SMD:    core.SchemeSMD,
	SDK:    core.SchemeSDK,
}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemes) {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemes[s].String()
}

// schemeNames and variantNames are the one place the names of the schemes
// and VW-SDK ablations are defined, for the HTTP options, the CLI flags and
// the peer hop alike: indexed by the enum value, canonical name first. The
// empty name selects the default.
var (
	schemeNames = [...][]string{
		VWSDK:  {"vw", "", "vwsdk", "vw-sdk"},
		Im2col: {"im2col"},
		SMD:    {"smd"},
		SDK:    {"sdk"},
	}
	variantNames = [...][]string{
		core.VariantFull:            {"full", ""},
		core.VariantSquareTiled:     {"square-tiled", "square", "square+tiled"},
		core.VariantRectFullChannel: {"rect-full-channel", "rect", "rect+full-channels"},
	}
)

// ParseScheme maps a scheme name onto its Scheme: "vw" ("vwsdk", "vw-sdk" or
// empty for the default), "im2col", "smd" or "sdk". It is the one scheme
// parser of the HTTP options and the CLI flags.
func ParseScheme(name string) (Scheme, error) {
	i, err := parseName("scheme", name, schemeNames[:])
	return Scheme(i), err
}

// ParseVariant maps an ablation name onto its core.Variant: "full" (or
// empty), "square-tiled" ("square", "square+tiled") or "rect-full-channel"
// ("rect", "rect+full-channels").
func ParseVariant(name string) (core.Variant, error) {
	i, err := parseName("variant", name, variantNames[:])
	return core.Variant(i), err
}

// SchemeName returns the canonical name of s, the first name ParseScheme
// accepts for it; an unknown Scheme gets its String form, which ParseScheme
// rejects.
func SchemeName(s Scheme) string { return canonicalName(schemeNames[:], int(s), s.String()) }

// VariantName is SchemeName for the VW-SDK ablations and ParseVariant.
func VariantName(v core.Variant) string {
	return canonicalName(variantNames[:], int(v), v.String())
}

// parseName returns the index of the table entry that lists name; its error
// names the kind and lists every canonical name.
func parseName(kind, name string, table [][]string) (int, error) {
	for i, names := range table {
		if slices.Contains(names, name) {
			return i, nil
		}
	}
	have := make([]string, len(table))
	for i, names := range table {
		have[i] = names[0]
	}
	return 0, fmt.Errorf("unknown %s %q (have %s)", kind, name, strings.Join(have, ", "))
}

// canonicalName returns entry i's canonical name, or unknown when i is
// outside the table.
func canonicalName(table [][]string, i int, unknown string) string {
	if i < 0 || i >= len(table) {
		return unknown
	}
	return table[i][0]
}

// Options configures one compilation. The zero value compiles the full
// VW-SDK search for a single-array chip under the default energy model.
type Options struct {
	// Scheme selects the mapping search: VWSDK (the default), Im2col, SMD
	// or SDK.
	Scheme Scheme

	// Variant selects a VW-SDK ablation (VariantFull, VariantSquareTiled,
	// VariantRectFullChannel); only consulted when Scheme is VWSDK.
	Variant core.Variant

	// Arrays is the number of crossbars on the chip, at most MaxArrays;
	// values below 1 mean a single array.
	Arrays int

	// Energy holds the technology constants; nil selects energy.Default().
	Energy *energy.Model

	// GatePeripherals counts conversions on the programmed tile footprint
	// instead of the whole array (energy.Model.GatePeripherals), applied on
	// top of whichever model Energy selects.
	GatePeripherals bool

	// Plans additionally builds the physical weight-placement plan
	// (mapping.NewPlan) for every layer. Plans are execution artifacts, not
	// part of the serialized NetworkPlan.
	Plans bool
}

// method maps the options onto the core search they select. Compile
// rejects an unknown Scheme here, once per compilation; the Variant is
// checked by core.Search, and only for VW-SDK.
func (o Options) method() (core.Method, error) {
	if o.Scheme < 0 || int(o.Scheme) >= len(schemes) {
		return core.Method{}, fmt.Errorf("compile: unknown scheme %v", o.Scheme)
	}
	return core.Method{Scheme: schemes[o.Scheme], Variant: o.Variant}, nil
}

// defaultEnergy is the model a nil Options.Energy selects. It is only ever
// copied.
var defaultEnergy = energy.Default()

// energyModel returns the energy model the options select, the caller's or
// the default one, as a copy with GatePeripherals folded in.
func (o *Options) energyModel() energy.Model {
	m := defaultEnergy
	if o.Energy != nil {
		m = *o.Energy
	}
	m.GatePeripherals = m.GatePeripherals || o.GatePeripherals
	return m
}

// Request is the canonical description of one compilation: which network,
// on which crossbar geometry, under which options. It is the single request
// type shared by every entry point — Compiler.Compile consumes it, Key
// derives the canonical cache key from it, the vwsdk facade re-exports it,
// cmd/vwsdk builds one from its flags and internal/server resolves HTTP
// bodies into it — replacing the three loose (network, array, options)
// parameter triples those layers used to pass around.
type Request struct {
	// Network is the CNN to compile.
	Network model.Network

	// Array is the PIM crossbar geometry.
	Array core.Array

	// Options configures the compilation; the zero value compiles the full
	// VW-SDK search for a single-array chip.
	Options Options
}

// NewRequest assembles a Request from its parts.
func NewRequest(n model.Network, a core.Array, opts Options) Request {
	return Request{Network: n, Array: a, Options: opts}
}

// MaxArrays bounds a chip's array count. With core.MaxArrayDim it keeps
// every plan total inside int64; this repository's chips have at most 16.
const MaxArrays = 1 << 20

// Validate checks the request the way Compile does: network, array,
// array count, scheme and energy model must all be individually valid.
func (r Request) Validate() error {
	_, _, err := r.check()
	return err
}

// check is the validation Validate and Compile share. It returns the search
// method and the energy model the options select, so a compile derives
// them once.
func (r Request) check() (core.Method, energy.Model, error) {
	if err := r.Network.Validate(); err != nil {
		return core.Method{}, energy.Model{}, err
	}
	if err := r.Array.Validate(); err != nil {
		return core.Method{}, energy.Model{}, err
	}
	if r.Options.Arrays > MaxArrays {
		return core.Method{}, energy.Model{}, fmt.Errorf("compile: %d arrays exceed the limit of %d", r.Options.Arrays, MaxArrays)
	}
	m, err := r.Options.method()
	if err != nil {
		return core.Method{}, energy.Model{}, err
	}
	en := r.Options.energyModel()
	if err := en.Validate(); err != nil {
		return core.Method{}, energy.Model{}, err
	}
	return m, en, nil
}

// LayerPlan is one layer of a compiled network.
type LayerPlan struct {
	// Layer is the compiled layer with its occurrence count.
	Layer model.ConvLayer

	// Search is the chosen mapping and its im2col baseline.
	Search core.Result

	// Schedule places the chosen mapping on the chip.
	Schedule chip.LayerSchedule

	// Energy is the per-inference latency/energy estimate of the chosen
	// mapping.
	Energy energy.Report

	// Plan is the physical weight-placement plan; nil unless Options.Plans
	// was set. Plans are rebuilt, not serialized (see FromJSON).
	Plan *mapping.Plan `json:"-"`
}

// Totals are the whole-network numbers, aggregated over one entry per
// distinct layer shape (the paper's Table I convention: a layer's Count does
// not weight it).
type Totals struct {
	// Cycles and Im2colCycles sum the chosen and baseline mappings' cycles.
	Cycles       int64
	Im2colCycles int64

	// Speedup is Im2colCycles / Cycles.
	Speedup float64

	// Makespan is the layer-sequential chip latency in computing cycles;
	// Programs counts tile programmings across the chip.
	Makespan int64
	Programs int

	// Utilization is the cycle-weighted mean array utilization (eq. 9) of
	// the chosen mappings, in percent.
	Utilization float64

	// Energy is the component-wise sum of the per-layer reports.
	Energy energy.Report
}

// NetworkPlan is a compiled network: per-layer decisions plus totals. Build
// one with Compiler.Compile; serialize it with ToJSON / FromJSON.
//
// The embedded Request records what was compiled (network, array, options
// with defaults applied); its fields are promoted, so the serialized form —
// Network, Array, Options, Layers, Totals — is unchanged from when the plan
// carried the three fields directly.
type NetworkPlan struct {
	// Request is the compilation request this plan answers.
	Request

	// Layers holds one plan per network layer, in network order.
	Layers []LayerPlan

	// Totals are the whole-network aggregates.
	Totals Totals

	// energy is the plan's own copy of the energy model it was compiled
	// under; Options.Energy points to it.
	energy energy.Model
}

// Compiler compiles networks through a core.Searcher. Build one with New;
// a single Compiler may be shared by any number of goroutines and reuses
// its searcher's cache across Compile calls.
type Compiler struct {
	s core.Searcher
}

// New returns a Compiler running its searches through s; a nil s selects a
// fresh memoizing engine (engine.New).
func New(s core.Searcher) *Compiler {
	if s == nil {
		s = engine.New()
	}
	return &Compiler{s: s}
}

// Searcher returns the searcher the compiler runs on.
func (c *Compiler) Searcher() core.Searcher { return c.s }

// hitter is a Searcher that can serve a search it holds without searching
// (engine.Engine does): Hit copies the result into dst, counting and
// tracing the search as served, and reports whether it did; a search it
// does not hold it leaves to Search, counting and tracing nothing.
// CompileInto finishes every layer Hit serves on its caller and fans out
// only from the first layer it must search.
type hitter interface {
	Hit(ctx context.Context, l core.Layer, a core.Array, m core.Method, dst *core.Result) bool
}

// layerSpans are the spans that enclose a layer's search, the layer span
// and the search span under it, with the context each derives. A layer's
// spans start before the searcher says whether it holds the search, so the
// layer the hit pass cannot serve carries them into the fan-out: the zero
// value means none were started.
type layerSpans struct {
	lctx, sctx    context.Context
	layer, search *obs.Span
}

// startLayer copies dst's layer i into its layer plan and starts the
// layer's spans.
func startLayer(ctx context.Context, dst *NetworkPlan, i int) layerSpans {
	var ls layerSpans
	cl := &dst.Network.Layers[i]
	dst.Layers[i].Layer = *cl
	ls.lctx, ls.layer = obs.Start(ctx, "layer")
	ls.layer.SetStr("name", cl.Name)
	ls.sctx, ls.search = obs.Start(ls.lctx, "search")
	return ls
}

// compileLayer runs dst's layer i through its pipeline in the fan-out:
// search, then schedule, energy and (optionally) the physical plan as soon
// as the search returns. With resume set it runs under ls, the spans the
// hit pass started for it, and otherwise under spans of its own.
func (c *Compiler) compileLayer(ctx context.Context, dst *NetworkPlan, m core.Method, i int, ls layerSpans, resume bool) error {
	if !resume || ls.lctx == nil {
		ls = startLayer(ctx, dst, i)
	}
	lp := &dst.Layers[i]
	var err error
	lp.Search, err = c.s.Search(ls.sctx, lp.Layer.Layer, dst.Array, m)
	ls.search.End()
	if err == nil {
		err = finishLayer(ls.lctx, lp, &dst.Options)
	}
	ls.layer.End()
	return err
}

// finishLayer runs what follows a layer's search: its schedule, energy and
// (optionally) physical plan, each read from the chosen mapping in place
// and written into lp in place. The plan being built is already on the
// heap, so nothing is returned and copied. On success it writes every field
// of the layer plan its search left, so one reused from an earlier compile
// keeps nothing of it. opts are the plan's own options, so opts.Energy is
// the model Request.check validated.
func finishLayer(ctx context.Context, lp *LayerPlan, opts *Options) error {
	lp.Plan = nil
	sp := obs.StartLeaf(ctx, "schedule")
	err := chip.Schedule(&lp.Schedule, &lp.Search.Best, opts.Arrays)
	sp.End()
	if err != nil {
		return err
	}
	sp = obs.StartLeaf(ctx, "energy")
	err = opts.Energy.EstimateInto(&lp.Energy, &lp.Search.Best)
	sp.End()
	if err != nil || !opts.Plans {
		return err
	}
	pctx, sp := obs.Start(ctx, "plan")
	lp.Plan, err = mapping.NewPlanContext(pctx, lp.Search.Best)
	sp.End()
	return err
}

// Compile compiles req.Network for req.Array under req.Options into a new
// plan: it is CompileInto a fresh NetworkPlan.
func (c *Compiler) Compile(ctx context.Context, req Request) (*NetworkPlan, error) {
	p := new(NetworkPlan)
	if err := c.CompileInto(ctx, req, p); err != nil {
		return nil, err
	}
	return p, nil
}

// CompileInto compiles req.Network for req.Array under req.Options into
// dst, reusing the capacity of dst.Layers, so a caller that compiles many
// requests into one plan allocates its layer plans once. Every field of dst
// is overwritten; after an error its contents are unspecified.
//
// On a searcher that can serve a search it holds in place (an engine's
// Hit), a hit pass first runs on the caller, in layer order: each layer
// whose search the searcher holds is served into its layer plan, looked up
// once, and finished there. The pass stops at the first layer the searcher
// must search, and the fan-out takes that layer and every one after it; on
// any other searcher it takes every layer. A search served from the cache
// costs less than starting a goroutine, so a compile whose every search is
// a hit starts none, and a cold compile fans out as wide as it would
// without the pass.
//
// The fan-out runs through fanout.Each, or at width one through its
// one-worker loop, fanout.Serial: the caller is one of the workers and
// resumes the first layer left, whose spans the hit pass started, so a
// fan-out of width w starts w − 1 goroutines. Its width is the number of
// layers left, at most GOMAXPROCS; the compile span records the width as
// "workers", 1 when no layer was left. Each worker runs a layer's search
// (a hit, a miss or a join; see engine.Engine.Search) and then its
// schedule, energy and plan, filling the layer's entry of dst in place,
// before it takes the next layer. The first error in layer order wins: the
// hit pass stops at its first error, and every layer it finished precedes
// the fan-out's.
//
// Cancelling ctx aborts the compilation: no layer not yet started is
// started, every in-flight layer search stops at its next cancellation
// checkpoint, and CompileInto returns an error wrapping ctx.Err().
func (c *Compiler) CompileInto(ctx context.Context, req Request, dst *NetworkPlan) error {
	n, a := req.Network, req.Array
	m, en, err := req.check()
	if err != nil {
		return err
	}
	ctx, sp := obs.Start(ctx, "compile")
	defer sp.End()
	// The plan records the options with their defaults applied. Its energy
	// model is a copy in the plan itself, so a compile allocates none, and
	// a caller's model is never mutated or aliased.
	dst.energy = en
	req.Options.Energy = &dst.energy
	req.Options.Arrays = max(req.Options.Arrays, 1)
	dst.Request = req
	if cap(dst.Layers) < len(n.Layers) {
		dst.Layers = make([]LayerPlan, len(n.Layers))
	}
	dst.Layers = dst.Layers[:len(n.Layers)]
	i, ls := 0, layerSpans{}
	if h, ok := c.s.(hitter); ok {
		for ; i < len(n.Layers); i++ {
			if err = ctx.Err(); err != nil {
				break
			}
			ls = startLayer(ctx, dst, i)
			lp := &dst.Layers[i]
			if !h.Hit(ls.sctx, lp.Layer.Layer, a, m, &lp.Search) {
				break
			}
			ls.search.End()
			err = finishLayer(ls.lctx, lp, &dst.Options)
			ls.layer.End()
			if err != nil {
				break
			}
		}
	}
	workers := max(min(len(n.Layers)-i, runtime.GOMAXPROCS(0)), 1)
	sp.SetStr("network", n.Name).SetInt("layers", int64(len(n.Layers))).SetInt("workers", int64(workers))
	if err == nil && i < len(n.Layers) {
		var j int
		j, err = c.fanOut(ctx, dst, m, i, workers, ls)
		i += j
	}
	if err != nil {
		return fmt.Errorf("compile: %s/%s: %w", n.Name, n.Layers[i].Name, err)
	}
	dst.Totals = totals(dst.Layers)
	return nil
}

// fanOut runs the pipelines of dst's layers from first on, on workers
// workers, and returns the lowest failing one's offset from first with its
// error. The caller runs layer first, the fan-out's index 0, and resumes it
// under ls, the spans the hit pass started for it, if it started any; they
// end here if ctx ended before the layer ran. At width one the layers run
// through fanout.Serial, whose closure stays on this stack; the one given
// to Each moves to the heap.
func (c *Compiler) fanOut(ctx context.Context, dst *NetworkPlan, m core.Method, first, workers int, ls layerSpans) (int, error) {
	defer ls.layer.End()
	defer ls.search.End()
	n := len(dst.Layers) - first
	if workers == 1 {
		return fanout.Serial(ctx, n, func(j int) error { return c.compileLayer(ctx, dst, m, first+j, ls, j == 0) })
	}
	return fanout.Each(ctx, n, workers, func(j int) error { return c.compileLayer(ctx, dst, m, first+j, ls, j == 0) })
}

// CompileLayer compiles a single layer (wrapped as a one-layer network) and
// returns its LayerPlan.
func (c *Compiler) CompileLayer(ctx context.Context, l core.Layer, a core.Array, opts Options) (LayerPlan, error) {
	p, err := c.Compile(ctx, NewRequest(model.Single(l), a, opts))
	if err != nil {
		return LayerPlan{}, err
	}
	return p.Layers[0], nil
}

// totals aggregates the per-layer plans in layer order — the one place
// whole-network numbers are computed.
func totals(layers []LayerPlan) Totals {
	var t Totals
	var utilCycles float64
	for i := range layers {
		lp := &layers[i]
		t.Cycles += lp.Search.Best.Cycles
		t.Im2colCycles += lp.Search.Im2col.Cycles
		t.Makespan += lp.Schedule.Makespan
		t.Programs += lp.Schedule.Programs
		t.Energy.Add(lp.Energy)
		utilCycles += lp.Search.Best.Utilization() * float64(lp.Search.Best.Cycles)
	}
	if t.Cycles > 0 {
		t.Speedup = float64(t.Im2colCycles) / float64(t.Cycles)
		t.Utilization = utilCycles / float64(t.Cycles)
	}
	return t
}

// Validate cross-checks the plan's totals against its per-layer entries:
// total energy must equal the component-wise sum of the layer reports, the
// makespan must equal the sum of the layer schedules, and the cycle totals
// must match the searches. Deserialized plans (FromJSON) are validated with
// this.
func (p *NetworkPlan) Validate() error {
	if len(p.Layers) != len(p.Network.Layers) {
		return fmt.Errorf("compile: plan has %d layer plans for %d network layers",
			len(p.Layers), len(p.Network.Layers))
	}
	want := totals(p.Layers)
	if want != p.Totals {
		return fmt.Errorf("compile: totals %+v inconsistent with layers (recomputed %+v)",
			p.Totals, want)
	}
	return nil
}
