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
// calls summed by hand.
//
// The stages run as a pipeline: layers fan out through fanout.Each on at
// most GOMAXPROCS workers, the calling goroutine among them, each layer's
// search goes through the compiler's Searcher (normally the memoizing
// engine), and scheduling, energy estimation and physical planning
// run per layer as soon as its search completes — layer i's schedule is
// built while layer j is still searching. On a searcher that reports which
// searches it holds (the engine), a compile fans out only for the searches
// it must compute, so one whose every search is a cache hit runs on its
// caller. Each worker fills its layer's entry of the plan in place. Options
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

// compileLayer runs the full per-layer pipeline of dst's layer i into its
// layer plan: search, then schedule, energy and (optionally) the physical
// plan as soon as the search returns. The plan being built is already on
// the heap, so the layer plan is filled in place instead of being returned
// and copied. A compile that succeeds writes every field of the layer plan,
// so one reused from an earlier compile keeps nothing of it.
func (c *Compiler) compileLayer(ctx context.Context, dst *NetworkPlan, i int) error {
	lp, cl, a, opts := &dst.Layers[i], &dst.Network.Layers[i], dst.Array, &dst.Options
	ctx, lsp := obs.Start(ctx, "layer")
	defer lsp.End()
	lsp.SetStr("name", cl.Name)
	lp.Layer = *cl
	m, _ := opts.method() // Compile rejected an unknown scheme
	sctx, sp := obs.Start(ctx, "search")
	var err error
	lp.Search, err = c.s.Search(sctx, cl.Layer, a, m)
	sp.End()
	if err != nil {
		return err
	}
	sp = obs.StartLeaf(ctx, "schedule")
	lp.Schedule, err = chip.ScheduleLayer(lp.Search.Best, opts.Arrays)
	sp.End()
	if err != nil {
		return err
	}
	sp = obs.StartLeaf(ctx, "energy")
	lp.Energy, err = opts.Energy.Estimate(lp.Search.Best)
	sp.End()
	if err != nil {
		return err
	}
	lp.Plan = nil
	if opts.Plans {
		pctx, sp := obs.Start(ctx, "plan")
		lp.Plan, err = mapping.NewPlanContext(pctx, lp.Search.Best)
		sp.End()
	}
	return err
}

// cacher is a Searcher that can tell, without searching, whether it holds
// a search's result already (engine.Engine does). Compile asks it how many
// of a network's searches still need computing and fans out only that wide.
type cacher interface {
	Cached(l core.Layer, a core.Array, m core.Method) bool
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
// Layer pipelines run through fanout.Each, or at width one through its
// one-worker loop, fanout.Serial: the caller is one of the workers, so a
// compile of width w starts w − 1 goroutines. The width is GOMAXPROCS,
// except on a searcher that reports what it holds (an engine): there it is
// the number of layers whose search the searcher must compute, counted up
// to GOMAXPROCS and at least one. A search served from the cache costs less
// than starting a goroutine, so a compile whose every search is a hit runs
// on its caller; a stale count changes only where a layer runs, never its
// result. The compile span records the width as "workers". Each worker runs
// a layer's search and then its schedule, energy and plan, filling the
// layer's entry of dst in place, before it takes the next layer. The first
// error in layer order wins.
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
	workers := c.width(n.Layers, a, m)
	sp.SetStr("network", n.Name).SetInt("layers", int64(len(n.Layers))).SetInt("workers", int64(workers))
	// At width one the layers run through fanout.Serial, whose closure stays
	// on this stack; the one given to Each moves to the heap.
	var i int
	if workers == 1 {
		i, err = fanout.Serial(ctx, len(n.Layers), func(i int) error { return c.compileLayer(ctx, dst, i) })
	} else {
		i, err = fanout.Each(ctx, len(n.Layers), workers, func(i int) error { return c.compileLayer(ctx, dst, i) })
	}
	if err != nil {
		return fmt.Errorf("compile: %s/%s: %w", n.Name, n.Layers[i].Name, err)
	}
	dst.Totals = totals(dst.Layers)
	return nil
}

// width returns the fan-out width of a compile of layers, a validated
// network's, so at least one: GOMAXPROCS, at most one worker per layer, and
// on a cacher one worker per search it must compute.
func (c *Compiler) width(layers []model.ConvLayer, a core.Array, m core.Method) int {
	w := min(len(layers), runtime.GOMAXPROCS(0))
	cs, ok := c.s.(cacher)
	if !ok || w == 1 {
		return w
	}
	uncached := 0
	for i := 0; i < len(layers) && uncached < w; i++ {
		if !cs.Cached(layers[i].Layer, a, m) {
			uncached++
		}
	}
	return max(uncached, 1)
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
