// Package vwsdk is the public API of the VW-SDK reproduction: efficient
// convolutional weight mapping using variable windows for processing-in-
// memory (PIM) architectures (Rhe, Moon, Ko — DATE 2022).
//
// The package finds, for a convolutional layer and a PIM crossbar array, the
// parallel-window shape and channel tiling that minimize computing cycles:
//
//	layer := vwsdk.Layer{Name: "conv4", IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
//	array := vwsdk.Array{Rows: 512, Cols: 512}
//	res, err := vwsdk.SearchVWSDK(layer, array)
//	// res.Best.TileString() == "4x3x42x256", res.Best.Cycles == 504
//
// Beyond the optimizer it bundles everything needed to reproduce the paper
// and to validate mappings end to end:
//
//   - cost models and searches for the im2col, SMD and SDK baselines;
//   - a functional crossbar simulator with optional quantization and read
//     noise, on which any mapping can be executed and verified bit-for-bit
//     against a reference convolution (Verify, RunOnCrossbar);
//   - the paper's model zoo (VGG-13, ResNet-18) plus extras;
//   - a latency/energy estimator (conversion-dominated, per the paper);
//   - a Pareto-frontier hardware co-design search over array geometry,
//     per-layer-group array assignment, chip count and peripheral gating
//     (Optimize, DesignSpace, Frontier);
//   - generators for every table and figure of the paper's evaluation
//     (ExperimentTableI, ExperimentFig8a, ...).
//
// The implementation lives in internal/ packages; this package re-exports
// the stable surface via type aliases, so the types below are identical to
// the ones used throughout the repository.
package vwsdk

import (
	"context"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/pimarray"
	"repro/internal/server"
	"repro/internal/tensor"
)

// Layer describes a convolutional layer (IFM size, kernel, channels, stride,
// padding). See core.Layer.
type Layer = core.Layer

// Array describes a PIM crossbar as Rows×Cols cells. See core.Array.
type Array = core.Array

// Window is a parallel-window shape. See core.Window.
type Window = core.Window

// Mapping is a costed mapping decision. See core.Mapping.
type Mapping = core.Mapping

// Scheme identifies a mapping scheme.
type Scheme = core.Scheme

// Mapping schemes.
const (
	SchemeIm2col = core.SchemeIm2col
	SchemeSMD    = core.SchemeSMD
	SchemeSDK    = core.SchemeSDK
	SchemeVWSDK  = core.SchemeVWSDK
)

// SearchResult is the outcome of a mapping search. See core.Result.
type SearchResult = core.Result

// Variant selects an ablation of the VW-SDK search.
type Variant = core.Variant

// Ablation variants (DESIGN.md §5).
const (
	VariantFull            = core.VariantFull
	VariantSquareTiled     = core.VariantSquareTiled
	VariantRectFullChannel = core.VariantRectFullChannel
)

// ErrInfeasible marks windows that cannot be mapped at all.
var ErrInfeasible = core.ErrInfeasible

// Im2col costs the im2col mapping (paper Fig. 2a).
func Im2col(l Layer, a Array) (Mapping, error) { return core.Im2col(l, a) }

// SMD costs sub-matrix duplication with the given factor (paper Fig. 2b).
func SMD(l Layer, a Array, dup int) (Mapping, error) { return core.SMD(l, a, dup) }

// SDK costs the shifted-and-duplicated-kernel baseline for a square window
// with entire channels (paper Fig. 2c).
func SDK(l Layer, a Array, pw Window) (Mapping, error) { return core.SDK(l, a, pw) }

// VW costs the paper's variable-window mapping for one window (eqs. 3–8).
func VW(l Layer, a Array, pw Window) (Mapping, error) { return core.VW(l, a, pw) }

// SearchVWSDK runs Algorithm 1: the optimal parallel-window search. It walks
// only breakpoints of eq. 8's step functions (O(√Rows + √Cols) cost classes
// per IFM row instead of O(PaddedW) candidates), evaluates each class in
// closed form, runs the cost model at most once, and is bit-identical to the
// brute-force sweep for every layer shape. It is the context-free
// convenience form of SearchVWSDKContext.
func SearchVWSDK(l Layer, a Array) (SearchResult, error) { return core.SearchVWSDK(l, a) }

// SearchVWSDKContext is SearchVWSDK under a caller context: the search loop
// runs a cooperative cancellation checkpoint once per candidate row, so a
// cancelled or expired context actually stops the work.
func SearchVWSDKContext(ctx context.Context, l Layer, a Array) (SearchResult, error) {
	return core.SearchVWSDKContext(ctx, l, a)
}

// SearchStats describes how a VW-SDK search was executed: which
// implementation path ran and how many candidates reached the full cost
// model. See core.SearchStats.
type SearchStats = core.SearchStats

// SearchPathClosedForm is the SearchStats.Path every VW-SDK search reports
// (DESIGN.md §8).
const SearchPathClosedForm = core.PathClosedForm

// SearchVWSDKInstrumented is SearchVWSDKContext plus execution statistics:
// the same Result, and a SearchStats reporting the path taken and the number
// of full cost-model evaluations (at most one).
func SearchVWSDKInstrumented(ctx context.Context, l Layer, a Array) (SearchResult, SearchStats, error) {
	return core.SearchVWSDKInstrumented(ctx, l, a)
}

// SearchVWSDKExhaustive runs the brute-force Algorithm 1 sweep — the
// reference the closed-form default is differentially tested against. It
// returns the same Best and Im2col as SearchVWSDK.
func SearchVWSDKExhaustive(l Layer, a Array) (SearchResult, error) {
	return core.SearchVWSDKExhaustive(l, a)
}

// ExhaustiveSearchCandidates returns the number of candidate windows the
// brute-force search for variant v would hand to the cost model for layer l
// (the candidates the default searches avoid).
func ExhaustiveSearchCandidates(l Layer, v Variant) int64 {
	return core.ExhaustiveCandidates(l, v)
}

// SearchSDK runs the square-window SDK baseline search: the square
// whole-channel corner of the ablation grid, on the same closed-form class
// walk as SearchVWSDK, with at most one cost-model call.
func SearchSDK(l Layer, a Array) (SearchResult, error) { return core.SearchSDK(l, a) }

// SearchSMD runs the sub-matrix-duplication baseline search.
func SearchSMD(l Layer, a Array) (SearchResult, error) { return core.SearchSMD(l, a) }

// SearchVariant runs an ablated VW-SDK search: VariantFull is SearchVWSDK,
// and every variant runs the same closed-form class walk over its corner of
// the ablation grid, with at most one cost-model call.
func SearchVariant(l Layer, a Array, v Variant) (SearchResult, error) {
	return core.SearchVariant(l, a, v)
}

// SearchVariantExhaustive runs an ablated search with the brute-force
// candidate sweep instead of the class walk: the oracle SearchVariant is
// differentially tested against.
func SearchVariantExhaustive(l Layer, a Array, v Variant) (SearchResult, error) {
	return core.SearchVariantExhaustive(l, a, v)
}

// Network is a named list of conv layers. See model.Network.
type Network = model.Network

// VGG13 returns the paper's VGG-13 layer table (Table I).
func VGG13() Network { return model.VGG13() }

// ResNet18 returns the paper's ResNet-18 layer table (Table I).
func ResNet18() Network { return model.ResNet18() }

// VGG16 returns a VGG-16 layer table (extra network).
func VGG16() Network { return model.VGG16() }

// AlexNet returns an AlexNet layer table (extra network, strided conv1).
func AlexNet() Network { return model.AlexNet() }

// MobileNetV2 returns the MobileNet-V2 layer table (inverted residuals:
// pointwise expand, depthwise 3×3, pointwise project).
func MobileNetV2() Network { return model.MobileNetV2() }

// ResNeXt50 returns the ResNeXt-50 (32×4d) layer table (grouped 3×3
// bottlenecks with cardinality 32).
func ResNeXt50() Network { return model.ResNeXt50() }

// Networks returns every predefined network.
func Networks() []Network { return model.All() }

// NetworkByName looks a predefined network up by its name, e.g. "VGG-13".
func NetworkByName(name string) (Network, error) { return model.ByName(name) }

// FeatureMap is a C×H×W activation tensor.
type FeatureMap = tensor.Tensor3

// Weights is an O×C×H×W kernel tensor.
type Weights = tensor.Tensor4

// NewFeatureMap allocates a zeroed C×H×W feature map.
func NewFeatureMap(c, h, w int) *FeatureMap { return tensor.NewTensor3(c, h, w) }

// NewWeights allocates a zeroed O×C×H×W weight tensor.
func NewWeights(o, c, h, w int) *Weights { return tensor.NewTensor4(o, c, h, w) }

// RandFeatureMap returns a deterministic random integer feature map,
// suitable for exact functional verification.
func RandFeatureMap(seed uint64, c, h, w int) *FeatureMap {
	return tensor.RandTensor3(seed, c, h, w)
}

// RandWeights returns deterministic random integer weights.
func RandWeights(seed uint64, o, c, h, w int) *Weights {
	return tensor.RandTensor4(seed, o, c, h, w)
}

// Plan is a physical execution plan for a mapping. See mapping.Plan.
type Plan = mapping.Plan

// NewPlan builds the physical weight-placement plan for a costed mapping.
func NewPlan(m Mapping) (*Plan, error) { return mapping.NewPlan(m) }

// CrossbarStats are the per-run statistics of the simulated crossbar.
type CrossbarStats = pimarray.Stats

// CrossbarOption configures crossbar non-idealities.
type CrossbarOption = pimarray.Option

// WithQuantization programs weights at limited precision. See
// pimarray.WithQuantization.
func WithQuantization(bits int, maxAbs float64) CrossbarOption {
	return pimarray.WithQuantization(bits, maxAbs)
}

// WithReadNoise adds deterministic Gaussian read noise. See
// pimarray.WithReadNoise.
func WithReadNoise(sigma float64, seed uint64) CrossbarOption {
	return pimarray.WithReadNoise(sigma, seed)
}

// RunOnCrossbar executes mapping m on a simulated crossbar of m.Array's size
// and returns the output feature map with the run statistics.
func RunOnCrossbar(m Mapping, ifm *FeatureMap, w *Weights, opts ...CrossbarOption) (*FeatureMap, CrossbarStats, error) {
	return mapping.Run(m, ifm, w, opts...)
}

// Verify executes mapping m on deterministic inputs and compares the
// crossbar output bit-for-bit with the reference convolution.
func Verify(m Mapping, seed uint64) error { return mapping.Verify(m, seed) }

// VerifyAllSchemes verifies layer l on array a under all four schemes.
func VerifyAllSchemes(l Layer, a Array, seed uint64) error {
	return mapping.VerifyAllSchemes(l, a, seed)
}

// EnergyModel holds latency/energy constants. See energy.Model.
type EnergyModel = energy.Model

// DefaultEnergyModel returns the synthetic reference constants under which
// conversions dominate (>98%), as the paper assumes.
func DefaultEnergyModel() EnergyModel { return energy.Default() }

// Experiment is one regenerated table or figure of the paper.
type Experiment = experiments.Result

// PaperArray is the 512×512 array the paper evaluates on.
var PaperArray = experiments.Array512

// ExperimentTableI regenerates the paper's Table I on array a.
func ExperimentTableI(a Array) (*Experiment, error) { return experiments.TableI(a) }

// ExperimentFig8a regenerates Fig. 8(a) (per-layer speedups) on array a.
func ExperimentFig8a(a Array) (*Experiment, error) { return experiments.Fig8a(a) }

// ExperimentFig8b regenerates Fig. 8(b) (speedup vs array size).
func ExperimentFig8b() (*Experiment, error) { return experiments.Fig8b() }

// ExperimentFig9a regenerates Fig. 9(a) (utilization per layer) on array a.
func ExperimentFig9a(a Array) (*Experiment, error) { return experiments.Fig9a(a) }

// Method names one per-layer search: a Scheme plus, for VW-SDK, the
// ablation Variant. Methods that run the same search compare equal after
// Canonical. See core.Method.
type Method = core.Method

// MethodVWSDK is the full VW-SDK search, Algorithm 1.
var MethodVWSDK = core.MethodVWSDK

// Searcher is the one per-layer search: Search(ctx, layer, array, method).
// The serial reference (SerialSearcher), its brute-force oracle
// (ExhaustiveSearcher) and the memoizing Engine implement it, with
// bit-identical results; Search is context-first (see core.Searcher).
type Searcher = core.Searcher

// SerialSearcher returns the Searcher backed by the single-threaded
// reference algorithms.
func SerialSearcher() Searcher { return core.Serial{} }

// ExhaustiveSearcher returns the Searcher backed by the brute-force sweeps,
// for differential testing and benchmarking against the default closed-form
// search.
func ExhaustiveSearcher() Searcher { return core.Exhaustive{} }

// Engine is a memoizing search engine and a Searcher: its one method,
// Engine.Search, runs the default search and serves repeated (layer shape,
// array, canonical method) combinations from an LRU cache, coalescing
// identical concurrent searches onto one. Results are bit-identical to the
// serial searches. It is safe for concurrent use; the compiler fans a
// network's layers out over it. Hand one Engine to NewCompiler to share its
// cache across compilations. See engine.Engine.
type Engine = engine.Engine

// EngineOption configures an Engine.
type EngineOption = engine.Option

// NewEngine returns a memoizing search engine. With no options it keeps a
// 4096-entry result cache.
func NewEngine(opts ...EngineOption) *Engine { return engine.New(opts...) }

// WithCacheSize sets the engine's LRU capacity in results; 0 disables
// caching.
func WithCacheSize(n int) EngineOption { return engine.WithCacheSize(n) }

// ExplainSearch renders a step-by-step, equation-referenced derivation of a
// search result (see Mapping.Explain via core).
func ExplainSearch(r SearchResult) string { return core.ExplainSearch(r) }

// Compiler is the whole-network compilation pipeline: searches, chip
// scheduling, energy estimation and physical planning in one call. See
// compile.Compiler.
type Compiler = compile.Compiler

// CompileOptions selects the mapping scheme, ablation variant, chip size,
// energy model and whether physical plans are built. The zero value compiles
// the full VW-SDK search for a single-array chip.
type CompileOptions = compile.Options

// CompileScheme selects the mapping search a compilation runs; the zero
// value is the paper's VW-SDK search.
type CompileScheme = compile.Scheme

// The four mapping searches a Compiler can run.
const (
	CompileVWSDK  = compile.VWSDK
	CompileIm2col = compile.Im2col
	CompileSMD    = compile.SMD
	CompileSDK    = compile.SDK
)

// NetworkPlan is a compiled network: per-layer mapping decisions, chip
// schedules, energy reports and whole-network totals. See
// compile.NetworkPlan.
type NetworkPlan = compile.NetworkPlan

// LayerPlan is one layer of a compiled network.
type LayerPlan = compile.LayerPlan

// CompileRequest is the canonical description of one compilation — the one
// request type shared by CompileContext, CompileKey, cmd/vwsdk's flags and
// vwsdkd's HTTP bodies. See compile.Request.
type CompileRequest = compile.Request

// NewCompileRequest assembles a CompileRequest from its parts.
func NewCompileRequest(n Network, a Array, opts CompileOptions) CompileRequest {
	return compile.NewRequest(n, a, opts)
}

// NewCompiler returns a Compiler running its searches through s; a nil s
// selects a fresh memoizing engine. Share one Compiler across compilations
// to reuse its search cache. Compiler.Compile is context-first:
// Compile(ctx, CompileRequest).
func NewCompiler(s Searcher) *Compiler { return compile.New(s) }

// Compile compiles network n for array a under opts through a fresh
// memoizing engine. Callers compiling several networks, arrays or option
// sets should build one NewCompiler and reuse it; callers that need
// cancellation or deadlines should use CompileContext, of which this is the
// context-free convenience form.
func Compile(n Network, a Array, opts CompileOptions) (*NetworkPlan, error) {
	return CompileContext(context.Background(), NewCompileRequest(n, a, opts))
}

// CompileContext compiles one canonical request through a fresh memoizing
// engine under ctx: cancelling it aborts every in-flight layer search at
// its next checkpoint and returns an error wrapping ctx.Err().
func CompileContext(ctx context.Context, req CompileRequest) (*NetworkPlan, error) {
	return compile.New(nil).Compile(ctx, req)
}

// NetworkPlanFromJSON deserializes a plan produced by NetworkPlan.ToJSON and
// validates that its totals are consistent with its per-layer entries.
func NetworkPlanFromJSON(data []byte) (*NetworkPlan, error) { return compile.FromJSON(data) }

// NetworkFromJSON parses a JSON network spec (the -network file format of
// cmd/vwsdk; see the README), so arbitrary user CNNs can be compiled.
func NetworkFromJSON(data []byte) (Network, error) { return model.FromJSON(data) }

// NetworkToJSON serializes a network as a spec NetworkFromJSON accepts.
func NetworkToJSON(n Network) ([]byte, error) { return model.ToJSON(n) }

// SingleLayerNetwork wraps one layer as a one-layer network, the form the
// compile pipeline consumes.
func SingleLayerNetwork(l Layer) Network { return model.Single(l) }

// CompileKey returns the canonical cache key of one compilation — two calls
// with the same key would produce equivalent plans, so serving layers can
// memoize Compile on it. It is the argument-triple convenience form of
// CompileRequestKey.
func CompileKey(n Network, a Array, opts CompileOptions) (string, error) {
	return compile.Key(compile.NewRequest(n, a, opts))
}

// CompileRequestKey is CompileKey on the canonical request type.
func CompileRequestKey(req CompileRequest) (string, error) { return compile.Key(req) }

// Server is the HTTP compile service behind cmd/vwsdkd: synchronous
// POST /v1/compile and /v1/sweep plus the asynchronous job API
// (POST/GET/DELETE /v1/jobs) on one shared engine, with a whole-plan LRU
// cache, singleflight coalescing of identical concurrent requests, bounded
// concurrency, per-request cancellation (client disconnects stop the
// underlying search) and structured errors. A *Server is an http.Handler.
// See server.Server.
type Server = server.Server

// ServerConfig configures a Server; the zero value is usable.
type ServerConfig = server.Config

// NewServer returns the compile service as an http.Handler:
//
//	http.ListenAndServe(":8080", vwsdk.NewServer(vwsdk.ServerConfig{}))
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// DesignSpace describes a hardware co-design search space: candidate array
// geometries (assigned per layer group, so different parts of a network can
// run on differently sized arrays), chip counts and peripheral-gating
// settings, all crossed into design points. See optimize.DesignSpace.
type DesignSpace = optimize.DesignSpace

// Frontier is the outcome of a design-space search: the non-dominated design
// points under (cycles, energy, area) plus the enumeration counters. See
// optimize.Frontier.
type Frontier = optimize.Frontier

// OptimizeEvent is one incremental frontier decision (admit, evict or
// reject) emitted while a design-space search runs.
type OptimizeEvent = optimize.Event

// Optimizer searches design spaces through a shared Compiler, so every
// design point's layer searches land in one engine memoization — a (layer,
// array) cell shared by many design points is searched exactly once. See
// optimize.Optimizer.
type Optimizer = optimize.Optimizer

// NewOptimizer returns an Optimizer running its compilations through c; a
// nil c selects a fresh compiler on a fresh memoizing engine. Share one
// Optimizer (or its Compiler) across searches to reuse the search cache.
func NewOptimizer(c *Compiler) *Optimizer { return optimize.New(c) }

// Optimize searches space through a fresh compiler and returns the Pareto
// frontier. Callers that need cancellation, incremental events or engine
// sharing should build a NewOptimizer and call its Run method, of which this
// is the context-free convenience form.
func Optimize(space DesignSpace) (*Frontier, error) {
	return optimize.New(nil).Run(context.Background(), space, nil)
}

// DesignSpaceFromJSON parses a design-space spec (the -optimize file format
// of cmd/vwsdk and the POST /v1/optimize body; see the README) and validates
// it.
func DesignSpaceFromJSON(data []byte) (DesignSpace, error) { return optimize.FromJSON(data) }

// DesignSpaceToJSON serializes a design space as a spec DesignSpaceFromJSON
// accepts, with the network inlined.
func DesignSpaceToJSON(s DesignSpace) ([]byte, error) { return s.ToJSON() }
