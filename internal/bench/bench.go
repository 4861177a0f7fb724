// Package bench is the standardized search-performance harness behind
// cmd/vwsdkbench: it times the default VW-SDK search against the
// brute-force sweep on a fixed workload set — the paper's Table-I zoo
// (VGG-13 and ResNet-18) on 256/512/1024 arrays, plus large-IFM stress
// layers the exhaustive sweep handles poorly — and reports the results as a
// machine-readable JSON document (BENCH_search.json) so the repository's
// perf trajectory is comparable across PRs and CI runs.
//
// The harness is deliberately self-contained (no testing.B): cmd/vwsdkbench
// must run as a plain binary in CI, support -benchtime 1x for smoke runs,
// and emit stable JSON. Timings are wall-clock per search; allocation counts
// are process-wide malloc deltas per operation (exact for the single-
// threaded search loops, approximate for the concurrent cold-compile
// pipeline).
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
)

// Schema identifies the BENCH_search.json document layout; bump on
// incompatible changes so cross-PR tooling can detect them.
const Schema = "vwsdk-bench/v1"

// Workload is one (layer, array) search timing target.
type Workload struct {
	// Name is the stable workload identifier, e.g. "VGG-13/conv1@512x512".
	Name string

	// Network names the zoo network the layer came from ("stress" for the
	// synthetic large-IFM layers).
	Network string

	Layer core.Layer
	Array core.Array

	// Stress marks synthetic large-IFM layers whose exhaustive sweep is too
	// slow to time routinely; only the default search is timed and the
	// exhaustive candidate count is computed analytically.
	Stress bool
}

// Standard returns the standardized workload set: every distinct Table-I
// layer shape of VGG-13 and ResNet-18 on square 256/512/1024 arrays, a
// representative slice of MobileNet-V2 (grouped/depthwise rows, which also
// report the dense-equivalent candidate counts), then the large-IFM stress
// layers (512×512 and beyond — IFMs on which the exhaustive sweep enumerates
// 10⁵–10⁶ candidates and was previously the cold-compile bottleneck).
func Standard() []Workload {
	arrays := []core.Array{{Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}, {Rows: 1024, Cols: 1024}}
	var out []Workload
	for _, n := range []model.Network{model.VGG13(), model.ResNet18()} {
		for _, a := range arrays {
			for _, cl := range n.Layers {
				out = append(out, Workload{
					Name:    fmt.Sprintf("%s/%s@%s", n.Name, cl.Name, a),
					Network: n.Name,
					Layer:   cl.Layer,
					Array:   a,
				})
			}
		}
	}
	// MobileNet-V2 rows: the stem plus one depthwise layer per IFM scale
	// (strided and unstrided) and the widest expand, kept to a slice so the
	// exhaustive comparison stays timeable — the remaining shapes repeat
	// these geometries at other channel widths.
	mobile := map[string]bool{
		"conv1": true, "dw1": true, "dw2_1": true, "pj2_1": true,
		"dw144": true, "dw384": true, "ex64_384": true, "dw960": true,
	}
	for _, a := range arrays {
		for _, cl := range model.MobileNetV2().Layers {
			if !mobile[cl.Name] {
				continue
			}
			out = append(out, Workload{
				Name:    fmt.Sprintf("MobileNet-V2/%s@%s", cl.Name, a),
				Network: "MobileNet-V2",
				Layer:   cl.Layer,
				Array:   a,
			})
		}
	}
	stress := []core.Layer{
		{Name: "hd-512", IW: 512, IH: 512, KW: 3, KH: 3, IC: 64, OC: 64},
		{Name: "hd-768", IW: 768, IH: 768, KW: 3, KH: 3, IC: 32, OC: 64},
		{Name: "hd-1024", IW: 1024, IH: 1024, KW: 3, KH: 3, IC: 16, OC: 32},
	}
	for _, l := range stress {
		for _, a := range []core.Array{{Rows: 512, Cols: 512}, {Rows: 1024, Cols: 1024}} {
			out = append(out, Workload{
				Name:    fmt.Sprintf("stress/%s@%s", l.Name, a),
				Network: "stress",
				Layer:   l,
				Array:   a,
				Stress:  true,
			})
		}
	}
	return out
}

// LayerResult is one workload's measurements in the report.
type LayerResult struct {
	Workload string `json:"workload"`
	Network  string `json:"network"`
	Layer    string `json:"layer"`
	Shape    string `json:"shape"`
	Array    string `json:"array"`
	Stress   bool   `json:"stress,omitempty"`

	// NsPerOp/AllocsPerOp/Iters time the default search (core.SearchVWSDK).
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	Iters       int64 `json:"iters"`

	// CandidatesCosted is Result.Evaluated (cost classes the search
	// evaluated); CandidatesFeasible is Result.Swept (feasible windows
	// the exhaustive sweep costs); CandidatesExhaustive is the full
	// candidate enumeration the exhaustive sweep hands to the cost model.
	CandidatesCosted     int     `json:"candidates_costed"`
	CandidatesFeasible   int     `json:"candidates_feasible"`
	CandidatesExhaustive int64   `json:"candidates_exhaustive"`
	Reduction            float64 `json:"reduction"`

	// SearchPath names the search implementation that ran ("closed-form"
	// for every layer shape); CostModelEvals counts the cost-model calls it
	// actually paid — at most one, the argmin materialization.
	SearchPath     string `json:"search_path"`
	CostModelEvals int    `json:"cost_model_evals"`

	// DenseEquivalentCosted/DenseEquivalentFeasible (grouped layers only)
	// are the search's candidate statistics for the same geometry
	// with grouping dropped. Window feasibility is group-independent, so
	// the feasible counts must match; the cost-class count may differ
	// because the per-group channel caps move the class breakpoints.
	DenseEquivalentCosted   int `json:"dense_equivalent_costed,omitempty"`
	DenseEquivalentFeasible int `json:"dense_equivalent_feasible,omitempty"`

	// ExhaustiveNsPerOp times the brute-force sweep (omitted for stress
	// workloads); SpeedupVsExhaustive is the wall-clock ratio.
	ExhaustiveNsPerOp   int64   `json:"exhaustive_ns_per_op,omitempty"`
	SpeedupVsExhaustive float64 `json:"speedup_vs_exhaustive,omitempty"`

	// Cycles and Tile anchor the measurement to the mapping the search
	// chose, so a perf regression hunt can spot result drift immediately.
	Cycles int64  `json:"cycles"`
	Tile   string `json:"tile"`
}

// ColdCompileResult times the whole compile pipeline with a cold engine —
// the /v1/compile cold path — under the default and exhaustive searches.
type ColdCompileResult struct {
	Network             string  `json:"network"`
	Array               string  `json:"array"`
	NsPerOp             int64   `json:"ns_per_op"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
	ExhaustiveNsPerOp   int64   `json:"exhaustive_ns_per_op"`
	SpeedupVsExhaustive float64 `json:"speedup_vs_exhaustive"`
}

// Report is the BENCH_search.json document.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Benchtime string `json:"benchtime"`

	Workloads   []LayerResult       `json:"workloads"`
	ColdCompile []ColdCompileResult `json:"cold_compile"`

	// MaxTable1Reduction is the best candidates_exhaustive/candidates_costed
	// ratio over the non-stress (Table-I) workloads.
	MaxTable1Reduction float64 `json:"max_table1_reduction"`
}

// Options configures a harness run.
type Options struct {
	// Benchtime is the minimum measuring time per timed loop; Once runs
	// every loop exactly one iteration instead (the CI smoke mode,
	// -benchtime 1x).
	Benchtime time.Duration
	Once      bool

	// Filter, when non-empty, keeps only workloads whose name contains it.
	Filter string

	// Progress, when non-nil, receives one line per workload.
	Progress io.Writer
}

// Run executes the standardized workloads and builds the report. The
// context gates the grid at workload granularity: it is checked between
// workloads (and between the timing loops inside one) and threaded into
// each workload's initial correctness search, so a -timeout deadline (or
// Ctrl-C plumbed in by the caller) aborts the harness within one timing
// loop. The timed iterations themselves deliberately run context-free — a
// deadline firing mid-loop would corrupt the measurement it interrupts.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.Benchtime <= 0 {
		opts.Benchtime = 10 * time.Millisecond
	}
	rep := &Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: opts.Benchtime.String(),
	}
	if opts.Once {
		rep.Benchtime = "1x"
	}
	for _, w := range Standard() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("bench: aborted: %w", err)
		}
		if opts.Filter != "" && !strings.Contains(w.Name, opts.Filter) {
			continue
		}
		// One span per workload (with the timed loops inside measure as
		// children), so a -trace of the whole run shows where the wall
		// clock went.
		wctx, sp := obs.Start(ctx, w.Name)
		r, err := measure(wctx, w, opts)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
		}
		sp.SetStr("path", r.SearchPath).SetInt("costed", int64(r.CandidatesCosted))
		sp.End()
		rep.Workloads = append(rep.Workloads, r)
		if !w.Stress && r.Reduction > rep.MaxTable1Reduction {
			rep.MaxTable1Reduction = r.Reduction
		}
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-32s %12d ns/op %8d costed of %8d (%6.1fx)\n",
				w.Name, r.NsPerOp, r.CandidatesCosted, r.CandidatesExhaustive, r.Reduction)
		}
	}
	if opts.Filter == "" || strings.Contains("cold-compile", opts.Filter) {
		cc, err := coldCompile(ctx, opts)
		if err != nil {
			return nil, err
		}
		rep.ColdCompile = append(rep.ColdCompile, cc)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-32s %12d ns/op vs %d exhaustive (%.1fx)\n",
				"cold-compile/"+cc.Network+"@"+cc.Array, cc.NsPerOp, cc.ExhaustiveNsPerOp,
				cc.SpeedupVsExhaustive)
		}
	}
	return rep, nil
}

// measure times one workload and gathers its candidate statistics.
func measure(ctx context.Context, w Workload, opts Options) (LayerResult, error) {
	l := w.Layer.Normalized()
	res, stats, err := core.SearchVWSDKInstrumented(ctx, l, w.Array)
	if err != nil {
		return LayerResult{}, err
	}
	out := LayerResult{
		Workload: w.Name,
		Network:  w.Network,
		Layer:    l.Name,
		Shape:    l.String(),
		Array:    w.Array.String(),
		Stress:   w.Stress,

		CandidatesCosted:     res.Evaluated,
		CandidatesFeasible:   res.Swept,
		CandidatesExhaustive: core.ExhaustiveCandidates(l, core.VariantFull),

		SearchPath:     stats.Path,
		CostModelEvals: stats.CostModelCalls,

		Cycles: res.Best.Cycles,
		Tile:   res.Best.TileString(),
	}
	if res.Evaluated > 0 {
		out.Reduction = round1(float64(out.CandidatesExhaustive) / float64(res.Evaluated))
	}
	if l.NumGroups() > 1 {
		dense := l
		dense.Groups = 0
		dres, err := core.SearchVWSDKContext(ctx, dense, w.Array)
		if err != nil {
			return LayerResult{}, fmt.Errorf("dense equivalent: %w", err)
		}
		out.DenseEquivalentCosted = dres.Evaluated
		out.DenseEquivalentFeasible = dres.Swept
	}
	_, psp := obs.Start(ctx, "timed/pruned")
	out.NsPerOp, out.AllocsPerOp, out.Iters = timeIt(opts, func() {
		if _, err := core.SearchVWSDK(l, w.Array); err != nil {
			panic(err) // unreachable: the measured search succeeded above
		}
	})
	psp.SetInt("iters", out.Iters).End()
	if !w.Stress {
		if err := ctx.Err(); err != nil {
			return LayerResult{}, err
		}
		_, esp := obs.Start(ctx, "timed/exhaustive")
		exhNs, _, exhIters := timeIt(opts, func() {
			if _, err := core.SearchVWSDKExhaustive(l, w.Array); err != nil {
				panic(err)
			}
		})
		esp.SetInt("iters", exhIters).End()
		out.ExhaustiveNsPerOp = exhNs
		if out.NsPerOp > 0 {
			out.SpeedupVsExhaustive = round1(float64(exhNs) / float64(out.NsPerOp))
		}
	}
	return out, nil
}

// coldCompile times the full compile pipeline for VGG-13 on the paper's
// 512×512 array with a fresh engine per iteration — the server's cold
// /v1/compile path — and on core.Exhaustive, the brute-force oracle, which
// memoizes nothing.
func coldCompile(ctx context.Context, opts Options) (ColdCompileResult, error) {
	net := model.VGG13()
	a := core.Array{Rows: 512, Cols: 512}
	req := compile.NewRequest(net, a, compile.Options{})
	// The timed iterations deliberately run under context.Background(): a
	// deadline firing inside a timing loop would corrupt the measurement
	// anyway, so the caller's ctx gates between loops instead.
	run := func(newSearcher func() core.Searcher) func() {
		return func() {
			comp := compile.New(newSearcher())
			if _, err := comp.Compile(context.Background(), req); err != nil {
				panic(err) // unreachable: VGG-13 on 512x512 always compiles
			}
		}
	}
	// Fail fast (with an error, not a panic) if the pipeline is broken or
	// the deadline already passed.
	if _, err := compile.New(engine.New()).Compile(ctx, req); err != nil {
		return ColdCompileResult{}, fmt.Errorf("bench: cold compile: %w", err)
	}
	ctx, sp := obs.Start(ctx, "cold-compile")
	defer sp.End()
	out := ColdCompileResult{Network: net.Name, Array: a.String()}
	_, psp := obs.Start(ctx, "timed/pruned")
	out.NsPerOp, out.AllocsPerOp, _ = timeIt(opts, run(func() core.Searcher { return engine.New() }))
	psp.End()
	if err := ctx.Err(); err != nil {
		return ColdCompileResult{}, err
	}
	_, esp := obs.Start(ctx, "timed/exhaustive")
	out.ExhaustiveNsPerOp, _, _ = timeIt(opts, run(func() core.Searcher { return core.Exhaustive{} }))
	esp.End()
	if out.NsPerOp > 0 {
		out.SpeedupVsExhaustive = round1(float64(out.ExhaustiveNsPerOp) / float64(out.NsPerOp))
	}
	return out, nil
}

// timeIt runs f once to warm up, then measures it: exactly one iteration in
// Once mode, otherwise iterations until Benchtime has elapsed. Allocation
// counts are process-wide malloc deltas divided by iterations.
func timeIt(opts Options, f func()) (nsPerOp, allocsPerOp, iters int64) {
	f() // warm-up, outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var n int64
	for {
		f()
		n++
		if opts.Once || time.Since(start) >= opts.Benchtime {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed.Nanoseconds() / n, int64(after.Mallocs-before.Mallocs) / n, n
}

// round1 rounds to one decimal so the JSON stays readable.
func round1(x float64) float64 { return float64(int64(x*10+0.5)) / 10 }
