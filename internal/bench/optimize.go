package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// OptimizeSchema identifies the BENCH_optimize.json document layout; bump on
// incompatible changes so cross-PR tooling can detect them.
const OptimizeSchema = "vwsdk-optimize-bench/v1"

// OptimizeReport is the BENCH_optimize.json document: one standardized
// Pareto-frontier co-design search (internal/optimize) over a fixed design
// space, reporting the frontier shape, the memoization counters that prove
// each (group, array, chips, gating) cell is compiled once per run and each
// shared (layer, array) pair is searched once, and wall-clock figures for the
// cold (empty engine) and warm (every search cached) runs.
//
// Everything except the wall-clock numbers is deterministic: the space is
// fixed, the optimizer enumerates and evaluates sequentially, the served
// count is a pure function of the space's cells and group sizes, and the
// distinct-search count of its layer shapes and array candidates; the warm
// allocation count is taken at GOMAXPROCS 1. The CI gate (-check-against)
// therefore pins the frontier shape exactly, treats any growth in
// SearchesServed or DistinctSearches as a memoization regression and any
// growth in WarmAllocsPerRun as a warm-path regression; latency is
// machine-dependent and not gated.
type OptimizeReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Benchtime string `json:"benchtime"`

	// Space names the benchmarked design space; DesignPoints is its size.
	Space        string `json:"space"`
	DesignPoints int    `json:"design_points"`

	// Frontier shape of the cold run (identical on every run).
	PointsEvaluated int `json:"points_evaluated"`
	FrontierSize    int `json:"frontier_size"`
	Dominated       int `json:"dominated"`

	// SearchesServed is every per-layer search the run's cell compiles
	// requested — one per layer of each (group, array, chips, gating) cell;
	// DistinctSearches is how many actually ran the algorithm (engine cache
	// misses on a cold engine) — exactly one per distinct (layer, array)
	// pair; MemoizedReuses is the rest (cache hits plus in-flight dedupes).
	SearchesServed   uint64 `json:"searches_served"`
	DistinctSearches uint64 `json:"distinct_searches"`
	MemoizedReuses   uint64 `json:"memoized_reuses"`

	// WarmAllocsPerRun is the heap allocation count of one warm run, where
	// every layer search is an engine hit, counted at GOMAXPROCS 1 like
	// testing.AllocsPerRun: every compile then runs its layers on the
	// caller, so the count repeats on any runner.
	WarmAllocsPerRun int64 `json:"warm_allocs_per_run"`

	// ColdNs is the wall clock of the first full search on an empty engine;
	// WarmNsPerRun times repeat runs where every layer search is a cache hit
	// (the dominance bookkeeping plus plan assembly), WarmIters is how many
	// the timing loop ran.
	ColdNs       int64 `json:"cold_ns"`
	WarmNsPerRun int64 `json:"warm_ns_per_run"`
	WarmIters    int64 `json:"warm_iters"`
}

// optimizeSpace is the fixed benchmark workload: the 4-layer TinyNet used by
// the optimize golden tests, searched with two layer groups over four array
// geometries and two chip counts, with peripheral gating on both settings —
// 16 assignments × 2 chips × 2 gating = 64 design points sharing
// 2 groups × 4 arrays × 2 chips × 2 gating = 32 group compiles and
// 4 layers × 4 arrays = 16 distinct searches.
func optimizeSpace() optimize.DesignSpace {
	net := model.Network{Name: "TinyNet", Layers: []model.ConvLayer{
		{Layer: core.Layer{Name: "conv1", IW: 32, IH: 32, KW: 3, KH: 3, IC: 3, OC: 16, PadW: 1, PadH: 1}, Count: 1},
		{Layer: core.Layer{Name: "conv2", IW: 16, IH: 16, KW: 3, KH: 3, IC: 16, OC: 32, PadW: 1, PadH: 1}, Count: 2},
		{Layer: core.Layer{Name: "conv3", IW: 8, IH: 8, KW: 3, KH: 3, IC: 32, OC: 64}, Count: 1},
		{Layer: core.Layer{Name: "conv4", IW: 6, IH: 6, KW: 5, KH: 5, IC: 64, OC: 64, StrideW: 2, StrideH: 2, PadW: 2, PadH: 2}, Count: 1},
	}}
	s := optimize.DesignSpace{
		Name:    "tinynet-codesign-bench",
		Network: net,
		Arrays: []core.Array{
			{Rows: 64, Cols: 64}, {Rows: 128, Cols: 128},
			{Rows: 256, Cols: 256}, {Rows: 512, Cols: 512},
		},
		Chips:  []int{1, 4},
		Gating: []bool{false, true},
		Groups: 2,
	}
	s.Normalize()
	return s
}

// RunOptimize executes the optimize benchmark and builds the report. The
// cold run is timed once on a fresh engine and supplies both the frontier
// shape and the memoization counters; the warm loop then re-runs the same
// search on the now-fully-cached engine under the usual benchtime rules, and
// 50 more warm runs at GOMAXPROCS 1 give the warm allocation count.
func RunOptimize(ctx context.Context, opts Options) (*OptimizeReport, error) {
	if opts.Benchtime <= 0 {
		opts.Benchtime = 10 * time.Millisecond
	}
	rep := &OptimizeReport{
		Schema:    OptimizeSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: opts.Benchtime.String(),
	}
	if opts.Once {
		rep.Benchtime = "1x"
	}
	space := optimizeSpace()
	rep.Space = space.Name
	points, err := space.Points()
	if err != nil {
		return nil, fmt.Errorf("bench: optimize space: %w", err)
	}
	rep.DesignPoints = points

	eng := engine.New()
	o := optimize.New(compile.New(eng))

	octx, sp := obs.Start(ctx, "optimize-cold")
	start := time.Now()
	f, err := o.Run(octx, space, nil)
	rep.ColdNs = time.Since(start).Nanoseconds()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("bench: optimize cold run: %w", err)
	}
	rep.PointsEvaluated = f.Evaluated
	rep.FrontierSize = len(f.Points)
	rep.Dominated = f.Dominated
	st := eng.Stats()
	rep.SearchesServed = st.Searches
	rep.DistinctSearches = st.CacheMisses
	rep.MemoizedReuses = st.CacheHits + st.FlightDedupes
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bench: aborted: %w", err)
	}

	// Warm loop: every layer search hits the engine cache, so this times the
	// enumeration, dominance bookkeeping and plan assembly alone. The timed
	// iterations deliberately run context-free (a deadline firing mid-loop
	// would corrupt the measurement); the caller's ctx gates around it.
	_, wsp := obs.Start(ctx, "optimize-warm")
	rep.WarmNsPerRun, _, rep.WarmIters = timeIt(opts, func() {
		if _, err := o.Run(context.Background(), space, nil); err != nil {
			panic(err) // unreachable: the cold run of the same space succeeded
		}
	})
	wsp.SetInt("iters", rep.WarmIters).End()
	const allocRuns = 50
	n, err := mallocs(allocRuns, func() error {
		_, err := o.Run(context.Background(), space, nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: optimize warm run: %w", err)
	}
	rep.WarmAllocsPerRun = int64(n / allocRuns)
	return rep, nil
}
