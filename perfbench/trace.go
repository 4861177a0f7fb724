package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// recorder is the traced run's span recorder: an obs trace holding a span
// per ServeHTTP call and per replayed public call, plus the per-layer
// samples those calls yield.
type recorder struct {
	tr   *obs.Trace
	ctx  context.Context // the current phase's span
	vals map[string][]float64
	hits map[string][2]int // ratio metrics: [true, all]
}

func newRecorder(name string) *recorder {
	tr := obs.New(name)
	return &recorder{
		tr:   tr,
		ctx:  obs.NewContext(context.Background(), tr),
		vals: map[string][]float64{},
		hits: map[string][2]int{},
	}
}

// start opens a span under the current phase.
func (r *recorder) start(name string) (context.Context, *obs.Span) { return obs.Start(r.ctx, name) }

// call runs f as one replayed public call: a span named name under ctx. It
// returns f's wall time, measured apart from the span so that a full trace
// never loses a sample.
func (r *recorder) call(ctx context.Context, name string, f func() error) (time.Duration, error) {
	_, sp := obs.Start(ctx, name)
	start := time.Now()
	err := f()
	d := time.Since(start)
	sp.End()
	return d, err
}

func (r *recorder) add(metric string, v float64) { r.vals[metric] = append(r.vals[metric], v) }

func (r *recorder) count(metric string, hit bool) {
	c := r.hits[metric]
	if hit {
		c[0]++
	}
	c[1]++
	r.hits[metric] = c
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeChrome writes the trace as Chrome trace-event JSON, the format the
// CLIs' -trace flag writes, and returns its path.
func (r *recorder) writeChrome(workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.tr.WriteChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// metricDef is one reported metric.
type metricDef struct {
	name, unit, better string
	base               string // what the value is taken over, printed beside it
}

// layerMetrics are the per-layer metrics a traced run reports, grouped by
// module. A layer a workload never reaches reads 0 with a count of 0.
var layerMetrics = []metricDef{
	{"server.decode_us", "us", "lower", "median ParseManifest of a one-body manifest less the wrapper's decode (codesign: optimize.FromJSON)"},
	{"server.cached_plan_us", "us", "lower", "median Server.CachedPlan"},
	{"server.handler_us", "us", "lower", "median ServeHTTP minus the replayed calls on its path, per replayed request"},
	{"server.plancache_hit_ratio", "ratio", "higher", "plan-cache hits / lookups, timed phase"},
	{"server.plancache_evictions_per_req", "1/req", "lower", "plan-cache evictions / requests"},
	{"server.rejected", "count", "lower", "503 rejections, timed phase"},
	{"compile.key_us", "us", "lower", "median compile.Key"},
	{"compile.compile_ms", "ms", "lower", "median Compiler.Compile on a fresh replica engine"},
	{"compile.overhead_ms", "ms", "lower", "median Compile at GOMAXPROCS 1, uncached, minus its layers' search+schedule+energy"},
	{"compile.encode_us", "us", "lower", "median NetworkPlan.Encode"},
	{"compile.plan_kb", "KiB", "lower", "median encoded plan size"},
	{"compile.fromjson_us", "us", "lower", "median compile.FromJSON (cold: the output check; warm: the set-up loads)"},
	{"engine.hit_ratio", "ratio", "higher", "engine cache hits / searches, timed phase"},
	{"engine.misses_per_req", "1/req", "lower", "engine misses / requests"},
	{"engine.evictions_per_req", "1/req", "lower", "engine evictions / requests"},
	{"engine.costed_per_req", "1/req", "lower", "candidates costed / requests"},
	{"core.closed_form_us", "us", "lower", "median SearchVWSDKInstrumented, closed-form path"},
	{"core.pruned_us", "us", "lower", "median SearchVWSDKInstrumented, pruned path"},
	{"core.cost_model_calls_per_req", "1/req", "lower", "median SearchStats.CostModelCalls summed over a replayed request's layers"},
	{"core.pruned_share", "ratio", "lower", "layer searches on the pruned path / all replayed"},
	{"chip.schedule_us", "us", "lower", "median chip.ScheduleLayer"},
	{"energy.estimate_us", "us", "lower", "median energy.Model.Estimate"},
	{"store.get_us", "us", "lower", "median Store.GetPlan in the set-up replay"},
	{"store.hits", "count", "higher", "StoreStats hits over the last set-up"},
	{"store.corrupt", "count", "lower", "StoreStats corrupt over the last set-up and timed phase"},
	{"optimize.point_us", "us", "lower", "median Optimizer.Evaluate of one design point"},
	{"optimize.searches_per_point", "count", "lower", "engine searches / design points, timed phase"},
	{"optimize.frontier_size", "count", "higher", "mean frontier points per response"},
	{"optimize.dominated", "count", "lower", "mean dominated points per response"},
	{"optimize.stream_kb", "KiB", "lower", "mean NDJSON response size"},
	{"runtime.gc_per_1k_req", "count", "lower", "GC cycles per 1000 requests, untraced phase"},
	{"runtime.gc_pause_ms_per_1k_req", "ms", "lower", "stop-the-world pause per 1000 requests, untraced phase"},
	{"host.steal_pct", "%", "lower", "host steal / all CPU ticks over the untraced phase"},
	{"trace.overhead_pct", "%", "lower", "traced ServeHTTP p50 over untraced p50 of the same requests, minus 100"},
}

// layerValue is one per-layer metric's value and the number of samples it
// was taken over.
type layerValue struct {
	v float64
	n int
}

// layerValues computes every per-layer metric from the traced run's
// samples, the counter deltas around the untraced phase, and the two
// phases' latencies.
func layerValues(rec *recorder, plain, traced *phase, before, after, setUp server.Stats, c *checks) map[string]layerValue {
	out := map[string]layerValue{}
	for name, vs := range rec.vals {
		out[name] = layerValue{median(vs), len(vs)}
	}
	for name, h := range rec.hits {
		out[name] = layerValue{ratio(float64(h[0]), float64(h[1])), h[1]}
	}
	n, tn := len(plain.lat), len(traced.lat)
	perReq := func(v uint64) layerValue { return layerValue{float64(v) / float64(n), n} }
	pc0, pc1 := before.PlanCache, after.PlanCache
	out["server.plancache_hit_ratio"] = layerValue{ratio(float64(pc1.Hits-pc0.Hits), float64(pc1.Hits-pc0.Hits+pc1.Misses-pc0.Misses)), int(pc1.Hits - pc0.Hits + pc1.Misses - pc0.Misses)}
	out["server.plancache_evictions_per_req"] = perReq(pc1.Evictions - pc0.Evictions)
	out["server.rejected"] = layerValue{float64(after.Server.Rejected - before.Server.Rejected), n}
	e0, e1 := before.Engine, after.Engine
	out["engine.hit_ratio"] = layerValue{ratio(float64(e1.CacheHits-e0.CacheHits), float64(e1.Searches-e0.Searches)), int(e1.Searches - e0.Searches)}
	out["engine.misses_per_req"] = perReq(e1.CacheMisses - e0.CacheMisses)
	out["engine.evictions_per_req"] = perReq(e1.Evictions - e0.Evictions)
	out["engine.costed_per_req"] = perReq(e1.CandidatesCosted - e0.CandidatesCosted)
	if s := setUp.Store; s != nil {
		out["store.hits"] = layerValue{float64(s.Hits), int(s.Hits + s.Misses)}
		corrupt := s.Corrupt
		if after.Store != nil && before.Store != nil {
			corrupt += after.Store.Corrupt - before.Store.Corrupt
		}
		out["store.corrupt"] = layerValue{float64(corrupt), int(s.Hits + s.Misses)}
	}
	if pts := after.Optimize.PointsEvaluated - before.Optimize.PointsEvaluated; pts > 0 {
		o0, o1 := before.Optimize, after.Optimize
		out["optimize.searches_per_point"] = layerValue{float64(e1.Searches-e0.Searches) / float64(pts), int(pts)}
		out["optimize.dominated"] = perReq(o1.Rejected - o0.Rejected + o1.Evicted - o0.Evicted)
		// The sink tallies of c come from the traced phase.
		out["optimize.frontier_size"] = layerValue{float64(c.frontierPoints) / float64(tn), tn}
		out["optimize.stream_kb"] = layerValue{float64(c.streamBytes) / float64(tn) / 1024, tn}
	}
	w := plain.win
	out["runtime.gc_per_1k_req"] = layerValue{1000 * float64(w.gcs) / float64(n), n}
	out["runtime.gc_pause_ms_per_1k_req"] = layerValue{1000 * ms(w.gcPause) / float64(n), n}
	out["host.steal_pct"] = layerValue{100 * ratio(float64(w.steal), float64(w.ticks)), int(w.ticks)}
	// Both p50s are over the same requests, the run's first, each at the
	// reference host speed of its own stretch.
	b50 := quantile(plain.latencyMs(tn), 0.5) * plain.factor(tn)
	if t50 := quantile(traced.latencyMs(tn), 0.5) * traced.factor(tn); b50 > 0 {
		out["trace.overhead_pct"] = layerValue{100 * (t50/b50 - 1), tn}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printLayerTable prints every per-layer metric with its sample count and
// base.
func printLayerTable(w io.Writer, workload string, vals map[string]layerValue) {
	fmt.Fprintf(w, "per-layer metrics, %s (traced run)\n", workload)
	fmt.Fprintf(w, "  %-36s %14s %-6s %9s  %s\n", "metric", "value", "unit", "count", "base")
	for _, m := range layerMetrics {
		v := vals[m.name]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s %9d  %s\n", m.name, v.v, m.unit, v.n, m.base)
	}
}
