// Command perfbench is the repository's benchmark. It drives vwsdkd's
// handler, server.Server.ServeHTTP, in-process and without sockets, from
// one closed-loop client at the default GOMAXPROCS and GOGC, over one of
// three seeded workloads:
//
//	cold-explore   every request compiles a zoo network on a new array geometry
//	warm-restart   a daemon restarted over a persistent store serves cached plans
//	codesign       POST /v1/optimize over design spaces whose searches are memoized
//
// Every response is checked. The run prints its metrics by name and unit,
// then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the run repeats the timed phase on a fresh server with
// a span around each ServeHTTP call, replays a seeded sample of requests
// through the public calls the server makes, one span each, on replicas
// that never warm the measured caches, and reports the per-layer metrics;
// the trace is written as Chrome trace JSON under .bench_build/perfbench.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload cold-explore -seed 1 -seconds 20 -trace 0
//
// -seconds fixes the run's request count at a per-workload rate calibrated
// so that a run lasts about that long on a 2-vCPU VM, so every run with the
// same seed does identical work.
//
// Every reported time is rescaled to the reference VM's speed by a
// calibration unit timed throughout the run (measure.go, "Host speed"),
// which keeps the times steady on a shared VM. The unit is measured apart
// from the program, so the rescaling cannot hide a change in it. The
// uncorrected figures are printed too.
//
// Why this load shape. One client: on two vCPUs a second client spreads
// throughput and tail latency far more than host noise does. A closed loop:
// vwsdkd's callers (the CLI, CI jobs, co-design scripts) wait for each reply
// before sending the next request. In-process: sockets would add kernel
// scheduling to a warm hit of about 15 µs. The tail is p90, not p99, which
// sits on the garbage collector's cycle and moves with it; and CPU time per
// request replaces wall requests per second, which with one client is the
// inverse of mean latency and follows host steal.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"time"

	"repro/internal/compile"
	"repro/internal/server"
)

// spec is one workload's fixed parameters.
type spec struct {
	rate     int // requests per second of -seconds
	limit    int // most requests a run can send; 0 for no limit
	calEvery int // requests between host-speed samples, about 50 ms of serving
	traced   int // requests of the traced phase: the first of the run's
	sample   int // requests the traced phase replays
	new      func() workload
}

// cold-explore's limit is one request per (network, array) pair, which its
// rate reaches at 20 seconds: every full-length run then explores the same
// pairs, in a seeded order with seeded options, so mapped_cycles does not
// depend on the seed.
var specs = map[string]spec{
	"cold-explore": {rate: 1120, limit: coldKeys, calEvery: 60, traced: 5000, sample: 1000, new: func() workload { return &coldExplore{} }},
	"warm-restart": {rate: 55000, calEvery: 4000, traced: 50000, sample: 10000, new: func() workload { return &warmRestart{} }},
	"codesign":     {rate: 300, calEvery: 15, traced: 1000, sample: 150, new: func() workload { return &codesign{} }},
}

// setUps is how many fresh set-ups a run times; setup_s is their median.
const setUps = 25

// minRequests leaves at least ten samples beyond p90, which is taken over
// every request of the run.
const minRequests = 100

// endToEnd are the metrics a user of vwsdkd sees, reported with tracing off.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_p90_ms", "ms", "lower", ""},
	{"cpu_ms_per_req", "ms", "lower", ""},
	{"allocs_per_req", "count", "lower", ""},
	{"alloc_bytes_per_req", "B", "lower", ""},
	{"heap_live_mb", "MiB", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"ok_ratio", "ratio", "higher", ""},
	{"mapped_cycles", "cycles", "lower", ""},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "cold-explore, warm-restart or codesign")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "run length; fixes the request count")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	sp, ok := specs[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		return 2, fmt.Errorf("usage: perfbench -workload cold-explore|warm-restart|codesign -seed N -seconds S -trace 0|1")
	}
	if err := checkAnchors(); err != nil {
		return 1, err
	}
	n := max(minRequests, *seconds*sp.rate)
	if sp.limit > 0 {
		n = min(n, sp.limit)
	}
	w := sp.new()
	defer w.close()
	if err := w.prepare(*seed, n); err != nil {
		return 1, err
	}

	cal, err := newCalibrator()
	if err != nil {
		return 1, err
	}
	setups := make([]float64, setUps)
	setUpSpeed := make([]float64, setUps)
	var srv *server.Server
	for k := range setups {
		runtime.GC()
		start := time.Now()
		if srv, err = w.setUp(); err != nil {
			return 1, err
		}
		setups[k] = time.Since(start).Seconds()
		setUpSpeed[k] = cal.sample()
	}
	setUpStats := srv.Stats()

	var c checks
	s, err := w.newSink(srv, &c, nil)
	if err != nil {
		return 1, err
	}
	before := srv.Stats()
	plain, err := timePhase(srv, w.inputs(), s, cal, sp.calEvery, nil)
	if err != nil {
		return 1, err
	}
	after := srv.Stats()
	lat := plain.latencyMs(n)
	raw := map[string]float64{
		"latency_p50_ms":      quantile(lat, 0.5),
		"latency_p90_ms":      quantile(lat, 0.9),
		"cpu_ms_per_req":      ms(plain.win.cpu) / float64(n),
		"allocs_per_req":      float64(plain.win.mallocs) / float64(n),
		"alloc_bytes_per_req": float64(plain.win.bytes) / float64(n),
		"heap_live_mb":        float64(plain.heapLive) / (1 << 20),
		"setup_s":             median(setups),
		"ok_ratio":            float64(n-c.failed) / float64(n),
		"mapped_cycles":       float64(c.cycles),
	}
	// Times at the reference host speed, each by the samples taken in its
	// own stretch: the timed phase's or the set-ups'.
	f := plain.factor(n)
	metrics := maps.Clone(raw)
	for _, m := range []string{"latency_p50_ms", "latency_p90_ms", "cpu_ms_per_req"} {
		metrics[m] *= f
	}
	metrics["setup_s"] *= factor(setUpSpeed)
	fmt.Fprintf(stdout, "workload %s, seed %d: %d requests, one closed-loop client, GOMAXPROCS %d, %s\n",
		*name, *seed, n, runtime.GOMAXPROCS(0), runtime.Version())
	printDiagnostics(stdout, "untraced phase", plain, n, f)
	fmt.Fprintf(stdout, "  %-20s %16s %16s\n", "metric", "reported", "unscaled")
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "  %-20s %16.6f %16.6f %s\n", m.name, metrics[m.name], raw[m.name], m.unit)
	}
	attempted, failed := n, c.failed
	defs := endToEnd
	if *traced == 1 {
		tm, tn, tf, err := tracedRun(stdout, *name, *seed, sp, w, cal, plain, before, after, setUpStats)
		if err != nil {
			return 1, err
		}
		metrics, defs = tm, layerMetrics
		attempted += tn
		failed += tf
	}
	if c.first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c.first)
	}
	if err := printResult(stdout, attempted, failed, defs, metrics); err != nil {
		return 1, err
	}
	if failed > 0 {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// tracedRun sets up a fresh server, drives the run's first sp.traced
// requests through it with a span around each ServeHTTP call, replays a
// seeded sample of them, and returns the per-layer metrics with the phase's
// request and failure counts.
func tracedRun(stdout io.Writer, name string, seed uint64, sp spec, w workload, cal *calibrator,
	plain *phase, before, after, setUpStats server.Stats) (map[string]float64, int, int, error) {
	srv, err := w.setUp()
	if err != nil {
		return nil, 0, 0, err
	}
	rec := newRecorder("perfbench " + name)
	var c checks
	s, err := w.newSink(srv, &c, rec)
	if err != nil {
		return nil, 0, 0, err
	}
	replay, err := w.newReplay(rec)
	if err != nil {
		return nil, 0, 0, err
	}
	in := w.inputs().prefix(sp.traced)
	n := in.n()
	r := newRand(seed, "trace-sample")
	sampled := make([]bool, n)
	for _, i := range r.Perm(n)[:min(sp.sample, n)] {
		sampled[i] = true
	}
	ctx, span := rec.start("traced phase")
	rec.ctx = ctx
	traced, err := timePhase(srv, in, s, cal, sp.calEvery, &hooks{rec: rec, replay: replay, sample: func(i int) bool { return sampled[i] }})
	span.End()
	if err != nil {
		return nil, 0, 0, err
	}
	if c.first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: traced phase check failed:", c.first)
	}
	f := traced.factor(n)
	printDiagnostics(stdout, "traced phase", traced, n, f)
	vals := layerValues(rec, plain, traced, before, after, setUpStats, &c)
	for _, m := range layerMetrics {
		if v := vals[m.name]; isTime(m.unit) {
			vals[m.name] = layerValue{v.v * f, v.n}
		}
	}
	printLayerTable(stdout, name, vals)
	path, err := rec.writeChrome(name, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(stdout, "chrome trace: %s (%d spans)\n", path, rec.tr.Len())
	metrics := make(map[string]float64, len(vals))
	for _, m := range layerMetrics {
		metrics[m.name] = vals[m.name].v
	}
	return metrics, n, c.failed, nil
}

// printDiagnostics prints what lets an outlier run be traced to the host
// rather than the program: request count, GC cycles and pause, host steal
// and the phase's host-speed factor f with its number of samples.
func printDiagnostics(w io.Writer, label string, ph *phase, n int, f float64) {
	fmt.Fprintf(w, "%s: requests %d, gc cycles %d, gc pause %.3f ms, host.steal_pct %.2f, host-speed factor %.4f over %d samples\n",
		label, n, ph.win.gcs, ms(ph.win.gcPause), 100*ratio(float64(ph.win.steal), float64(ph.win.ticks)), f, len(ph.speed))
}

// printResult prints the last line of a run: the JSON result object.
func printResult(w io.Writer, attempted, failed int, defs []metricDef, vals map[string]float64) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]metric{}}
	for _, m := range defs {
		out.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// goldenVGG13 is the committed VGG-13@512x512 plan every route must replay
// to.
const goldenVGG13 = "internal/compile/testdata/vgg13_512_plan.golden.json"

// checkAnchors pins the program to the paper before anything is timed:
// ResNet-18 on a 512x512 array must total 4294 cycles (Table I), and the
// served VGG-13 plan must replay to the committed golden file.
func checkAnchors() error {
	srv := server.New(server.Config{})
	data, err := post(srv, "/v1/compile", []byte(`{"network":"ResNet-18","array":"512x512"}`))
	if err != nil {
		return err
	}
	plan, err := compile.FromJSON(data)
	if err != nil {
		return err
	}
	if plan.Totals.Cycles != 4294 {
		return fmt.Errorf("ResNet-18@512x512 totals %d cycles, paper Table I has 4294", plan.Totals.Cycles)
	}
	golden, err := os.ReadFile(goldenVGG13)
	if err != nil {
		return err
	}
	if data, err = post(srv, "/v1/compile", []byte(`{"network":"VGG-13","array":"512x512"}`)); err != nil {
		return err
	}
	if plan, err = compile.FromJSON(data); err != nil {
		return err
	}
	replayed, err := plan.ToJSON()
	if err != nil {
		return err
	}
	if string(replayed) != string(golden) {
		return fmt.Errorf("served VGG-13@512x512 plan does not replay to %s", goldenVGG13)
	}
	return nil
}
