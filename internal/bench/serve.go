package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/server"
)

// ServeSchema identifies the BENCH_serve.json document layout; bump on
// incompatible changes so cross-PR tooling can detect them.
const ServeSchema = "vwsdk-serve-bench/v1"

// ServeEndpointResult is one serve workload's measurements: latency
// percentiles over individual in-process requests plus process-wide
// allocation deltas per request.
type ServeEndpointResult struct {
	// Name is the stable endpoint workload identifier: "compile-cold",
	// "compile-warm" or "sweep-stream".
	Name string `json:"name"`

	// Requests is how many requests the percentiles were computed over.
	Requests int `json:"requests"`

	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`

	// AllocsPerRequest and BytesPerRequest are process-wide malloc/heap
	// deltas over the request loop divided by request count. They include
	// HTTP request construction and (for cold compiles) the search itself;
	// the plan-path-only figure is WarmPlanPathAllocs in the report.
	AllocsPerRequest int64 `json:"allocs_per_request"`
	BytesPerRequest  int64 `json:"bytes_per_request"`

	// ResponseBytes is the response body size of the last request (identical
	// across requests for the compile endpoints).
	ResponseBytes int64 `json:"response_bytes"`

	// Cells is the per-request sweep cell count (sweep-stream only).
	Cells int `json:"cells,omitempty"`
}

// ServeReport is the BENCH_serve.json document, the serving companion to
// the search report: cold/warm /v1/compile and streaming /v1/sweep measured
// end to end through Server.ServeHTTP in-process (no sockets, so the numbers
// isolate the server's own work).
type ServeReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Benchtime string `json:"benchtime"`

	Endpoints []ServeEndpointResult `json:"endpoints"`

	// WarmPlanPathAllocs is the allocation count of the warm-hit plan path
	// alone (Server.CachedPlan: canonical key build, byte-keyed cache
	// lookup, cached-bytes write), measured like testing.AllocsPerRun. The
	// tentpole invariant — pinned here, in TestWarmCompileZeroPlanPathAllocs
	// and by the CI gate — is that it is exactly 0.
	WarmPlanPathAllocs float64 `json:"warm_plan_path_allocs"`
}

// Request counts per endpoint: enough samples for a meaningful p99 in a full
// run, trimmed in Once mode (the CI smoke) where only shape and the
// zero-alloc invariant matter.
const (
	coldRequests  = 30
	warmRequests  = 2000
	sweepRequests = 12

	coldRequestsOnce  = 10
	warmRequestsOnce  = 200
	sweepRequestsOnce = 3
)

var (
	serveCompileBody = []byte(`{"network": "VGG-13", "array": "512x512"}`)
	serveSweepBody   = []byte(`{"networks": ["VGG-13", "ResNet-18"], "arrays": ["256x256", "512x512"]}`)
)

// RunServe executes the serve benchmark and builds the report. Requests are
// driven through Server.ServeHTTP directly — no listener — against a discard
// response writer, so the measurements capture the handler path (decode,
// resolve, key, cache, compile, serialize, write) without socket noise.
func RunServe(ctx context.Context, opts Options) (*ServeReport, error) {
	rep := &ServeReport{
		Schema:    ServeSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: "default",
	}
	if opts.Once {
		rep.Benchtime = "1x"
	}
	n := func(full, once int) int {
		if opts.Once {
			return once
		}
		return full
	}

	// Cold compile: plan cache disabled and a zero-capacity engine cache, so
	// every request pays the full pipeline — the worst-case request.
	cold := server.New(server.Config{
		Engine:        engine.New(engine.WithCacheSize(0)),
		PlanCacheSize: -1,
	})
	r, err := sampleEndpoint(ctx, "compile-cold", cold, "/v1/compile", serveCompileBody, n(coldRequests, coldRequestsOnce), opts)
	if err != nil {
		return nil, err
	}
	rep.Endpoints = append(rep.Endpoints, r)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bench: aborted: %w", err)
	}

	// Warm compile: default server, primed once; every measured request is a
	// plan-cache hit — the common case under production traffic.
	warm := server.New(server.Config{})
	if err := prime(warm, "/v1/compile", serveCompileBody); err != nil {
		return nil, err
	}
	r, err = sampleEndpoint(ctx, "compile-warm", warm, "/v1/compile", serveCompileBody, n(warmRequests, warmRequestsOnce), opts)
	if err != nil {
		return nil, err
	}
	rep.Endpoints = append(rep.Endpoints, r)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bench: aborted: %w", err)
	}

	// Streaming sweep over a warm cache: measures the NDJSON streaming
	// machinery (fan-out, summary encode, per-line flush), not the searches.
	if err := prime(warm, "/v1/sweep", serveSweepBody); err != nil {
		return nil, err
	}
	r, err = sampleEndpoint(ctx, "sweep-stream", warm, "/v1/sweep", serveSweepBody, n(sweepRequests, sweepRequestsOnce), opts)
	if err != nil {
		return nil, err
	}
	r.Cells = 4 // 2 networks × 2 arrays
	rep.Endpoints = append(rep.Endpoints, r)

	// The plan-path-only allocation figure, over the exported fast-path unit.
	req := compile.NewRequest(model.VGG13(), core.Array{Rows: 512, Cols: 512}, compile.Options{})
	_, sp := obs.Start(ctx, "warm-plan-path")
	rep.WarmPlanPathAllocs, err = planPathAllocs(warm, req)
	sp.End()
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// prime issues one request so subsequent measurements hit warm caches.
func prime(h http.Handler, path string, body []byte) error {
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rw.Code != http.StatusOK {
		return fmt.Errorf("bench: prime %s: status %d: %s", path, rw.Code, rw.Body.String())
	}
	return nil
}

// sampleEndpoint issues n requests against h, timing each ServeHTTP call
// individually for the percentiles and wrapping the whole loop in one
// memstats delta for the per-request allocation figures. Each endpoint's
// request loop is one span on a -trace, so a serve run's trace shows the
// three endpoints side by side.
func sampleEndpoint(ctx context.Context, name string, h http.Handler, path string, body []byte, n int, opts Options) (ServeEndpointResult, error) {
	_, sp := obs.Start(ctx, name)
	defer sp.End()
	sp.SetInt("requests", int64(n))
	durs := make([]time.Duration, n)
	rw := &discardResponseWriter{header: make(http.Header, 4)}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rw.reset()
		start := time.Now()
		h.ServeHTTP(rw, req)
		durs[i] = time.Since(start)
		if rw.status != http.StatusOK {
			return ServeEndpointResult{}, fmt.Errorf("bench: %s request %d: status %d", name, i, rw.status)
		}
	}
	runtime.ReadMemStats(&after)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return ServeEndpointResult{
		Name:             name,
		Requests:         n,
		P50Ns:            durs[n/2].Nanoseconds(),
		P99Ns:            durs[min(n-1, n*99/100)].Nanoseconds(),
		AllocsPerRequest: int64(after.Mallocs-before.Mallocs) / int64(n),
		BytesPerRequest:  int64(after.TotalAlloc-before.TotalAlloc) / int64(n),
		ResponseBytes:    rw.bytes,
	}, nil
}

// planPathAllocs measures the warm-hit plan path in isolation, mirroring
// testing.AllocsPerRun (GOMAXPROCS pinned to 1, warm-up run excluded).
func planPathAllocs(s *server.Server, req compile.Request) (float64, error) {
	const runs = 500
	n, err := mallocs(runs, func() error {
		if ok, err := s.CachedPlan(io.Discard, req); err != nil || !ok {
			return fmt.Errorf("bench: warm plan path: hit=%v err=%v", ok, err)
		}
		return nil
	})
	return float64(n) / runs, err
}

// discardResponseWriter is the no-op http.ResponseWriter the serve loops
// write into: it byte-counts and flushes nowhere, so response delivery costs
// no benchmark-side allocations.
type discardResponseWriter struct {
	header http.Header
	status int
	bytes  int64
}

func (w *discardResponseWriter) Header() http.Header { return w.header }

func (w *discardResponseWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *discardResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.bytes += int64(len(p))
	return len(p), nil
}

func (w *discardResponseWriter) Flush() {}

func (w *discardResponseWriter) reset() {
	clear(w.header)
	w.status = 0
	w.bytes = 0
}
