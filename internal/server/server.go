// Package server is the HTTP compile service behind cmd/vwsdkd: a
// long-lived front end to the compile pipeline that keeps one
// engine.Engine's search cache warm across requests, the way a
// production mapping service would amortize VW-SDK's search over many
// clients asking for the same networks.
//
// The server owns a single shared Compiler and adds, on top of the engine's
// per-layer result cache, a whole-plan LRU cache keyed on the canonical
// compile.Request (compile.Key) with singleflight coalescing: N identical
// concurrent requests run exactly one compilation and share its serialized
// bytes. Both caches are a memo.Cache, so the plan cache follows the
// engine's rules for hits, joins, failed-leader retries and counters.
// Compilations are bounded by a semaphore with a configurable wait
// queue, and sweep streams by their own same-sized semaphore; requests
// beyond the limits are rejected with 503 instead of piling up. Request
// bodies are size-limited and every error — including 404s and 405s — is
// structured JSON ({"error": {"status", "message"}}).
//
// Every handler runs under the request's own context (plus the configured
// per-request deadline): a client that disconnects mid-compile cancels the
// underlying search at its next checkpoint and frees its semaphore or queue
// slot; a request past its deadline gets a structured 504. The same
// execution path also powers the asynchronous job API — POST /v1/jobs
// submits a compile or sweep and returns immediately, GET /v1/jobs/{id}
// reports state and per-cell progress, DELETE cancels via the job's context
// (see jobs.go).
//
// Endpoints:
//
//	POST   /v1/compile    {network, array, options} → serialized compile.NetworkPlan
//	POST   /v1/sweep      {networks, arrays, variants, options} → NDJSON plan summaries, streamed per cell
//	POST   /v1/optimize   design-space spec → NDJSON frontier events, then the final Pareto frontier
//	POST   /v1/jobs       {compile: {...}}, {sweep: {...}} or {optimize: {...}} → job snapshot (202)
//	GET    /v1/jobs       job listing (without payloads)
//	GET    /v1/jobs/{id}  job snapshot with progress and results
//	DELETE /v1/jobs/{id}  cancel the job
//	POST   /v1/compile?trace=1  debug form: plan plus request span tree and compile provenance
//	GET    /v1/networks   the predefined model zoo
//	GET    /healthz       liveness, version/revision, uptime, goroutines
//	GET    /stats         process, engine, plan-cache, job and server counters
//	GET    /metrics       Prometheus text exposition (see DESIGN.md §9 for the metric contract)
//
// A *Server is an http.Handler; serve it with http.Server (cmd/vwsdkd adds
// flags, access logging to stderr and graceful shutdown on SIGTERM).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memo"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/peer"
)

// Config configures a Server. The zero value is usable: a fresh engine,
// default cache and concurrency limits, and no access log.
type Config struct {
	// Engine is the shared search engine; nil builds a default engine.New().
	Engine *engine.Engine

	// Searcher, when non-nil, overrides Engine as the compiler's search
	// backend (the engine then only serves /stats). Tests use it to inject
	// gated searchers with deterministic blocking; production deployments
	// leave it nil.
	Searcher core.Searcher

	// PlanCacheSize is the whole-plan LRU capacity in entries; 0 selects the
	// default (128), negative disables plan caching (identical concurrent
	// requests still coalesce).
	PlanCacheSize int

	// MaxConcurrent bounds concurrently running compilations; 0 selects
	// GOMAXPROCS.
	MaxConcurrent int

	// MaxQueue bounds compilations waiting for a slot; 0 selects the
	// default (64), negative disables queueing (busy server rejects
	// immediately).
	MaxQueue int

	// MaxBodyBytes limits request bodies; 0 selects the default (1 MiB).
	MaxBodyBytes int64

	// RequestTimeout is the per-request deadline applied on top of the
	// client's own context, for synchronous handlers and jobs alike; 0
	// disables it. A request past the deadline is abandoned at the search's
	// next cancellation checkpoint and answered with a structured 504.
	RequestTimeout time.Duration

	// JobTTL is how long a finished (done/failed/cancelled) job remains
	// queryable before it is garbage-collected; 0 selects the default
	// (10 minutes), negative collects terminal jobs on the next access.
	JobTTL time.Duration

	// MaxJobs bounds jobs that are queued or running at once; 0 selects the
	// default (64). Submissions beyond it are rejected with 503.
	MaxJobs int

	// Logger receives one access-log line per request; nil disables logging.
	Logger *log.Logger

	// Store is the persistent plan store (internal/store) consulted on
	// plan-cache misses before any search runs and written behind every
	// locally computed plan, so restarts come up warm; nil disables
	// persistence. The warm-hit fast path is unaffected: the store is only
	// reached inside the miss singleflight.
	Store compile.PlanStore

	// Peers enables consistent-hash proxy-on-miss across a static vwsdkd
	// fleet (internal/peer): a miss on a key another node owns is fetched
	// from that node instead of searched locally, falling back to local
	// compute when the owner is unreachable. nil disables the fleet tier.
	Peers *peer.Client
}

const (
	defaultPlanCacheSize = 128
	defaultMaxQueue      = 64
	defaultMaxBodyBytes  = 1 << 20
	defaultJobTTL        = 10 * time.Minute
	defaultMaxJobs       = 64
)

// Server is the compile service. Build one with New; it is an http.Handler
// safe for concurrent use.
type Server struct {
	eng     *engine.Engine
	comp    *compile.Compiler
	plans   *memo.Cache[string, *planEntry] // keyed on compile.Key
	jobs    *jobSet
	logger  *log.Logger
	maxBody int64
	timeout time.Duration
	mux     *http.ServeMux

	sem      chan struct{} // bounds concurrently running compilations
	sweepSem chan struct{} // bounds concurrently running sweep streams
	maxQueue int
	queued   atomic.Int64

	store compile.PlanStore
	peers *peer.Client
	opt   *optimize.Optimizer

	requests    atomic.Uint64
	inFlight    atomic.Int64
	rejected    atomic.Uint64
	peerProxied atomic.Uint64
	peerFailed  atomic.Uint64

	optRuns     atomic.Uint64 // optimize runs started (streams + jobs)
	optPoints   atomic.Uint64 // design points evaluated (admits + rejects)
	optAdmitted atomic.Uint64
	optEvicted  atomic.Uint64
	optRejected atomic.Uint64

	started   time.Time
	metrics   *obs.Registry             // the histograms; counters and gauges render from Stats (obs.go)
	httpHist  *obs.Histogram            // request durations, for /metrics and /stats latency_ms
	phaseHist map[string]*obs.Histogram // per-phase compile-time histograms, keyed by span name
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = engine.New()
	}
	var searcher core.Searcher = cfg.Engine
	if cfg.Searcher != nil {
		searcher = cfg.Searcher
	}
	if cfg.PlanCacheSize == 0 {
		cfg.PlanCacheSize = defaultPlanCacheSize
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = defaultMaxQueue
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = defaultJobTTL
	} else if cfg.JobTTL < 0 {
		cfg.JobTTL = 0
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = defaultMaxJobs
	}
	s := &Server{
		eng:      cfg.Engine,
		comp:     compile.New(searcher),
		plans:    memo.New[string, *planEntry](cfg.PlanCacheSize),
		store:    cfg.Store,
		peers:    cfg.Peers,
		jobs:     newJobSet(cfg.JobTTL, cfg.MaxJobs),
		logger:   cfg.Logger,
		maxBody:  cfg.MaxBodyBytes,
		timeout:  cfg.RequestTimeout,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		sweepSem: make(chan struct{}, cfg.MaxConcurrent),
		maxQueue: cfg.MaxQueue,
		mux:      http.NewServeMux(),
		started:  time.Now(),
	}
	// The optimizer compiles through the server's shared compiler, so design
	// points reuse the same engine memoization every other endpoint warms.
	s.opt = optimize.New(s.comp)
	s.initMetrics()
	// Every path is registered for all methods and dispatched through
	// methods{}, so method mismatches get the structured 405 below instead
	// of the mux's plain-text default; the "/" fallback turns unknown paths
	// into structured 404s.
	s.mux.Handle("/v1/compile", methods{http.MethodPost: s.handleCompile})
	s.mux.Handle("/v1/sweep", methods{http.MethodPost: s.handleSweep})
	s.mux.Handle("/v1/optimize", methods{http.MethodPost: s.handleOptimize})
	s.mux.Handle("/v1/jobs", methods{http.MethodPost: s.handleJobCreate, http.MethodGet: s.handleJobList})
	s.mux.Handle("/v1/jobs/{id}", methods{http.MethodGet: s.handleJobGet, http.MethodDelete: s.handleJobDelete})
	s.mux.Handle("/v1/networks", methods{http.MethodGet: s.handleNetworks})
	s.mux.Handle("/healthz", methods{http.MethodGet: s.handleHealthz})
	s.mux.Handle("/stats", methods{http.MethodGet: s.handleStats})
	s.mux.Handle("/metrics", methods{http.MethodGet: s.handleMetrics})
	s.mux.HandleFunc("/", s.handleNotFound)
	return s
}

// Engine returns the shared search engine (for tests and stats).
func (s *Server) Engine() *engine.Engine { return s.eng }

// methods dispatches one registered path by HTTP method, replacing the
// mux's built-in plain-text 405 with the structured error JSON every other
// rejection uses (and advertising the allowed methods, as RFC 9110
// requires).
type methods map[string]http.HandlerFunc

func (m methods) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := m[r.Method]; ok {
		h(w, r)
		return
	}
	// HEAD is implicitly served by the GET handler, as the mux's method
	// patterns would have it: net/http discards the body and keeps the
	// headers, so health probes using HEAD keep working.
	if r.Method == http.MethodHead {
		if h, ok := m[http.MethodGet]; ok {
			h(w, r)
			return
		}
	}
	allowed := make([]string, 0, len(m))
	for method := range m {
		allowed = append(allowed, method)
	}
	sort.Strings(allowed)
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	writeError(w, errorf(http.StatusMethodNotAllowed,
		"method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, strings.Join(allowed, ", ")))
}

// handleNotFound is the structured fallback for paths no handler claims.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, errorf(http.StatusNotFound, "no such endpoint %s", r.URL.Path))
}

// ServeHTTP dispatches to the API endpoints, wrapped in request-id
// assignment, request counting, latency measurement and access logging.
// Every response carries X-Request-Id (the client's, when safe to echo,
// otherwise generated); the same id prefixes the access-log line and is
// embedded in structured error bodies, so a log line, a trace and an error
// report can all be joined on it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	rid := requestID(r)
	w.Header().Set("X-Request-Id", rid)
	rw := &responseWriter{ResponseWriter: w}
	s.mux.ServeHTTP(rw, r)
	d := time.Since(start)
	s.httpHist.Observe(d.Seconds())
	if s.logger != nil {
		s.logger.Printf("%s %s %s %d %dB %s", rid, r.Method, r.URL.Path, rw.code(), rw.bytes, d.Round(time.Microsecond))
	}
}

// requestContext derives a synchronous handler's working context: the
// client's own context (cancelled on disconnect) plus the configured
// per-request deadline. Callers must invoke the returned cancel.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// responseWriter records the status code and body size for the access log,
// forwarding Flush so the sweep stream still flushes per line.
type responseWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *responseWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *responseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *responseWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// acquire takes one compilation slot, waiting until one frees or ctx ends
// (client gone, or deadline hit). Unless block is set, a request that
// cannot take a slot at once waits in the bounded queue, and a full queue
// rejects with errBusy; block is for sweep cells, warm-up entries and jobs,
// which belong to one already-admitted request and must not be rejected
// individually. Matching release() must follow every nil return.
func (s *Server) acquire(ctx context.Context, block bool) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if !block {
		if s.maxQueue <= 0 || s.queued.Add(1) > int64(s.maxQueue) {
			if s.maxQueue > 0 {
				s.queued.Add(-1)
			}
			s.rejected.Add(1)
			return errBusy
		}
		defer s.queued.Add(-1)
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		// Freeing the queue slot is the whole point: a dead client must not
		// keep occupying admission capacity. The error maps to 503 or 504
		// through toHTTPError.
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// compilePlan serves one compilation through the plan cache (a memo.Cache:
// LRU plus singleflight coalescing), entirely under ctx: waiting for
// admission, joining an in-flight compilation and the search loops
// themselves all abort when ctx ends. block selects the sweep-cell/job
// admission policy (wait indefinitely) over the compile-endpoint one
// (bounded queue, 503). hop marks a request already proxied by a peer,
// which must be answered locally (never re-proxied). The bool reports
// whether the entry was served without running the fill below (an LRU hit
// or a coalesced join). The returned entry is shared and must not be
// mutated.
//
// A miss fills through the cache tiers in cost order, all inside the
// singleflight (so N identical concurrent requests — including a fleet-wide
// thundering herd arriving through the peer hop — still do exactly one
// search somewhere):
//
//  1. the persistent store (validated on load; a quarantined entry falls
//     through to recompute),
//  2. the owning peer, when a fleet is configured and another node owns the
//     key (failure degrades to local compute),
//  3. a local compile, written behind to the store.
//
// Every compilation that actually runs records its own provenance trace —
// queue-wait, the compile pipeline's span tree, and plan serialization —
// regardless of whether the requesting client asked for one: the tree and
// phase durations are frozen onto the cache entry (so a later ?trace=1 hit
// still answers where the plan came from) and feed the per-phase
// vwsdk_compile_phase_seconds histograms. The provenance trace deliberately
// replaces any request trace on ctx; the request's own tree references the
// compile through its "handler" phase. Store and peer fills carry no
// provenance — the search they avoid is exactly the part worth tracing.
func (s *Server) compilePlan(ctx context.Context, key string, req compile.Request, block, hop bool) (*planEntry, bool, error) {
	entry, outcome, err := s.plans.Do(ctx, key, func() (*planEntry, error) {
		if s.store != nil {
			if data, plan, ok := s.store.GetPlan(key); ok {
				return &planEntry{plan: plan, data: data, source: sourceStore}, nil
			}
		}
		if res, ok := s.fetchFromPeer(ctx, key, req, hop); ok {
			return res, nil
		}
		prov := obs.New(req.Network.Name)
		pctx := obs.NewContext(ctx, prov)
		_, qsp := obs.Start(pctx, "queue-wait")
		err := s.acquire(ctx, block)
		qsp.End()
		if err != nil {
			return nil, err
		}
		defer s.release()
		p, err := s.comp.Compile(pctx, req)
		if err != nil {
			return nil, err
		}
		// Serialize compactly once; every request served from this entry —
		// including warm hits, which are allocation-free — writes these bytes.
		_, esp := obs.Start(pctx, "encode")
		data, err := encodePlan(p)
		esp.End()
		if err != nil {
			return nil, err
		}
		s.observeCompile(prov)
		if s.store != nil {
			// Write-behind: PutPlan is asynchronous, so persistence costs the
			// serve path nothing. Locally computed plans are persisted whether
			// or not this node owns the key — a node that computed under peer
			// degradation stays warm across its own restarts too.
			s.store.PutPlan(key, data)
		}
		return &planEntry{plan: p, data: data, trace: prov.Tree(), phases: prov.Phases()}, nil
	})
	if err != nil {
		return nil, outcome != memo.Computed, err
	}
	return *entry, outcome != memo.Computed, nil
}

// encodePlan serializes p compactly with compile.AppendPlan in a pooled
// scratch buffer, then copies the bytes into one slice of exactly their
// length: the plan cache and the store hold them for the entry's lifetime,
// so they are allocated once and never with a growing buffer's slack.
func encodePlan(p *compile.NetworkPlan) ([]byte, error) {
	bp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bp)
	buf := slices.Grow((*bp)[:0], planBytesPerLayer*(len(p.Layers)+1))
	buf, err := compile.AppendPlan(buf, p)
	if err != nil {
		return nil, fmt.Errorf("encode plan: %w", err)
	}
	*bp = buf // keep the grown capacity
	data := make([]byte, len(buf))
	copy(data, buf)
	return data, nil
}

// fetchFromPeer tries to fill a miss from the key's owning peer. It returns
// ok=false — degrade to local compute — when no fleet is configured, the
// request already took its one hop, this node owns the key, the request is
// not wire-representable, or the owner is down or answers garbage or a plan
// for another key. Failures of an actual attempt are counted;
// configuration-based skips are not.
func (s *Server) fetchFromPeer(ctx context.Context, key string, req compile.Request, hop bool) (*planEntry, bool) {
	if s.peers == nil || hop {
		return nil, false
	}
	owner, self := s.peers.Ring().Owner(key)
	if self {
		return nil, false
	}
	body, ok := proxyBody(req)
	if !ok {
		return nil, false
	}
	data, err := s.peers.Fetch(ctx, owner, body)
	if err != nil {
		s.peerFailed.Add(1)
		if s.logger != nil {
			s.logger.Printf("peer: falling back to local compute for %s: %v", req.Network.Name, err)
		}
		return nil, false
	}
	// Validate the peer's bytes exactly like a store load: a corrupt,
	// truncated or wrong-key response must never enter the cache. The owner
	// serialized a validated plan for this key, so a failure here means
	// transport damage, version skew or a misbehaving peer — either way,
	// local compute is the safe answer.
	plan, err := compile.FromKeyedJSON(data, key)
	if err != nil {
		s.peerFailed.Add(1)
		if s.logger != nil {
			s.logger.Printf("peer: rejected invalid plan from %s: %v", owner, err)
		}
		return nil, false
	}
	s.peerProxied.Add(1)
	return &planEntry{plan: plan, data: data, source: sourcePeer}, true
}

// proxyBody serializes a resolved request back into the /v1/compile wire
// format for the peer hop. Requests whose options have no wire form — a
// custom energy model or physical plans, neither reachable through the HTTP
// surface today — report ok=false and are compiled locally.
func proxyBody(req compile.Request) ([]byte, bool) {
	if req.Options.Energy != nil || req.Options.Plans {
		return nil, false
	}
	spec, err := model.ToJSON(req.Network)
	if err != nil {
		return nil, false
	}
	wire := struct {
		Network json.RawMessage `json:"network"`
		Array   map[string]int  `json:"array"`
		Options *requestOptions `json:"options,omitempty"`
	}{
		Network: json.RawMessage(spec),
		Array:   map[string]int{"rows": req.Array.Rows, "cols": req.Array.Cols},
		Options: wireOptions(req.Options),
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, false
	}
	return body, true
}

// planBytesPerLayer bounds a compiled plan's compact encoding per layer
// (zoo plans run 1.6–1.8 KiB). encodePlan reserves it up front, so a
// scratch buffer the pool has dropped at a GC is allocated once at about
// the plan's size rather than grown in append's 1.25× steps.
const planBytesPerLayer = 2 << 10

// scratchPool recycles compile.AppendKey and compile.AppendPlan scratch
// buffers across requests, so the warm-hit fast path builds its cache key
// without allocating and a compile encodes its plan without growing a
// buffer.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// Shared header value slices: assigning them into the header map directly
// avoids the per-request []string{v} allocation http.Header.Set would pay.
var (
	hdrJSON  = []string{"application/json"}
	hdrHit   = []string{"hit"}
	hdrMiss  = []string{"miss"}
	hdrStore = []string{sourceStore}
	hdrPeer  = []string{sourcePeer}
)

// setPlanHeaders writes the /v1/compile response headers without
// allocating. X-Cache reports how this response was produced: "hit" (LRU
// hit or coalesced join), "store" (filled from the persistent store),
// "peer" (fetched from the owning peer) or "miss" (compiled here).
func setPlanHeaders(h http.Header, cached bool, source string) {
	h["Content-Type"] = hdrJSON
	switch {
	case cached:
		h["X-Cache"] = hdrHit
	case source == sourceStore:
		h["X-Cache"] = hdrStore
	case source == sourcePeer:
		h["X-Cache"] = hdrPeer
	default:
		h["X-Cache"] = hdrMiss
	}
}

// isPeerHop reports whether the request was proxied here by a peer
// (peer.HopHeader present) and must therefore be answered locally — one hop
// maximum, so disagreeing rings can never form a proxy cycle.
func isPeerHop(r *http.Request) bool {
	return len(r.Header[peer.HopHeader]) > 0
}

// cachedEntry builds req's canonical key in a pooled buffer and looks it up
// in the plan cache, allocating nothing on either hit or miss. It returns
// nil when the plan is not cached; the error reports an invalid request.
func (s *Server) cachedEntry(req compile.Request) (*planEntry, error) {
	bp := scratchPool.Get().(*[]byte)
	buf, err := compile.AppendKey((*bp)[:0], req)
	if err != nil {
		scratchPool.Put(bp)
		return nil, err
	}
	*bp = buf // keep the grown capacity
	entry, _ := memo.Lookup(s.plans, buf)
	scratchPool.Put(bp)
	return entry, nil
}

// CachedPlan writes the cached serialized plan for req to w and reports
// whether one was present, without compiling on a miss. It is the warm-hit
// fast path of the /v1/compile handler, exported as a measurable unit:
// perfbench times it as server.cached_plan_us, and
// TestWarmCompileZeroPlanPathAllocs pins it at zero allocations per call.
func (s *Server) CachedPlan(w io.Writer, req compile.Request) (bool, error) {
	entry, err := s.cachedEntry(req)
	if err != nil || entry == nil {
		return false, err
	}
	_, err = w.Write(entry.data)
	return true, err
}

// handleCompile serves POST /v1/compile, and with ?trace=1 its debug form:
// the same steps run under a request trace (decode, lookup and, on a miss,
// handler phases) and writeTraced answers with the plan, that span tree and
// the plan's compile provenance. Untraced, every span below is a no-op.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tr, tctx := requestTrace(r)
	_, sp := obs.Start(tctx, "decode")
	var body compileRequest
	herr := decodeJSONBody(w, r, s.maxBody, &body)
	var req compile.Request
	if herr == nil {
		req, herr = body.resolve()
	}
	sp.End()
	if herr != nil {
		writeError(w, herr)
		return
	}
	// Warm-hit fast path: key bytes in a pooled buffer, byte-keyed cache
	// lookup, cached serialized bytes, shared header slices — no
	// allocations, no request context, no singleflight machinery.
	_, sp = obs.Start(tctx, "lookup")
	entry, err := s.cachedEntry(req)
	sp.End()
	if err != nil {
		writeError(w, errorf(http.StatusUnprocessableEntity, "%v", err))
		return
	}
	cached := entry != nil
	if !cached {
		key, err := compile.Key(req)
		if err != nil {
			// Unreachable (cachedEntry validated req), kept for defense.
			writeError(w, errorf(http.StatusUnprocessableEntity, "%v", err))
			return
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		_, sp = obs.Start(tctx, "handler")
		entry, cached, err = s.compilePlan(ctx, key, req, false, isPeerHop(r))
		sp.End()
		if err != nil {
			writeError(w, toHTTPError(err))
			return
		}
		if tr == nil {
			// Server-Timing carries the compile provenance phases
			// (queue-wait, compile, encode) plus this request's own total. A
			// coalesced join reports the leader's phases, which may exceed
			// the joiner's total — the phases describe the compilation, the
			// total this request. The allocation-free warm hit skips the
			// header.
			w.Header().Set("Server-Timing", obs.ServerTiming(entry.phases, time.Since(start)))
		}
	}
	setPlanHeaders(w.Header(), cached, entry.source)
	if tr != nil {
		writeTraced(w, tr, entry, cached, start)
		return
	}
	w.Write(entry.data)
}

// requestTrace returns the ?trace=1 request trace and a context carrying
// it, or nil and r's own context, on which every span is a no-op. The
// RawQuery guard keeps the common no-query request off url.Values parsing
// entirely.
func requestTrace(r *http.Request) (*obs.Trace, context.Context) {
	if r.URL.RawQuery == "" || r.URL.Query().Get("trace") != "1" {
		return nil, r.Context()
	}
	tr := obs.New("request")
	return tr, obs.NewContext(r.Context(), tr)
}

// writeTraced answers the ?trace=1 debug form: the plan, the request's span
// tree, and the plan's compile provenance — for a cache hit, the provenance
// recorded when the plan was originally compiled. The Server-Timing header
// renders the request phases, so sum(phases) never exceeds its total.
func writeTraced(w http.ResponseWriter, tr *obs.Trace, entry *planEntry, cached bool, start time.Time) {
	w.Header().Set("Server-Timing", obs.ServerTiming(tr.Phases(), time.Since(start)))
	resp := map[string]any{
		"request_id": w.Header().Get("X-Request-Id"),
		"cached":     cached,
		"plan":       json.RawMessage(entry.data),
		"trace":      tr.Tree(),
	}
	if entry.trace != nil {
		resp["compile_trace"] = entry.trace
	}
	writeJSON(w, http.StatusOK, resp)
}

// networkInfo is one /v1/networks entry.
type networkInfo struct {
	Name   string `json:"name"`
	Layers int    `json:"layers"`
	MACs   int64  `json:"macs"`
}

func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	infos := make([]networkInfo, 0, 4)
	for _, n := range model.All() {
		infos = append(infos, networkInfo{Name: n.Name, Layers: len(n.Layers), MACs: n.TotalMACs()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"networks": infos})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        cliutil.Version(),
		"revision":       cliutil.Revision(),
		"go_version":     runtime.Version(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats is the /stats payload: process, server, plan-cache, job and engine
// counters, plus the store and peer tiers when configured.
type Stats struct {
	Process   ProcessStats   `json:"process"`
	Server    ServerStats    `json:"server"`
	PlanCache PlanCacheStats `json:"plan_cache"`
	Jobs      JobStats       `json:"jobs"`
	Engine    EngineStats    `json:"engine"`
	Optimize  OptimizeStats  `json:"optimize"`

	// Store reports the persistent plan store's counters; nil when no store
	// is configured.
	Store *compile.StoreStats `json:"store,omitempty"`

	// Peer reports the fleet tier's counters; nil when no peers are
	// configured.
	Peer *PeerStats `json:"peer,omitempty"`
}

// OptimizeStats are the /v1/optimize surface's counters, across synchronous
// streams and optimize jobs alike.
type OptimizeStats struct {
	// Runs counts admitted optimize searches; PointsEvaluated counts design
	// points scored across them. Admitted, Evicted and Rejected are the
	// frontier bookkeeping sums (Dominated = Rejected + Evicted).
	Runs            uint64 `json:"runs"`
	PointsEvaluated uint64 `json:"points_evaluated"`
	Admitted        uint64 `json:"admitted"`
	Evicted         uint64 `json:"evicted"`
	Rejected        uint64 `json:"rejected"`
}

// PeerStats are the fleet tier's counters and configuration.
type PeerStats struct {
	// Proxied counts misses successfully filled from the owning peer;
	// Failed counts proxy attempts that fell back to local compute (peer
	// down, or an invalid response).
	Proxied uint64 `json:"proxied"`
	Failed  uint64 `json:"failed"`

	// Nodes is the ring size; Self is this node's address in the ring (""
	// when it is not a member).
	Nodes int    `json:"nodes"`
	Self  string `json:"self"`
}

// ProcessStats identify and size the serving process, so fleet dashboards
// can detect version skew and runaway goroutine counts.
type ProcessStats struct {
	Version       string  `json:"version"`
	Revision      string  `json:"revision"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
}

// ServerStats are the HTTP-level counters.
type ServerStats struct {
	// Requests counts every request received; InFlight and Queued are the
	// current gauges; Rejected counts 503s from the full queue.
	Requests uint64 `json:"requests"`
	InFlight int64  `json:"in_flight"`
	Queued   int64  `json:"queued"`
	Rejected uint64 `json:"rejected"`

	// LatencyMs is the request-latency histogram.
	LatencyMs Histogram `json:"latency_ms"`
}

// EngineStats are the engine's counters, under the JSON names engine.Stats
// carries.
type EngineStats = engine.Stats

// Stats returns a snapshot of every counter the service exposes. It is the
// only reader of the server, plan-cache, engine, store, peer, optimize and
// job counters: /stats serves the snapshot as JSON and every /metrics
// counter and gauge is rendered from one (obs.go).
func (s *Server) Stats() Stats {
	var st *compile.StoreStats
	if s.store != nil {
		ss := s.store.StoreStats()
		st = &ss
	}
	var ps *PeerStats
	if s.peers != nil {
		ps = &PeerStats{
			Proxied: s.peerProxied.Load(),
			Failed:  s.peerFailed.Load(),
			Nodes:   len(s.peers.Ring().Nodes()),
			Self:    s.peers.Ring().Self(),
		}
	}
	bounds, counts := s.httpHist.Buckets()
	for i := range bounds {
		bounds[i] *= 1e3 // seconds to milliseconds
	}
	return Stats{
		Store: st,
		Peer:  ps,
		Process: ProcessStats{
			Version:       cliutil.Version(),
			Revision:      cliutil.Revision(),
			GoVersion:     runtime.Version(),
			UptimeSeconds: time.Since(s.started).Seconds(),
			Goroutines:    runtime.NumGoroutine(),
		},
		Server: ServerStats{
			Requests:  s.requests.Load(),
			InFlight:  s.inFlight.Load(),
			Queued:    s.queued.Load(),
			Rejected:  s.rejected.Load(),
			LatencyMs: Histogram{UpperBoundsMs: bounds, Counts: counts},
		},
		PlanCache: s.plans.Stats(),
		Jobs:      s.jobs.stats(),
		Optimize: OptimizeStats{
			Runs:            s.optRuns.Load(),
			PointsEvaluated: s.optPoints.Load(),
			Admitted:        s.optAdmitted.Load(),
			Evicted:         s.optEvicted.Load(),
			Rejected:        s.optRejected.Load(),
		},
		Engine: s.eng.Stats(),
	}
}

// Histogram is the JSON form of the request-latency histogram, read from
// vwsdk_http_request_duration_seconds with its bounds in milliseconds.
// Buckets are disjoint, not cumulative: counts[i] is the number of requests
// with latency in (upper_bounds_ms[i-1], upper_bounds_ms[i]], and the final
// count is the overflow bucket beyond the last bound.
type Histogram struct {
	UpperBoundsMs []float64 `json:"upper_bounds_ms"`
	Counts        []uint64  `json:"counts"`
}

// httpError is an error with an HTTP status, rendered as the structured
// error JSON every non-2xx response carries.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errorf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

var errBusy = &httpError{
	status: http.StatusServiceUnavailable,
	msg:    "server at capacity: all compilation slots and queue positions are taken",
}

// toHTTPError passes httpErrors through and maps context ends by cause: a
// deadline (the -timeout flag) is the server's answer and gets a structured
// 504, a cancellation (the client went away — nobody is reading the
// response) gets 503, and everything else (validation failures surfaced by
// the pipeline) is wrapped as 422.
func toHTTPError(err error) *httpError {
	if herr, ok := err.(*httpError); ok {
		return herr
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return errorf(http.StatusGatewayTimeout, "compilation exceeded the request deadline: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		return errorf(http.StatusServiceUnavailable, "compilation cancelled: %v", err)
	}
	return errorf(http.StatusUnprocessableEntity, "%v", err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, herr *httpError) {
	e := map[string]any{"status": herr.status, "message": herr.msg}
	// ServeHTTP stamped the response's X-Request-Id before dispatch; echoing
	// it in the body lets an error report be joined to the access log.
	if id := w.Header().Get("X-Request-Id"); id != "" {
		e["request_id"] = id
	}
	writeJSON(w, herr.status, map[string]any{"error": e})
}
