// Package engine is the concurrent, memoizing front end to the core mapping
// searches: it fans per-layer searches and batch-sweep cells across a
// bounded worker pool and dedupes repeated (layer shape, array, search)
// combinations through an LRU result cache — ResNet and VGG repeat layer
// shapes heavily, and experiment sweeps re-cost the same pairs from scratch
// otherwise.
//
// Each individual search runs the core package's class walk
// (core.SearchVWSDK and friends), which visits candidate cost classes on the
// fly instead of materializing and chunking the O(PaddedW × PaddedH)
// candidate slice the engine used to fan out; the VW-SDK search evaluates
// the classes in closed form and pays at most one cost-model call, so the
// worker pool's parallelism is spent where it pays — across layers and
// sweep cells — and per-search allocations shrink to the result itself.
// WithExhaustiveSearch switches an engine to the brute-force core sweeps for
// differential testing and benchmarking.
//
// Every method is context-first: cancellation propagates into the worker
// pool (a search waiting for a slot gives the slot up), into in-flight
// dedupe waits, and into the search loops themselves via the core package's
// per-row checkpoints — so a cancelled caller actually stops burning CPU.
// Cancelled searches are never cached.
//
// Results are bit-identical to the serial algorithms in internal/core:
// every cached result is replayed with only the caller's layer name
// re-stamped, and differential tests assert equality on every predefined
// network.
//
// An Engine is safe for concurrent use; all methods may be called from any
// goroutine.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// Engine schedules mapping searches over a worker pool and memoizes their
// results. The zero value is not usable; call New.
type Engine struct {
	workers    int
	cacheCap   int
	exhaustive bool
	sem        chan struct{} // bounds concurrently running searches
	cache      *resultCache

	mu     sync.Mutex
	flight map[cacheKey]*call // in-flight searches, for duplicate suppression

	// sweepCellHook, when non-nil, observes every sweep cell index just
	// before its dispatch check. Tests use it to cancel a context at a
	// deterministic point mid-sweep; it is never set in production.
	sweepCellHook func(i int)

	searches atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	dedupes  atomic.Uint64
	costed   atomic.Uint64
	pruned   atomic.Uint64
	running  atomic.Int64 // searches currently holding a worker-pool slot
}

// call is one in-flight search; waiters block on done and read res/err.
type call struct {
	done chan struct{}
	res  core.Result
	err  error
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the number of concurrently running searches;
// n < 1 restores the default (GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCacheSize sets the LRU result-cache capacity in entries; 0 disables
// caching, n < 0 restores the default (4096).
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheCap = n }
}

// WithExhaustiveSearch routes the engine's VW-SDK and variant searches
// through the brute-force core sweeps (core.SearchVWSDKExhaustive /
// core.SearchVariantExhaustive) instead of the breakpoint-pruned default.
// Results are bit-identical either way; the option exists so differential
// tests and cmd/vwsdkbench can compare the two paths under the same caching
// and concurrency.
func WithExhaustiveSearch() Option {
	return func(e *Engine) { e.exhaustive = true }
}

// defaultCacheSize holds every distinct (shape, array, search) of a large
// multi-network, multi-array sweep with room to spare; one entry is a few
// hundred bytes.
const defaultCacheSize = 4096

// New returns an Engine with the given options applied.
func New(opts ...Option) *Engine {
	e := &Engine{workers: 0, cacheCap: -1}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.cacheCap < 0 {
		e.cacheCap = defaultCacheSize
	}
	e.sem = make(chan struct{}, e.workers)
	e.cache = newResultCache(e.cacheCap)
	e.flight = make(map[cacheKey]*call)
	return e
}

// Workers reports the configured worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Stats are cumulative Engine counters. The JSON names are the "engine"
// block of vwsdkd's /stats, a wire contract.
type Stats struct {
	// Searches is the number of top-level search calls served.
	Searches uint64 `json:"searches"`

	// CacheHits counts searches answered from the LRU cache or joined onto
	// an identical in-flight search.
	CacheHits uint64 `json:"cache_hits"`

	// CacheMisses counts searches that ran the underlying algorithm
	// (including searches that were then cancelled mid-run).
	CacheMisses uint64 `json:"cache_misses"`

	// FlightDedupes counts searches that joined an identical in-flight
	// search instead of starting their own computation (counted at join
	// time; successful joins are also CacheHits).
	FlightDedupes uint64 `json:"flight_dedupes"`

	// Evictions counts results dropped from the LRU cache to respect its
	// capacity.
	Evictions uint64 `json:"evictions"`

	// CachedResults is the current number of cached results.
	CachedResults int `json:"cached_results"`

	// CandidatesCosted sums Result.Evaluated over every search the engine
	// actually computed (cache hits and in-flight joins cost nothing): the
	// number of candidates evaluated — per cost class for the VW-SDK
	// searches (whether the class was costed by the model or resolved in
	// closed form; see core.SearchStats for that split), per window for the
	// baselines.
	CandidatesCosted uint64 `json:"candidates_costed"`

	// CandidatesPruned counts the candidate windows the exhaustive sweeps
	// would have costed for those same searches but the default class
	// walks skipped (core.ExhaustiveCandidates − Evaluated). Always 0
	// on a WithExhaustiveSearch engine and for the SDK/SMD baselines, which
	// have no pruned/exhaustive split.
	CandidatesPruned uint64 `json:"candidates_pruned"`

	// InFlightSearches is the number of searches currently holding a
	// worker-pool slot — a gauge, not cumulative.
	InFlightSearches int64 `json:"in_flight_searches"`
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Searches:         e.searches.Load(),
		CacheHits:        e.hits.Load(),
		CacheMisses:      e.misses.Load(),
		FlightDedupes:    e.dedupes.Load(),
		Evictions:        e.cache.evicted(),
		CachedResults:    e.cache.len(),
		CandidatesCosted: e.costed.Load(),
		CandidatesPruned: e.pruned.Load(),
		InFlightSearches: e.running.Load(),
	}
}

// SearchVWSDK runs Algorithm 1 (the optimal parallel-window search) under
// the cache and worker pool; bit-identical to core.SearchVWSDK.
func (e *Engine) SearchVWSDK(ctx context.Context, l core.Layer, a core.Array) (core.Result, error) {
	return e.SearchVariant(ctx, l, a, core.VariantFull)
}

// SearchSDK runs the square-window SDK baseline search; bit-identical to
// core.SearchSDK.
func (e *Engine) SearchSDK(ctx context.Context, l core.Layer, a core.Array) (core.Result, error) {
	return e.memoized(ctx, newCacheKey(l, a, kindSDK, 0), l.Name, func(ctx context.Context) (core.Result, error) {
		return e.withSlot(ctx, func() (core.Result, error) { return core.SearchSDKContext(ctx, l, a) })
	})
}

// SearchSMD runs the sub-matrix-duplication baseline search (a single costed
// mapping) under the cache; bit-identical to core.SearchSMD.
func (e *Engine) SearchSMD(ctx context.Context, l core.Layer, a core.Array) (core.Result, error) {
	return e.memoized(ctx, newCacheKey(l, a, kindSMD, 0), l.Name, func(ctx context.Context) (core.Result, error) {
		return e.withSlot(ctx, func() (core.Result, error) { return core.SearchSMDContext(ctx, l, a) })
	})
}

// SearchVariant runs an ablated VW-SDK search; bit-identical to
// core.SearchVariant. VariantFull shares cache entries with SearchVWSDK.
func (e *Engine) SearchVariant(ctx context.Context, l core.Layer, a core.Array, v core.Variant) (core.Result, error) {
	k := newCacheKey(l, a, kindVariant, v)
	if v == core.VariantFull {
		k = newCacheKey(l, a, kindVWSDK, 0)
	}
	return e.memoized(ctx, k, l.Name, func(ctx context.Context) (core.Result, error) {
		return e.withSlot(ctx, func() (core.Result, error) {
			if e.exhaustive {
				return core.Exhaustive{}.SearchVariant(ctx, l, a, v)
			}
			return core.SearchVariantContext(ctx, l, a, v)
		})
	})
}

// SearchNetwork optimizes every layer through the engine concurrently and
// aggregates the totals, mirroring core.SearchNetwork (results in layer
// order, first error wins) with cached and pooled layer searches.
func (e *Engine) SearchNetwork(ctx context.Context, layers []core.Layer, a core.Array) (core.NetworkResult, error) {
	return e.SearchNetworkVariant(ctx, layers, a, core.VariantFull)
}

// SearchNetworkVariant is SearchNetwork under an ablation variant. The
// per-layer goroutines it fans out are cheap orchestrators — the actual
// costing inside each search is bounded by the worker pool.
func (e *Engine) SearchNetworkVariant(ctx context.Context, layers []core.Layer, a core.Array, v core.Variant) (core.NetworkResult, error) {
	search := func(ctx context.Context, l core.Layer, a core.Array) (core.Result, error) {
		return e.SearchVariant(ctx, l, a, v)
	}
	if e.workers == 1 {
		// Everything serializes through the one pool slot anyway; skipping
		// the per-layer goroutines avoids measurable scheduler churn.
		return core.SearchNetworkSeq(ctx, layers, a, search)
	}
	return core.SearchNetworkWith(ctx, layers, a, search)
}

// memoized serves one search through the cache and in-flight duplicate
// suppression. compute runs the underlying algorithm with the caller's
// original layer (so computed results and errors are exactly the serial
// ones); the cached copy is stored name-cleared and re-stamped per caller.
// A waiter abandons an in-flight join when its own context is cancelled, and
// a cancelled computation is reported to the leader without being cached.
func (e *Engine) memoized(ctx context.Context, k cacheKey, name string, compute func(context.Context) (core.Result, error)) (core.Result, error) {
	ctx, sp := obs.Start(ctx, "engine.search")
	defer sp.End()
	sp.SetStr("layer", name)
	e.searches.Add(1)
	if res, ok := e.cache.get(k); ok {
		e.hits.Add(1)
		sp.SetStr("outcome", "hit")
		return renamed(res, name), nil
	}
	e.mu.Lock()
	if c, ok := e.flight[k]; ok {
		e.mu.Unlock()
		e.dedupes.Add(1)
		sp.SetStr("outcome", "coalesced")
		select {
		case <-c.done:
		case <-ctx.Done():
			// The waiter's own caller is gone; the leader keeps running for
			// everyone else.
			return core.Result{}, ctx.Err()
		}
		if c.err != nil {
			// The leader's error message names the leader's layer (or the
			// leader was cancelled, which must not fail this caller);
			// recompute so this caller gets exactly the serial outcome for
			// its own inputs. The duplicated work is negligible — search
			// errors fail fast in input validation.
			e.misses.Add(1)
			res, err := compute(ctx)
			if err == nil {
				sp.SetStr("path", e.searchPath(k)).SetInt("candidates", int64(res.Evaluated))
			}
			return res, err
		}
		e.hits.Add(1)
		return renamed(c.res, name), nil
	}
	// Re-check the cache under the lock: a search that finished between the
	// lock-free lookup above and Lock() has already left the flight map, and
	// recomputing it here would duplicate the full sweep.
	if res, ok := e.cache.get(k); ok {
		e.mu.Unlock()
		e.hits.Add(1)
		sp.SetStr("outcome", "hit")
		return renamed(res, name), nil
	}
	c := &call{done: make(chan struct{})}
	e.flight[k] = c
	e.mu.Unlock()

	e.misses.Add(1)
	sp.SetStr("outcome", "miss")
	res, err := compute(ctx)
	if err == nil {
		e.countCandidates(k, res)
		sp.SetStr("path", e.searchPath(k)).SetInt("candidates", int64(res.Evaluated))
		c.res = anonymized(res)
		e.cache.put(k, c.res)
	}
	c.err = err
	e.mu.Lock()
	delete(e.flight, k)
	e.mu.Unlock()
	close(c.done)
	return res, err
}

// searchPath names the search implementation a computed result came from, for
// span attribution: closed-form for the VW-SDK search (what core.SearchStats
// reports), pruned for the ablated variants, exhaustive on a
// WithExhaustiveSearch engine, baseline for SDK/SMD.
func (e *Engine) searchPath(k cacheKey) string {
	if e.exhaustive {
		return "exhaustive"
	}
	switch k.kind {
	case kindVWSDK:
		return core.PathClosedForm
	case kindVariant:
		// Ablated variants run their own pruned walks (VariantFull keys are
		// kindVWSDK).
		return core.PathPruned
	default:
		return "baseline"
	}
}

// countCandidates maintains the CandidatesCosted/CandidatesPruned counters
// for one computed (never cached) search result.
func (e *Engine) countCandidates(k cacheKey, res core.Result) {
	e.costed.Add(uint64(res.Evaluated))
	if e.exhaustive {
		return
	}
	switch k.kind {
	case kindVWSDK, kindVariant:
		v := core.VariantFull
		if k.kind == kindVariant {
			v = k.variant
		}
		if ex := core.ExhaustiveCandidates(k.layer, v); ex > int64(res.Evaluated) {
			e.pruned.Add(uint64(ex - int64(res.Evaluated)))
		}
	}
}

// withSlot runs f while holding one worker-pool slot, so every leaf search
// is bounded by WithWorkers; a caller cancelled while waiting for a slot
// gives up instead of queueing dead work. Callers must not already hold a
// slot (holding one while acquiring another would deadlock a single-worker
// pool); the orchestration layers (memoized, SearchNetworkVariant, Sweep)
// never do.
func (e *Engine) withSlot(ctx context.Context, f func() (core.Result, error)) (core.Result, error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
	e.running.Add(1)
	defer func() {
		e.running.Add(-1)
		<-e.sem
	}()
	return f()
}

// anonymized clears the layer name from a result so shape-equal layers share
// one cache entry.
func anonymized(res core.Result) core.Result { return renamed(res, "") }

// renamed stamps name onto the result's mappings.
func renamed(res core.Result, name string) core.Result {
	res.Best.Layer.Name = name
	res.Im2col.Layer.Name = name
	return res
}
