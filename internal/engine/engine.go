// Package engine is the concurrent, memoizing core.Searcher the compile
// pipeline runs on: it bounds concurrently running searches with a worker
// pool and dedupes repeated (layer shape, array, search) combinations
// through a memo.Cache — an LRU of results plus singleflight coalescing of
// identical in-flight searches — because ResNet and VGG repeat layer shapes
// heavily, and experiment sweeps re-cost the same pairs from scratch
// otherwise. The engine searches one layer per call; its callers fan out:
// compile.Compile over a network's layers, the server over sweep cells.
//
// Engine.Search is the one entry point: it runs core.Search — the one
// dispatch from a core.Method to its algorithm — keyed by the layer shape,
// the array and the method's canonical form. The core searches visit
// candidate cost classes on the fly instead of materializing and chunking
// the O(PaddedW × PaddedH) candidate slice the engine used to fan out; the
// VW-SDK search evaluates the classes in closed form and pays at most one
// cost-model call, so the parallelism is spent where it pays — across the
// layers and cells the callers fan out — and per-search allocations shrink
// to the result itself. WithExhaustiveSearch switches an engine to
// core.SearchExhaustive, the brute-force sweeps, for differential testing
// and benchmarking.
//
// Search is context-first: cancellation propagates into the worker pool (a
// search waiting for a slot gives the slot up), into in-flight dedupe waits,
// and into the search loops themselves via the core package's per-row
// checkpoints — so a cancelled caller actually stops burning CPU. Cancelled
// searches are never cached.
//
// Results are bit-identical to the serial algorithms in internal/core:
// every cached result is replayed with only the caller's layer name
// re-stamped, and differential tests assert equality on every layer of
// every predefined network and on whole compiled plans.
//
// An Engine is safe for concurrent use; all methods may be called from any
// goroutine.
package engine

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
)

// Engine schedules mapping searches over a worker pool and memoizes their
// results. The zero value is not usable; call New.
type Engine struct {
	workers    int
	cacheCap   int
	exhaustive bool
	sem        chan struct{}                      // bounds concurrently running searches
	cache      *memo.Cache[cacheKey, core.Result] // name-cleared results

	searches atomic.Uint64
	costed   atomic.Uint64
	pruned   atomic.Uint64
	running  atomic.Int64 // searches currently holding a worker-pool slot
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

// WithExhaustiveSearch routes the engine's searches through
// core.SearchExhaustive, the brute-force sweeps for the VW-SDK family,
// instead of core.Search's class walks — the closed-form VW-SDK search and
// the ablated variants' own walks.
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
	e.cache = memo.New[cacheKey, core.Result](e.cacheCap)
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
	c := e.cache.Stats()
	return Stats{
		Searches:         e.searches.Load(),
		CacheHits:        c.Hits,
		CacheMisses:      c.Misses,
		FlightDedupes:    c.Dedupes,
		Evictions:        c.Evictions,
		CachedResults:    c.Entries,
		CandidatesCosted: e.costed.Load(),
		CandidatesPruned: e.pruned.Load(),
		InFlightSearches: e.running.Load(),
	}
}

// Search runs the per-layer search m names under the cache and worker pool;
// bit-identical to core.Search, or to core.SearchExhaustive on a
// WithExhaustiveSearch engine. Methods with one canonical form
// (core.Method.Canonical) share one cache entry.
func (e *Engine) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (core.Result, error) {
	return e.memoized(ctx, newCacheKey(l, a, m), l.Name, func(ctx context.Context) (core.Result, error) {
		return e.withSlot(ctx, func() (core.Result, error) {
			if e.exhaustive {
				return core.SearchExhaustive(ctx, l, a, m)
			}
			return core.Search(ctx, l, a, m)
		})
	})
}

// memoized serves one search through the memo cache. search runs the
// underlying algorithm with the caller's original layer, so an error is
// exactly the serial one; results are stored name-cleared and re-stamped
// with the caller's name, which reproduces the serial result because a
// search stamps the layer's name on both of its mappings. Everything the
// engine adds to a computation — candidate counting and the span's path
// attributes — runs inside the compute closure, so it happens exactly once
// per search actually run, failed-leader retries included.
func (e *Engine) memoized(ctx context.Context, k cacheKey, name string, search func(context.Context) (core.Result, error)) (core.Result, error) {
	ctx, sp := obs.Start(ctx, "engine.search")
	defer sp.End()
	sp.SetStr("layer", name)
	e.searches.Add(1)
	res, outcome, err := e.cache.Do(ctx, k, func() (core.Result, error) {
		r, err := search(ctx)
		if err != nil {
			return r, err
		}
		e.countCandidates(k, r)
		sp.SetStr("path", e.searchPath(k)).SetInt("candidates", int64(r.Evaluated))
		return anonymized(r), nil
	})
	sp.SetStr("outcome", spanOutcome[outcome])
	if err != nil {
		return res, err
	}
	return renamed(res, name), nil
}

// spanOutcome names each memo outcome on the engine.search span.
var spanOutcome = [...]string{memo.Computed: "miss", memo.Hit: "hit", memo.Joined: "coalesced"}

// searchPath names the search implementation a computed result came from, for
// span attribution: exhaustive on a WithExhaustiveSearch engine, closed-form
// for the VW-SDK search (what core.SearchStats reports), pruned for the
// ablated variants' walks, baseline for im2col, SMD and SDK.
func (e *Engine) searchPath(k cacheKey) string {
	switch {
	case e.exhaustive:
		return "exhaustive"
	case k.method == core.MethodVWSDK:
		return core.PathClosedForm
	case k.method.Scheme == core.SchemeVWSDK:
		return core.PathPruned
	default:
		return "baseline"
	}
}

// countCandidates maintains the CandidatesCosted/CandidatesPruned counters
// for one computed (never cached) search result; only the VW-SDK family has
// an exhaustive sweep to prune against.
func (e *Engine) countCandidates(k cacheKey, res core.Result) {
	e.costed.Add(uint64(res.Evaluated))
	if e.exhaustive || k.method.Scheme != core.SchemeVWSDK {
		return
	}
	if ex := core.ExhaustiveCandidates(k.layer, k.method.Variant); ex > int64(res.Evaluated) {
		e.pruned.Add(uint64(ex - int64(res.Evaluated)))
	}
}

// withSlot runs f while holding one worker-pool slot, so every leaf search
// is bounded by WithWorkers; a caller cancelled while waiting for a slot
// gives up instead of queueing dead work. Search, its only caller, holds no
// slot while it waits for one: holding one while acquiring another would
// deadlock a single-worker pool.
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
