// Package engine is the memoizing core.Searcher the compile pipeline runs
// on: core.Search behind a memo.Cache — an LRU of results plus singleflight
// coalescing of identical in-flight searches — because ResNet and VGG
// repeat layer shapes heavily, and experiment sweeps re-cost the same
// (layer shape, array, method) combinations from scratch otherwise.
//
// Engine.Search is the one entry point: it runs core.Search — the one
// dispatch from a core.Method to its algorithm — keyed by the layer shape,
// the array and the method's canonical form. SDK, the VW-SDK search and
// its ablations evaluate their cost classes in closed form and pay at most
// one cost-model call, so one search costs tens of microseconds and
// allocates only its result.
// The engine searches one layer per call and bounds nothing itself: its
// callers fan out and bound the work, compile.Compile over a network's
// layers and the server through its compile and stream slots. Hit serves a
// search the cache holds in place, into the caller's result, and reports a
// search it does not hold without counting or tracing it: compile.Compile
// finishes every layer Hit serves on its caller and fans out, at most
// GOMAXPROCS wide, only from the first layer it must search, so a compile
// whose every search is a hit starts no goroutine and looks each search up
// once. The brute-force oracle is core.Exhaustive, a Searcher of its own.
//
// Search is context-first: cancellation propagates into in-flight dedupe
// waits and into the search loops themselves via the core package's
// per-row checkpoints — so a cancelled caller actually stops burning CPU.
// Cancelled searches are never cached.
//
// Results are bit-identical to core.Search: every cached result is replayed
// with only the caller's layer name re-stamped, and differential tests
// assert equality on every layer of every predefined network and on whole
// compiled plans. A hit reads the memo's stored result in place and copies
// it once: into the result Search returns, or through Hit into the
// caller's own.
//
// An Engine is safe for concurrent use; all methods may be called from any
// goroutine.
package engine

import (
	"context"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/obs"
)

// Engine memoizes mapping searches. The zero value is not usable; call New.
type Engine struct {
	cacheCap int
	cache    *memo.Cache[cacheKey, core.Result] // name-cleared results

	searches atomic.Uint64
	costed   atomic.Uint64
	pruned   atomic.Uint64
	running  atomic.Int64 // searches running inside the memo's compute closure
}

// Option configures an Engine.
type Option func(*Engine)

// WithCacheSize sets the LRU result-cache capacity in entries; 0 disables
// caching, n < 0 restores the default (4096).
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheCap = n }
}

// defaultCacheSize holds every distinct (shape, array, search) of a large
// multi-network, multi-array sweep with room to spare; one entry is a few
// hundred bytes.
const defaultCacheSize = 4096

// New returns an Engine with the given options applied.
func New(opts ...Option) *Engine {
	e := &Engine{cacheCap: -1}
	for _, o := range opts {
		o(e)
	}
	if e.cacheCap < 0 {
		e.cacheCap = defaultCacheSize
	}
	e.cache = memo.New[cacheKey, core.Result](e.cacheCap)
	return e
}

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
	// would have costed for those same searches but the class walk skipped
	// (core.ExhaustiveCandidates − Evaluated), over the VW-SDK search and
	// its ablations. Always 0 for the im2col, SMD and SDK baselines: SDK
	// runs the class walk too, but it costs every step of its diagonal,
	// so it prunes nothing.
	CandidatesPruned uint64 `json:"candidates_pruned"`

	// InFlightSearches is the number of searches currently running the
	// underlying algorithm — a gauge, not cumulative. Cache hits and
	// in-flight joins never move it.
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

// Hit serves the search of l on a under m from the cache if the cache holds
// it: it builds the search's cache key once, copies the stored result once,
// into dst, stamps l's name on it as Search does, and counts and traces the
// search exactly as a Search hit: one served search and one cache hit, and
// an engine.search span with outcome hit under ctx. It reports whether it
// did. When the cache holds no result for the search — including a search
// still in flight and one too wide for the cache key — Hit leaves dst
// alone, counts nothing, records no span and reports false, and the caller
// goes on to Search, which computes the search or joins its flight.
func (e *Engine) Hit(ctx context.Context, l core.Layer, a core.Array, m core.Method, dst *core.Result) bool {
	k, ok := newCacheKey(l, a, m)
	if !ok {
		return false
	}
	p := e.cache.Get(k)
	if p == nil {
		return false
	}
	e.searches.Add(1)
	*dst = *p
	dst.Best.Layer.Name = l.Name
	dst.Im2col.Layer.Name = l.Name
	obs.StartLeaf(ctx, "engine.search").SetStr("layer", l.Name).SetStr("outcome", spanOutcome[memo.Hit]).End()
	return true
}

// Search runs core.Search for m under the cache; bit-identical to
// core.Search. Methods with one canonical form (core.Method.Canonical)
// share one cache entry. A hit copies the stored result once, into the
// result Search returns, and stamps the caller's layer name on it there.
// A search with a value too wide for the cache key runs core.Search
// directly: it is not cached, counted or traced.
func (e *Engine) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (res core.Result, err error) {
	k, ok := newCacheKey(l, a, m)
	if !ok {
		return core.Search(ctx, l, a, m)
	}
	p, err := e.memoized(ctx, k, l.Name, func(ctx context.Context) (core.Result, error) {
		return core.Search(ctx, l, a, m)
	})
	if p != nil {
		res = *p
	}
	if err == nil {
		res.Best.Layer.Name = l.Name
		res.Im2col.Layer.Name = l.Name
	}
	return res, err
}

// memoized serves one search through the memo cache and returns the memo's
// shared copy of the result, which the caller must not modify. search runs
// the underlying algorithm with the caller's original layer, so an error is
// exactly the serial one; results are stored name-cleared, and Search
// re-stamps the caller's name, which reproduces the serial result because a
// search stamps the layer's name on both of its mappings. Everything the
// engine adds to a computation — the in-flight gauge, candidate counting
// and the span's path attributes — runs inside the compute closure, so it
// happens exactly once per search actually run, failed-leader retries
// included. The engine.search span is a leaf: core.Search and the memo
// start no spans, so it derives no context.
func (e *Engine) memoized(ctx context.Context, k cacheKey, name string, search func(context.Context) (core.Result, error)) (*core.Result, error) {
	sp := obs.StartLeaf(ctx, "engine.search")
	defer sp.End()
	sp.SetStr("layer", name)
	e.searches.Add(1)
	res, outcome, err := e.cache.Do(ctx, k, func() (core.Result, error) {
		e.running.Add(1)
		defer e.running.Add(-1)
		r, err := search(ctx)
		if err != nil {
			return r, err
		}
		e.countCandidates(k, r)
		sp.SetStr("path", searchPath(k.method())).SetInt("candidates", int64(r.Evaluated))
		r.Best.Layer.Name = ""
		r.Im2col.Layer.Name = ""
		return r, nil
	})
	sp.SetStr("outcome", spanOutcome[outcome])
	return res, err
}

// spanOutcome names each memo outcome on the engine.search span.
var spanOutcome = [...]string{memo.Computed: "miss", memo.Hit: "hit", memo.Joined: "coalesced"}

// searchPath names the search implementation a computed result came from,
// for span attribution: closed-form for the class walk that SDK, the VW-SDK
// search and its ablations run (what core.SearchStats reports), baseline
// for im2col and SMD.
func searchPath(m core.Method) string {
	if m.Scheme == core.SchemeSDK || m.Scheme == core.SchemeVWSDK {
		return core.PathClosedForm
	}
	return "baseline"
}

// countCandidates maintains the CandidatesCosted/CandidatesPruned counters
// for one computed (never cached) search result; only the VW-SDK family has
// an exhaustive sweep to prune against.
func (e *Engine) countCandidates(k cacheKey, res core.Result) {
	e.costed.Add(uint64(res.Evaluated))
	m := k.method()
	if m.Scheme != core.SchemeVWSDK {
		return
	}
	if ex := core.ExhaustiveCandidates(k.layer(), m.Variant); ex > int64(res.Evaluated) {
		e.pruned.Add(uint64(ex - int64(res.Evaluated)))
	}
}
