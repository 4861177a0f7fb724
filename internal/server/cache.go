package server

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/obs"
)

// planEntry is one cached compilation: the plan (for sweep summaries), its
// canonical serialized bytes (what /v1/compile writes) and its compile
// provenance — the span tree and phase durations recorded when the plan was
// actually compiled. Entries are shared between requests and must be treated
// as immutable; a cache hit serves the original compilation's provenance,
// which is exactly the point — "where did this plan come from" has one
// answer no matter which request asks.
type planEntry struct {
	key    string
	plan   *compile.NetworkPlan
	data   []byte
	trace  []*obs.Node
	phases []obs.Phase
	source string // which tier filled the entry: "" (compiled), "store" or "peer"
}

// Fill sources for planEntry.source; a locally compiled entry keeps the
// zero value. The strings double as X-Cache header values.
const (
	sourceStore = "store"
	sourcePeer  = "peer"
)

// planFlight is one in-flight compilation; joiners block on done and read
// entry/err.
type planFlight struct {
	done  chan struct{}
	entry *planEntry
	err   error
}

// planCache is the whole-plan LRU with singleflight coalescing, keyed on
// compile.Key. A non-positive capacity disables the LRU but keeps the
// coalescing: identical concurrent requests still run one compilation.
// Errors are never cached — a failed compilation is reported to the leader
// and every joiner, then forgotten.
type planCache struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recently used; values are *planEntry
	items  map[string]*list.Element
	flight map[string]*planFlight

	hits      atomic.Uint64
	misses    atomic.Uint64
	dedupes   atomic.Uint64
	evictions atomic.Uint64
}

func newPlanCache(capacity int) *planCache {
	c := &planCache{cap: capacity, flight: make(map[string]*planFlight)}
	if capacity > 0 {
		c.order = list.New()
		c.items = make(map[string]*list.Element, capacity)
	}
	return c
}

// do serves one compilation through the cache: an LRU hit returns
// immediately, a key already in flight joins it, and otherwise compute runs
// exactly once and its entry, keyed here, is stored. The bool reports
// whether the entry was served without running compute (LRU hit or
// coalesced join). A joiner whose own ctx ends while it waits on the leader
// abandons the join with ctx.Err(); the leader keeps running for everyone
// else.
//
// A failed flight is never shared: its error may be private to the leader
// (most likely: the leader's client hung up or timed out mid-compile), so a
// joiner that finds the flight failed runs its own compute and reports its
// own outcome, mirroring engine.memoized. Reachable compile errors are
// caller-specific or caught before the cache, so the duplicated work is
// negligible.
func (c *planCache) do(ctx context.Context, key string, compute func() (*planEntry, error)) (*planEntry, bool, error) {
	c.mu.Lock()
	if e := c.lockedGet(key); e != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		return e, true, nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		c.dedupes.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err == nil {
			c.hits.Add(1)
			return f.entry, true, nil
		}
		c.misses.Add(1)
		e, err := compute()
		if err != nil {
			return nil, false, err
		}
		e.key = key
		c.mu.Lock()
		c.lockedPut(e)
		c.mu.Unlock()
		return e, false, nil
	}
	f := &planFlight{done: make(chan struct{})}
	c.flight[key] = f
	c.mu.Unlock()

	c.misses.Add(1)
	e, err := compute()
	if err == nil {
		e.key = key
		f.entry = e
	}
	f.err = err
	c.mu.Lock()
	if err == nil {
		c.lockedPut(f.entry)
	}
	delete(c.flight, key)
	c.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, false, err
	}
	return f.entry, false, nil
}

// hit returns the cached entry for a key still held as bytes, or nil on a
// miss (which is not counted — the caller falls through to do, which runs
// and counts the full path). The map lookup converts the key in place
// (string(key) in index position does not allocate), so a warm /v1/compile
// hit never materializes the key string: this is the allocation-free fast
// path the compile handler tries before do.
func (c *planCache) hit(key []byte) *planEntry {
	if c.items == nil {
		return nil
	}
	c.mu.Lock()
	el, ok := c.items[string(key)]
	var e *planEntry
	if ok {
		c.order.MoveToFront(el)
		e = el.Value.(*planEntry)
	}
	c.mu.Unlock()
	if e != nil {
		c.hits.Add(1)
	}
	return e
}

// lockedGet returns the cached entry and marks it most recently used; the
// caller holds mu.
func (c *planCache) lockedGet(key string) *planEntry {
	if c.items == nil {
		return nil
	}
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*planEntry)
}

// lockedPut inserts an entry, evicting from the LRU tail; the caller holds
// mu.
func (c *planCache) lockedPut(e *planEntry) {
	if c.items == nil {
		return
	}
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.items[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*planEntry).key)
		c.evictions.Add(1)
	}
}

// PlanCacheStats are the plan cache's cumulative counters.
type PlanCacheStats struct {
	// Hits counts requests served without compiling (LRU hits plus
	// successful coalesced joins); Misses counts compilations actually run.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`

	// Dedupes counts requests that joined an identical in-flight
	// compilation (counted at join time; successful joins are also Hits).
	Dedupes uint64 `json:"dedupes"`

	// Evictions counts plans dropped to respect the LRU capacity.
	Evictions uint64 `json:"evictions"`

	// Entries is the current number of cached plans.
	Entries int `json:"entries"`
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	entries := 0
	if c.order != nil {
		entries = c.order.Len()
	}
	c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Dedupes:   c.dedupes.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}
