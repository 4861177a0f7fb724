// Package memo is the one memoizing cache of the compile stack: an LRU of
// computed values with singleflight coalescing of identical in-flight
// computations. internal/engine memoizes layer searches with it, keyed on
// the normalized (layer shape, array, search) triple, and internal/server
// memoizes whole serialized plans, keyed on compile.Key.
//
// The rules are the same for every cache:
//
//   - Do answers from the LRU when it can (a hit), joins an identical
//     computation already in flight when there is one (a join), and
//     otherwise runs compute exactly once for every caller that arrives
//     while it runs.
//   - A joiner whose own ctx ends while it waits abandons the join with
//     ctx.Err(); the computation keeps running for everyone else.
//   - A failed computation is never shared: its error may be private to
//     the caller that ran it (its client hung up, or the message names
//     that caller's input), so each joiner of a failed flight runs its own
//     compute and reports its own outcome. A successful retry is stored and
//     counted as a miss like any other computation.
//   - Errors are never stored.
//   - A capacity ≤ 0 stores nothing but still coalesces.
//
// One mutex guards the LRU and the flight map together, so Do checks both
// in one critical section and never repeats a lookup under a second lock.
package memo

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Outcome reports how Do produced its value.
type Outcome uint8

const (
	// Computed: compute ran for this caller (a miss).
	Computed Outcome = iota
	// Hit: the value came from the LRU.
	Hit
	// Joined: the caller waited on an identical in-flight computation. A
	// successful join is also a hit; a join abandoned on the caller's ctx
	// returns Joined with ctx.Err().
	Joined
)

// Stats are a cache's cumulative counters. The JSON names are the
// "plan_cache" block of vwsdkd's /stats, a wire contract.
type Stats struct {
	// Hits counts values served without computing: LRU hits plus
	// successful joins. Misses counts computations actually run.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`

	// Dedupes counts calls that joined an identical in-flight computation
	// (counted at join time; successful joins are also Hits).
	Dedupes uint64 `json:"dedupes"`

	// Evictions counts values dropped to respect the LRU capacity.
	Evictions uint64 `json:"evictions"`

	// Entries is the current number of stored values.
	Entries int `json:"entries"`
}

// record is one computation. While it runs, it sits in the flight map with
// a non-nil done; the leader then fills val and err, clears done and, on
// success, makes the record itself the LRU element's value. A published
// record is read-only, since Do hands out pointers to its val: re-storing a
// key swaps the element's value for a new record instead of mutating the
// old one, which a concurrent hit may still be reading.
type record[K comparable, V any] struct {
	key  K
	val  V
	err  error
	done chan struct{} // closed when the computation ends; read under mu
}

// Cache is an LRU plus singleflight over keys K and values V. Build one
// with New; a Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    list.List // front = most recently used; values are *record[K, V]
	items    map[K]*list.Element
	flight   map[K]*record[K, V]

	hits      atomic.Uint64
	misses    atomic.Uint64
	dedupes   atomic.Uint64
	evictions atomic.Uint64
}

// presize is how many values a new cache's LRU map holds before it first
// grows. It spares the first stores the map's growth allocations; past it,
// the map grows with what it stores. A map keeps keys of up to 128 bytes
// in its slots, so room for a full default engine cache (4,096 searches)
// would cost half a megabyte before its first search.
const presize = 1024

// New returns an empty cache holding at most capacity values; a capacity
// ≤ 0 stores nothing but still coalesces identical in-flight computations.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{capacity: capacity, flight: make(map[K]*record[K, V])}
	if capacity > 0 {
		c.items = make(map[K]*list.Element, min(capacity, presize))
	}
	return c
}

// Do returns the value for k: from the LRU, by joining an identical
// in-flight computation, or by running compute. It returns a pointer to the
// cache's own copy of the value, which every caller of k shares: read it or
// copy it, never write through it. A caller that abandons a join gets nil.
// compute runs without the cache's lock held; capture the caller's context
// in it to make it cancellable. On Computed, the value is exactly what
// compute returned.
func (c *Cache[K, V]) Do(ctx context.Context, k K, compute func() (V, error)) (*V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		r := el.Value.(*record[K, V])
		c.mu.Unlock()
		c.hits.Add(1)
		return &r.val, Hit, nil
	}
	if r, ok := c.flight[k]; ok {
		done := r.done
		c.mu.Unlock()
		c.dedupes.Add(1)
		select {
		case <-done:
		case <-ctx.Done():
			return nil, Joined, ctx.Err()
		}
		if r.err == nil {
			c.hits.Add(1)
			return &r.val, Joined, nil
		}
		c.misses.Add(1)
		retry := &record[K, V]{key: k}
		var err error
		if retry.val, err = compute(); err == nil {
			c.mu.Lock()
			c.store(retry)
			c.mu.Unlock()
		}
		return &retry.val, Computed, err
	}
	done := make(chan struct{})
	r := &record[K, V]{key: k, done: done}
	c.flight[k] = r
	c.mu.Unlock()
	c.misses.Add(1)

	v, err := compute()
	c.mu.Lock()
	r.val, r.err, r.done = v, err, nil
	delete(c.flight, k)
	if err == nil {
		c.store(r)
	}
	c.mu.Unlock()
	close(done)
	return &r.val, Computed, err
}

// store makes r the most recently used value for its key, evicting from
// the LRU tail past capacity; the caller holds mu.
func (c *Cache[K, V]) store(r *record[K, V]) {
	if c.items == nil {
		return
	}
	if el, ok := c.items[r.key]; ok {
		el.Value = r
		c.order.MoveToFront(el)
		return
	}
	c.items[r.key] = c.order.PushFront(r)
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*record[K, V]).key)
		c.evictions.Add(1)
	}
}

// Contains reports whether a value for k is stored, without counting a hit
// or a miss and without touching the LRU order, so asking where a value
// would come from changes nothing the cache keeps. A computation still in
// flight is not stored yet. The answer can be stale by the time the caller
// acts on it.
func (c *Cache[K, V]) Contains(k K) bool {
	c.mu.Lock()
	_, ok := c.items[k]
	c.mu.Unlock()
	return ok
}

// Lookup returns the stored value for a string key still held as bytes,
// marking it most recently used. A hit is counted; a miss is not, because
// the caller falls through to Do, which counts the full path. Indexing the
// map with string(key) does not allocate, so a hit never materializes the
// key string: this is the allocation-free warm path of vwsdkd's
// /v1/compile.
func Lookup[V any](c *Cache[string, V], key []byte) (V, bool) {
	c.mu.Lock()
	el, ok := c.items[string(key)]
	if !ok {
		c.mu.Unlock()
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	v := el.Value.(*record[string, V]).val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	n := len(c.items)
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Dedupes:   c.dedupes.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}
