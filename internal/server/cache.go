package server

import (
	"repro/internal/compile"
	"repro/internal/memo"
	"repro/internal/obs"
)

// planEntry is one cached compilation: the plan's canonical serialized
// bytes (what /v1/compile writes), its totals (what a sweep summary
// reports) and its compile provenance — the finished trace recorded when
// the plan was actually compiled, and its phase durations. Compiled, store
// and peer fills alike keep the bytes and the totals, not the decoded plan.
// Entries are shared between requests and must be treated as immutable;
// every span of prov has ended before the entry is stored, so concurrent
// ?trace=1 hits may render it at once, each reading the same bytes. A cache
// hit serves the original compilation's provenance, which is exactly the
// point — "where did this plan come from" has one answer no matter which
// request asks.
type planEntry struct {
	data   []byte
	source string      // which tier filled the entry: "" (compiled), "store" or "peer"
	prov   *obs.Trace  // nil for store and peer fills
	phases []obs.Phase // prov's phases, for the Server-Timing header
	totals compile.Totals
}

// Fill sources for planEntry.source; a locally compiled entry keeps the
// zero value. The strings double as X-Cache header values.
const (
	sourceStore = "store"
	sourcePeer  = "peer"
)

// PlanCacheStats are the plan cache's cumulative counters: Hits counts
// requests served without compiling (LRU hits plus successful coalesced
// joins), Misses compilations actually run, Dedupes requests that joined an
// identical in-flight compilation, Evictions plans dropped to respect the
// LRU capacity, and Entries the plans currently cached.
type PlanCacheStats = memo.Stats
