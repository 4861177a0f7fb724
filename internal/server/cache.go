package server

import (
	"repro/internal/compile"
	"repro/internal/memo"
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

// PlanCacheStats are the plan cache's cumulative counters: Hits counts
// requests served without compiling (LRU hits plus successful coalesced
// joins), Misses compilations actually run, Dedupes requests that joined an
// identical in-flight compilation, Evictions plans dropped to respect the
// LRU capacity, and Entries the plans currently cached.
type PlanCacheStats = memo.Stats
