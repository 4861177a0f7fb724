package compile

import "context"

// PlanStore is the contract a persistent plan store offers the serving
// layer. It lives in this package because the two invariants a store build
// on are owned here: Key is the content address (two requests with the same
// key compile to equivalent plans, so an entry can never be stale — only
// corrupt) and Encode is the storable representation. Every load is checked
// with CheckPlan before it is ever served: the bytes must be exactly what
// AppendPlan writes for a plan of the key they are filed under, with totals
// consistent with its layers. The check reads the bytes in one pass and
// builds no plan, so a load costs far less than the compile it saves.
//
// Implementations must be safe for concurrent use: the server calls LoadPlan
// from concurrent cache-miss fills and PutPlan behind every locally computed
// plan.
type PlanStore interface {
	// LoadPlan returns the stored serialized plan for key and its totals,
	// checked with CheckPlan, or ok=false when the key is absent or the
	// entry failed the check (in which case the implementation must
	// quarantine it so a corrupt entry is recomputed, never served, and never
	// retried). An implementation may record spans on ctx's trace.
	LoadPlan(ctx context.Context, key string) (data []byte, totals Totals, ok bool)

	// PutPlan persists the serialized plan for key. Implementations may write
	// asynchronously (write-behind); data is immutable and may be retained.
	PutPlan(key string, data []byte)

	// StoreStats reports the cumulative counters.
	StoreStats() StoreStats
}

// StoreStats are a PlanStore's cumulative counters, surfaced by vwsdkd on
// /stats and /metrics (vwsdk_store_*_total).
type StoreStats struct {
	// Hits counts loads that validated and were served; Misses counts
	// lookups of absent keys.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`

	// Writes counts entries actually written (deduplicated rewrites of an
	// existing entry are not counted).
	Writes uint64 `json:"writes"`

	// Corrupt counts entries that failed the check on load — truncated,
	// syntactically broken, not in the canonical form, totals-inconsistent,
	// or keyed under the wrong content address — and were quarantined.
	Corrupt uint64 `json:"corrupt"`
}
