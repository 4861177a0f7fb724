package compile

// PlanStore is the contract a persistent plan store offers the serving
// layer. It lives in this package because the two invariants a store build
// on are owned here: Key is the content address (two requests with the same
// key compile to equivalent plans, so an entry can never be stale — only
// corrupt) and Encode/FromJSON is the storable representation (FromJSON
// re-validates totals, so a loaded entry is checked exactly like the golden
// round-trip before it is ever served). Encode's bytes are AppendPlan's, and
// FromJSON reads them with a one-pass decoder it trusts only when
// re-encoding reproduces them, so a load costs less than the compile it
// saves while accepting exactly what encoding/json accepts.
//
// Implementations must be safe for concurrent use: the server calls GetPlan
// from concurrent cache-miss fills and PutPlan behind every locally computed
// plan.
type PlanStore interface {
	// GetPlan returns the stored serialized plan for key and its decoded,
	// validated form, or ok=false when the key is absent or the entry failed
	// validation (in which case the implementation must quarantine it so a
	// corrupt entry is recomputed, never served, and never retried).
	GetPlan(key string) (data []byte, plan *NetworkPlan, ok bool)

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

	// Corrupt counts entries that failed validation on load — truncated,
	// syntactically broken, totals-inconsistent, or keyed under the wrong
	// content address — and were quarantined.
	Corrupt uint64 `json:"corrupt"`
}
