package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the server's observability surface: X-Request-ID assignment,
// the per-compile phase histograms, and the /metrics exposition. The
// ?trace=1 debug form is a branch of handleCompile. The conventions —
// vwsdk_-prefixed metric names as a stable contract, provenance stored on
// cache entries — are documented in DESIGN.md §9.

// ridPrefix distinguishes this process's generated request ids across
// restarts; ids are "<prefix>-<seq>" in hex.
var ridPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%08x", uint32(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}()

var ridSeq atomic.Uint64

// newRequestID mints a process-unique request id.
func newRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridSeq.Add(1), 16)
}

// requestID returns the client-supplied X-Request-Id when it is safe to echo
// (bounded, visible ASCII — it ends up in response headers, error bodies and
// log lines) and a generated id otherwise.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && validRequestID(id) {
		return id
	}
	return newRequestID()
}

func validRequestID(id string) bool {
	if len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return false
		}
	}
	return true
}

// compilePhases are the per-phase compile-time histogram series, matching
// the span names the compile pipeline records (summed by DurationByName):
// admission wait, the per-layer pipeline stages, and plan serialization.
var compilePhases = [...]string{"queue-wait", "search", "schedule", "energy", "plan", "encode"}

// observeCompile feeds one computed compilation's provenance into the
// per-phase histograms, in one pass over its spans and without allocating.
// A phase is observed when the compilation recorded a span of it, even one
// that took no measurable time; "plan" is absent unless physical plans
// were asked for.
func (s *Server) observeCompile(prov *obs.Trace) {
	var sums [len(compilePhases)]obs.NameSum
	for i, ph := range compilePhases {
		sums[i].Name = ph
	}
	prov.DurationByName(sums[:])
	for i, sum := range sums {
		if sum.Spans > 0 {
			s.phaseHist[i].Observe(sum.Dur.Seconds())
		}
	}
}

// metricRow is one /metrics counter or gauge family: its name, help text
// and type, and the Stats field it reads. A row of an optional tier is
// omitted while that tier's Stats block is nil, so a single-node,
// memory-only daemon's exposition carries no store or peer families.
type metricRow struct {
	name, help string
	gauge      bool
	tier       string // "", "store" or "peer"
	read       func(*Stats) float64
}

// metricTable is every /metrics counter and gauge. A scrape renders it from
// one Stats snapshot, so no counter is read twice and a scrape can never
// disagree with /stats.
var metricTable = []metricRow{
	{name: "vwsdk_uptime_seconds", help: "Seconds since the server was constructed.", gauge: true,
		read: func(st *Stats) float64 { return st.Process.UptimeSeconds }},
	{name: "vwsdk_goroutines", help: "Current number of goroutines.", gauge: true,
		read: func(st *Stats) float64 { return float64(st.Process.Goroutines) }},

	{name: "vwsdk_http_requests_total", help: "HTTP requests received.",
		read: func(st *Stats) float64 { return float64(st.Server.Requests) }},
	{name: "vwsdk_http_in_flight", help: "HTTP requests currently being served.", gauge: true,
		read: func(st *Stats) float64 { return float64(st.Server.InFlight) }},
	{name: "vwsdk_http_queue_depth", help: "Compilations waiting for an admission slot.", gauge: true,
		read: func(st *Stats) float64 { return float64(st.Server.Queued) }},
	{name: "vwsdk_http_rejected_total", help: "Requests rejected 503 by the full admission queue.",
		read: func(st *Stats) float64 { return float64(st.Server.Rejected) }},

	{name: "vwsdk_plan_cache_hits_total", help: "Plan-cache hits (LRU hits plus coalesced joins).",
		read: func(st *Stats) float64 { return float64(st.PlanCache.Hits) }},
	{name: "vwsdk_plan_cache_misses_total", help: "Compilations actually run.",
		read: func(st *Stats) float64 { return float64(st.PlanCache.Misses) }},
	{name: "vwsdk_plan_cache_dedupes_total", help: "Requests coalesced onto an in-flight compilation.",
		read: func(st *Stats) float64 { return float64(st.PlanCache.Dedupes) }},
	{name: "vwsdk_plan_cache_evictions_total", help: "Plans evicted from the LRU.",
		read: func(st *Stats) float64 { return float64(st.PlanCache.Evictions) }},
	{name: "vwsdk_plan_cache_entries", help: "Plans currently cached.", gauge: true,
		read: func(st *Stats) float64 { return float64(st.PlanCache.Entries) }},

	{name: "vwsdk_engine_searches_total", help: "Layer searches served by the engine.",
		read: func(st *Stats) float64 { return float64(st.Engine.Searches) }},
	{name: "vwsdk_engine_cache_hits_total", help: "Searches answered from the result cache or a joined flight.",
		read: func(st *Stats) float64 { return float64(st.Engine.CacheHits) }},
	{name: "vwsdk_engine_cache_misses_total", help: "Searches that ran the underlying algorithm.",
		read: func(st *Stats) float64 { return float64(st.Engine.CacheMisses) }},
	{name: "vwsdk_engine_flight_dedupes_total", help: "Searches coalesced onto an identical in-flight search.",
		read: func(st *Stats) float64 { return float64(st.Engine.FlightDedupes) }},
	{name: "vwsdk_engine_evictions_total", help: "Search results evicted from the LRU.",
		read: func(st *Stats) float64 { return float64(st.Engine.Evictions) }},
	{name: "vwsdk_engine_candidates_costed_total", help: "Candidates evaluated by computed searches: VW-SDK cost classes, mostly in closed form, and baseline windows.",
		read: func(st *Stats) float64 { return float64(st.Engine.CandidatesCosted) }},
	{name: "vwsdk_engine_candidates_pruned_total", help: "Candidate windows the exhaustive sweeps would cost but the closed-form search skipped.",
		read: func(st *Stats) float64 { return float64(st.Engine.CandidatesPruned) }},
	{name: "vwsdk_engine_searches_in_flight", help: "Searches currently running the underlying algorithm.", gauge: true,
		read: func(st *Stats) float64 { return float64(st.Engine.InFlightSearches) }},

	{name: "vwsdk_store_hits_total", help: "Plan-store loads that validated and were served.", tier: "store",
		read: func(st *Stats) float64 { return float64(st.Store.Hits) }},
	{name: "vwsdk_store_misses_total", help: "Plan-store lookups of absent keys.", tier: "store",
		read: func(st *Stats) float64 { return float64(st.Store.Misses) }},
	{name: "vwsdk_store_writes_total", help: "Plans written behind to the store.", tier: "store",
		read: func(st *Stats) float64 { return float64(st.Store.Writes) }},
	{name: "vwsdk_store_corrupt_total", help: "Store entries that failed validation and were quarantined.", tier: "store",
		read: func(st *Stats) float64 { return float64(st.Store.Corrupt) }},
	{name: "vwsdk_peer_proxied_total", help: "Plan-cache misses filled from the owning peer.", tier: "peer",
		read: func(st *Stats) float64 { return float64(st.Peer.Proxied) }},
	{name: "vwsdk_peer_failed_total", help: "Peer proxy attempts that fell back to local compute.", tier: "peer",
		read: func(st *Stats) float64 { return float64(st.Peer.Failed) }},

	{name: "vwsdk_optimize_runs_total", help: "Pareto-frontier optimize searches started (streams and jobs).",
		read: func(st *Stats) float64 { return float64(st.Optimize.Runs) }},
	{name: "vwsdk_optimize_points_evaluated_total", help: "Design points scored by optimize searches.",
		read: func(st *Stats) float64 { return float64(st.Optimize.PointsEvaluated) }},
	{name: "vwsdk_optimize_points_admitted_total", help: "Design points admitted to a Pareto frontier.",
		read: func(st *Stats) float64 { return float64(st.Optimize.Admitted) }},
	{name: "vwsdk_optimize_points_evicted_total", help: "Admitted points later evicted by a dominating admit.",
		read: func(st *Stats) float64 { return float64(st.Optimize.Evicted) }},
	{name: "vwsdk_optimize_points_dominated_total", help: "Design points pruned as dominated (rejected on arrival plus evicted).",
		read: func(st *Stats) float64 { return float64(st.Optimize.Rejected + st.Optimize.Evicted) }},

	{name: "vwsdk_jobs_created_total", help: "Jobs accepted by POST /v1/jobs.",
		read: func(st *Stats) float64 { return float64(st.Jobs.Created) }},
	{name: "vwsdk_jobs_cancelled_total", help: "Live jobs cancelled by DELETE.",
		read: func(st *Stats) float64 { return float64(st.Jobs.Cancelled) }},
	{name: "vwsdk_jobs_collected_total", help: "Finished jobs garbage-collected after their TTL.",
		read: func(st *Stats) float64 { return float64(st.Jobs.Collected) }},
	{name: "vwsdk_jobs_live", help: "Jobs currently queued or running.", gauge: true,
		read: func(st *Stats) float64 { return float64(st.Jobs.Live) }},
}

// handleMetrics writes the exposition into one buffer: the build-info
// gauge, whose labels come from the same snapshot, and every metricTable
// row from one Stats snapshot, then the request-latency and per-phase
// compile-time histogram families.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.counters()
	var b bytes.Buffer
	obs.WriteFamily(&b, "vwsdk_build_info", "Build metadata carried in labels; the value is always 1.", "gauge")
	obs.WriteSample(&b, "vwsdk_build_info", 1,
		obs.Label{Name: "version", Value: st.Process.Version},
		obs.Label{Name: "revision", Value: st.Process.Revision},
		obs.Label{Name: "goversion", Value: st.Process.GoVersion})
	for _, m := range metricTable {
		if m.tier == "store" && st.Store == nil || m.tier == "peer" && st.Peer == nil {
			continue
		}
		typ := "counter"
		if m.gauge {
			typ = "gauge"
		}
		obs.WriteFamily(&b, m.name, m.help, typ)
		obs.WriteSample(&b, m.name, m.read(&st))
	}
	obs.WriteFamily(&b, "vwsdk_http_request_duration_seconds", "End-to-end HTTP request latency.", "histogram")
	s.httpHist.WriteSeries(&b, "vwsdk_http_request_duration_seconds")
	obs.WriteFamily(&b, "vwsdk_compile_phase_seconds",
		"Compile-pipeline time per phase, summed per compilation (concurrent layers add up).", "histogram")
	for i, ph := range compilePhases {
		s.phaseHist[i].WriteSeries(&b, "vwsdk_compile_phase_seconds", obs.Label{Name: "phase", Value: ph})
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.Write(b.Bytes())
}
