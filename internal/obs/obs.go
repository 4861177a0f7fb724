// Package obs is the repository's observability layer: a lightweight,
// stdlib-only span recorder (tracing), shared by the engine, the compile
// pipeline, the HTTP server and the command-line tools, and hand-rolled
// Prometheus text-exposition writers with a fixed-bucket histogram
// (metrics.go). It holds no metrics registry: the server writes /metrics
// from one Stats snapshot and its two histograms.
//
// # Spans
//
// A Trace is one recording — typically one request, one compilation, or one
// CLI run. Code under measurement brackets its work in spans:
//
//	ctx, span := obs.Start(ctx, "search")
//	span.SetStr("layer", l.Name)
//	defer span.End()
//
// Spans nest through the context: Start parents the new span under the
// context's current span and returns a derived context carrying the new one,
// so a call tree becomes a span tree without any explicit plumbing. Traces
// are attached with NewContext and recovered with FromContext. A region
// that starts no spans of its own uses StartLeaf, which parents the span
// the same way but derives no context:
//
//	sp := obs.StartLeaf(ctx, "encode")
//	data, err := encode(p)
//	sp.End()
//
// # What a span costs
//
// Recording is the only cost a traced region pays: a span allocates itself
// (and now and then a longer span log for its trace), Start one derived
// context (StartLeaf none), and the first attribute one slice with room for
// four. Nothing is rendered while spans are recorded;
// Tree, Phases, DurationByName and WriteChrome replay the recorded spans
// when a consumer asks, so a trace nobody reads costs no rendering.
//
// # The disabled fast path
//
// Tracing is strictly opt-in per context. When no Trace rides the context —
// the normal case for every production request that did not ask for one —
// Start returns the context unchanged and a nil *Span, StartLeaf a nil
// *Span, and every Span method no-ops on a nil receiver. The disabled path
// performs no allocation and no locking (pinned by
// TestStartDisabledZeroAllocs), which is what keeps the warm /v1/compile
// plan path at 0 allocs/request.
//
// # Lifecycle and concurrency
//
// Starting spans is safe from any number of goroutines (the compile pipeline
// fans per-layer spans out concurrently). A Span's End and attribute setters
// must be called by the goroutine that started it, and the read-side APIs —
// Tree, Phases, DurationByName, WriteChrome — expect the recorded spans to
// have ended: call them after the traced work has joined (which every caller
// in this repository does — handlers read the trace after the request
// finishes, the CLIs after the run). A trace whose spans have all ended is
// read-only, so any number of goroutines may read it at once and each reads
// the same spans: the server keeps a compilation's finished trace on its
// plan-cache entry and renders it for every ?trace=1 request that asks.
//
// Consumers: Tree renders the nested span tree the server attaches to
// ?trace=1 responses, Phases/ServerTiming feed the Server-Timing header,
// DurationByName feeds the per-phase compile-time histograms, and
// WriteChrome (chrome.go) emits Chrome trace-event JSON for
// chrome://tracing and Perfetto.
package obs

import (
	"context"
	"sync"
	"time"
)

// DefaultMaxSpans bounds a Trace's recorded spans. Spans started past the
// limit are dropped (Start returns a nil no-op span) and counted, so a
// pathological sweep degrades to a truncated trace instead of unbounded
// memory growth.
const DefaultMaxSpans = 1 << 18

// Trace is one span recording. Build one with New; attach it to a context
// with NewContext.
type Trace struct {
	name  string
	start time.Time

	mu      sync.Mutex
	spans   []*Span
	dropped int
	limit   int
}

// New returns an empty Trace named name, started now.
func New(name string) *Trace {
	return &Trace{name: name, start: time.Now(), limit: DefaultMaxSpans}
}

// Dropped reports how many spans were discarded over the span limit.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len reports how many spans the trace holds.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Span is one timed region of a Trace. The zero value is not used; spans
// come from Start, and a nil *Span (tracing disabled, or the trace full) is
// a valid no-op receiver for every method.
type Span struct {
	t      *Trace
	id     int
	parent int // index into t.spans; -1 = top level
	name   string
	start  time.Time
	dur    time.Duration
	ended  bool
	attrs  []attr
}

// attr is one span attribute; Str is used unless isNum is set.
type attr struct {
	key   string
	str   string
	num   int64
	isNum bool
}

// newSpan records a span under the trace's lock, enforcing the span limit.
func (t *Trace) newSpan(name string, parent int) *Span {
	s := &Span{t: t, parent: parent, name: name, start: time.Now()}
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	s.id = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// ctxKey keys the context values; the trace and the current span are stored
// separately so NewContext can clear the span without knowing it.
type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
)

// NewContext returns a context carrying t as its trace. Any current span is
// cleared, so spans started under the returned context are top-level in t —
// attaching a fresh trace never parents its spans under a different trace's
// span tree.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(context.WithValue(ctx, traceKey, t), spanKey, (*Span)(nil))
}

// FromContext returns the context's trace, or nil when the context carries
// none (tracing disabled).
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// Start begins a span named name under the context's current span and
// returns a derived context carrying it. When the context has no trace —
// tracing disabled — Start returns ctx unchanged and a nil span without
// allocating; all Span methods no-op on nil, so call sites need no guard.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	s := t.newSpan(name, parentID(ctx, t))
	if s == nil {
		return ctx, nil // over the span limit: degrade to no-op
	}
	return context.WithValue(ctx, spanKey, s), s
}

// StartLeaf begins a span named name under the context's current span, as
// Start does, but derives no context: nothing can start under the span, so
// it is for a region that records no spans of its own, and it costs no
// context allocation. Disabled, it returns nil without allocating.
func StartLeaf(ctx context.Context, name string) *Span {
	t := FromContext(ctx)
	if t == nil {
		return nil
	}
	return t.newSpan(name, parentID(ctx, t))
}

// parentID returns the index of ctx's current span when it belongs to t,
// else -1 (a top-level span).
func parentID(ctx context.Context, t *Trace) int {
	if ps, ok := ctx.Value(spanKey).(*Span); ok && ps != nil && ps.t == t {
		return ps.id
	}
	return -1
}

// End finishes the span, fixing its duration; the first End wins and later
// calls no-op, so defer span.End() composes with early explicit ends.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
}

// Duration returns the span's duration (the live duration if not yet ended,
// 0 on a nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// SetInt attaches an integer attribute and returns the span for chaining.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.setAttr(attr{key: key, num: v, isNum: true})
	return s
}

// SetStr attaches a string attribute and returns the span for chaining.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.setAttr(attr{key: key, str: v})
	return s
}

// spanAttrs is the attribute capacity a span makes on its first attribute:
// the most any span in this repository sets (a computed engine.search, an
// optimize run), so attributes cost one allocation, not one per doubling.
const spanAttrs = 4

func (s *Span) setAttr(a attr) {
	if s.attrs == nil {
		s.attrs = make([]attr, 0, spanAttrs)
	}
	s.attrs = append(s.attrs, a)
}
