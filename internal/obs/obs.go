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
// context's current span and returns the new span as the derived context,
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
// Recording is the only cost a traced region pays. A trace keeps its spans
// in one log and their attributes in another, each in fixed chunks of 31
// entries that the trace allocates as they fill and never moves, so a
// *Span stays valid as the trace grows. A span costs its share of a chunk,
// and so does each attribute; a span that sets none pays for none. Start
// returns the span itself as its derived context, so neither Start nor
// StartLeaf allocates anything of its own; New and NewContext allocate
// once each. Nothing is rendered while spans are recorded; Tree, Phases,
// DurationByName and WriteChrome replay the recorded spans when a consumer
// asks, so a trace nobody reads costs no rendering.
//
// # A span is a context
//
// Start returns the new span itself as the derived context. Its Value
// answers the package's key with the span and forwards every other key,
// and Deadline, Done and Err, to the context the span was started under
// (past any spans between, which answer nothing else). It reads only what
// Start fixed, so goroutines that a span's work fans out to may read it
// while the span's owner sets attributes. A context.WithCancel or
// WithTimeout below a span finds the parent's cancellation through Value
// and registers with it directly, so it starts no goroutine. A finished
// span keeps the context it was started under reachable for as long as
// its trace lives.
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
	spans   chunkLog[Span]
	attrs   chunkLog[attr]
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
	return t.spans.n
}

// Span is one timed region of a Trace, and the context Start derives for
// it (see the package comment). The zero value is not used; spans come from
// Start and StartLeaf, and a nil *Span (tracing disabled, or the trace
// full) is a valid no-op receiver for End, SetInt, SetStr and Duration.
type Span struct {
	t *Trace
	// ctx is the context the span was started under, or that context's own
	// ctx when it is a span: the nearest one that is not a span, which the
	// context methods forward to.
	ctx    context.Context
	name   string
	start  time.Duration // since the trace's start
	dur    time.Duration // live until End
	id     int32         // index in the trace's span log
	parent int32         // the parent's id; -1 = top level
}

// live is a span's duration until End fixes it.
const live time.Duration = -1

// attr is one span attribute, kept in its trace's attribute log; Str is
// used unless isNum is set.
type attr struct {
	key   string
	str   string
	num   int64
	span  int32 // the id of the span it belongs to
	isNum bool
}

func (a *attr) value() any {
	if a.isNum {
		return a.num
	}
	return a.str
}

// newSpan records a span under the trace's lock, enforcing the span limit.
// ctx is the context it starts under and parent ctx's current span, nil
// for a top-level span.
func (t *Trace) newSpan(ctx context.Context, name string, parent *Span) *Span {
	s := Span{t: t, ctx: ctx, name: name, start: time.Since(t.start), dur: live, parent: -1}
	if parent != nil {
		s.parent = parent.id
		if p, ok := ctx.(*Span); ok {
			s.ctx = p.ctx
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans.n >= t.limit {
		t.dropped++
		return nil
	}
	s.id = int32(t.spans.n)
	return t.spans.add(s)
}

// ctxKey keys the one context value the package reads: the current span,
// or a traceCtx when a trace is attached with no span started under it.
type ctxKey struct{}

// traceCtx is the context NewContext returns: the trace, and no span.
type traceCtx struct {
	context.Context
	t *Trace
}

func (c *traceCtx) Value(key any) any {
	if key == (ctxKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// current returns ctx's trace and current span: nil and nil when tracing
// is disabled, and a nil span at a trace's top level.
func current(ctx context.Context) (*Trace, *Span) {
	switch v := ctx.Value(ctxKey{}).(type) {
	case *Span:
		return v.t, v
	case *traceCtx:
		return v.t, nil
	}
	return nil, nil
}

// NewContext returns a context carrying t as its trace. Any current span is
// cleared, so spans started under the returned context are top-level in t —
// attaching a fresh trace never parents its spans under a different trace's
// span tree.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return &traceCtx{ctx, t}
}

// FromContext returns the context's trace, or nil when the context carries
// none (tracing disabled).
func FromContext(ctx context.Context) *Trace {
	t, _ := current(ctx)
	return t
}

// Start begins a span named name under the context's current span and
// returns the span as the derived context. When the context has no trace —
// tracing disabled — Start returns ctx unchanged and a nil span without
// allocating; all Span methods no-op on nil, so call sites need no guard.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t, parent := current(ctx)
	if t == nil {
		return ctx, nil
	}
	s := t.newSpan(ctx, name, parent)
	if s == nil {
		return ctx, nil // over the span limit: degrade to no-op
	}
	return s, s
}

// StartLeaf begins a span named name under the context's current span, as
// Start does, but returns no context: it is for a region that records no
// spans of its own. Disabled, it returns nil without allocating.
func StartLeaf(ctx context.Context, name string) *Span {
	t, parent := current(ctx)
	if t == nil {
		return nil
	}
	return t.newSpan(ctx, name, parent)
}

// Deadline returns the deadline of the context the span was started under.
func (s *Span) Deadline() (time.Time, bool) { return s.ctx.Deadline() }

// Done returns the Done channel of the context the span was started under.
func (s *Span) Done() <-chan struct{} { return s.ctx.Done() }

// Err returns the error of the context the span was started under.
func (s *Span) Err() error { return s.ctx.Err() }

// Value returns the span for the package's own key, and the value of the
// context the span was started under for every other key.
func (s *Span) Value(key any) any {
	if key == (ctxKey{}) {
		return s
	}
	return s.ctx.Value(key)
}

// End finishes the span, fixing its duration; the first End wins and later
// calls no-op, so defer span.End() composes with early explicit ends.
func (s *Span) End() {
	if s == nil || s.dur != live {
		return
	}
	s.dur = time.Since(s.t.start) - s.start
}

// Duration returns the span's duration (the live duration if not yet ended,
// 0 on a nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.dur == live {
		return time.Since(s.t.start) - s.start
	}
	return s.dur
}

// SetInt attaches an integer attribute and returns the span for chaining.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.t.addAttr(attr{key: key, num: v, span: s.id, isNum: true})
	return s
}

// SetStr attaches a string attribute and returns the span for chaining.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.t.addAttr(attr{key: key, str: v, span: s.id})
	return s
}

func (t *Trace) addAttr(a attr) {
	t.mu.Lock()
	t.attrs.add(a)
	t.mu.Unlock()
}
