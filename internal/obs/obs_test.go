package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/obstest"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := New("test")
	ctx := NewContext(context.Background(), tr)

	ctx1, root := Start(ctx, "request")
	ctx2, child := Start(ctx1, "handler")
	_, grand := Start(ctx2, "search")
	grand.SetInt("candidates", 42).SetStr("path", "closed-form")
	grand.End()
	child.End()
	_, sib := Start(ctx1, "write")
	sib.End()
	root.End()

	roots := tr.Tree()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	req := roots[0]
	if req.Name != "request" || len(req.Children) != 2 {
		t.Fatalf("root = %q with %d children, want request with 2", req.Name, len(req.Children))
	}
	if req.Children[0].Name != "handler" || req.Children[1].Name != "write" {
		t.Fatalf("children = %q, %q", req.Children[0].Name, req.Children[1].Name)
	}
	s := Find(roots, "search")
	if s == nil {
		t.Fatal("Find(search) = nil")
	}
	if s.Attrs["candidates"] != int64(42) || s.Attrs["path"] != "closed-form" {
		t.Fatalf("attrs = %v", s.Attrs)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
}

func TestNilSpanNoOps(t *testing.T) {
	ctx, s := Start(context.Background(), "x")
	if s != nil {
		t.Fatal("Start without trace returned non-nil span")
	}
	if ctx != context.Background() {
		t.Fatal("Start without trace derived a new context")
	}
	// All methods must be safe on nil.
	s.End()
	s.SetInt("a", 1)
	s.SetStr("b", "c")
	if s.Duration() != 0 {
		t.Fatal("nil span reported non-zero state")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on bare context != nil")
	}
}

func TestStartDisabledZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, s := Start(ctx, "hot")
		s.SetInt("n", 1)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled Start allocated %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		s := StartLeaf(ctx, "hot")
		s.SetStr("k", "v")
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartLeaf allocated %.1f/op, want 0", allocs)
	}
}

// TestSpanAttrsNoAlloc pins that a span with up to four attributes costs
// no allocation of its own, started by Start or by StartLeaf: the span and
// its attributes take their shares of the trace's chunks, one chunk per 31
// entries, which an average over 124 spans rounds down to 0, where an
// allocation of each span's own would read 1 or more.
func TestSpanAttrsNoAlloc(t *testing.T) {
	for attrs := range 5 {
		ctx := NewContext(context.Background(), New("attrs"))
		for _, start := range []string{"Start", "StartLeaf"} {
			allocs := testing.AllocsPerRun(4*chunkLen, func() {
				var s *Span
				if start == "Start" {
					_, s = Start(ctx, "layer")
				} else {
					s = StartLeaf(ctx, "engine.search")
				}
				for i := range attrs {
					s.SetInt("k", int64(i))
				}
				s.End()
			})
			if allocs != 0 {
				t.Errorf("%s with %d attributes allocates %.1f times per span, want 0", start, attrs, allocs)
			}
		}
	}
}

// TestTraceChunkAllocs pins what a whole trace allocates: the trace, the
// context NewContext makes for it, and one chunk per 31 spans and per 31
// attributes, nested spans or leaves, with or without attributes.
func TestTraceChunkAllocs(t *testing.T) {
	chunks := func(n int) int { return (n + chunkLen - 1) / chunkLen }
	for _, n := range []int{0, 1, chunkLen, chunkLen + 1, 100, 1000} {
		for _, attrs := range []int{0, 1, 4} {
			allocs := testing.AllocsPerRun(1, func() {
				tr := New("chunks")
				ctx := NewContext(context.Background(), tr)
				for i := range n {
					var s *Span
					if i%3 == 0 {
						s = StartLeaf(ctx, "leaf")
					} else {
						ctx, s = Start(ctx, "nested")
					}
					for a := range attrs {
						s.SetInt("a", int64(a))
					}
					s.End()
				}
				if tr.Len() != n {
					t.Fatalf("trace holds %d spans, want %d", tr.Len(), n)
				}
			})
			if want := 2 + chunks(n) + chunks(n*attrs); allocs > float64(want) {
				t.Errorf("%d spans with %d attributes each: %.0f allocations, want at most %d (the trace, its context and %d chunks)",
					n, attrs, allocs, want, want-2)
			}
		}
	}
}

// TestStartLeaf pins where a leaf span lands: under the context's current
// span, or at the top level when the context has none, and never past the
// span limit. Nothing can start under a leaf, so it derives no context.
func TestStartLeaf(t *testing.T) {
	tr := New("leaf")
	ctx := NewContext(context.Background(), tr)
	StartLeaf(ctx, "queue-wait").End()
	cctx, comp := Start(ctx, "compile")
	leaf := StartLeaf(cctx, "schedule")
	leaf.SetStr("layer", "conv1").SetInt("n", 2)
	leaf.End()
	comp.End()

	roots := tr.Tree()
	if len(roots) != 2 || roots[0].Name != "queue-wait" || roots[1].Name != "compile" {
		t.Fatalf("roots = %+v, want queue-wait and compile", roots)
	}
	if len(roots[0].Children) != 0 {
		t.Errorf("top-level leaf has children: %+v", roots[0].Children)
	}
	kids := roots[1].Children
	if len(kids) != 1 || kids[0].Name != "schedule" {
		t.Fatalf("compile children = %+v, want the schedule leaf", kids)
	}
	if kids[0].Attrs["layer"] != "conv1" || kids[0].Attrs["n"] != int64(2) {
		t.Errorf("leaf attrs = %v", kids[0].Attrs)
	}

	tr.limit = tr.Len()
	if s := StartLeaf(ctx, "over"); s != nil || tr.Dropped() != 1 {
		t.Errorf("leaf over the span limit = %v with %d dropped, want nil and 1", s, tr.Dropped())
	}
}

func TestSpanLimit(t *testing.T) {
	tr := New("tiny")
	tr.limit = 2
	ctx := NewContext(context.Background(), tr)
	_, a := Start(ctx, "a")
	_, b := Start(ctx, "b")
	_, c := Start(ctx, "c")
	if a == nil || b == nil {
		t.Fatal("spans under the limit were dropped")
	}
	if c != nil {
		t.Fatal("span over the limit was recorded")
	}
	if tr.Dropped() != 1 || tr.Len() != 2 {
		t.Fatalf("dropped=%d len=%d, want 1, 2", tr.Dropped(), tr.Len())
	}
}

func TestNewContextClearsParentSpan(t *testing.T) {
	outer := New("outer")
	ctx := NewContext(context.Background(), outer)
	ctx, req := Start(ctx, "request")
	defer req.End()

	// Attaching a fresh trace must not parent its spans under "request".
	inner := New("inner")
	ictx := NewContext(ctx, inner)
	_, s := Start(ictx, "compile")
	s.End()

	if outer.Len() != 1 {
		t.Fatalf("outer trace got %d spans, want 1", outer.Len())
	}
	roots := inner.Tree()
	if len(roots) != 1 || roots[0].Name != "compile" || len(roots[0].Children) != 0 {
		t.Fatalf("inner tree = %+v, want single top-level compile", roots)
	}
}

// TestConcurrentStart starts spans on one trace from 16 goroutines at
// once, each a chain of nested spans long enough that the trace's chunks
// fill several times over while the others append, and checks every
// span's parent and attributes.
func TestConcurrentStart(t *testing.T) {
	tr := New("fanout")
	ctx := NewContext(context.Background(), tr)
	ctx, root := Start(ctx, "compile")
	done := make(chan struct{})
	const n, depth = 16, 3 * chunkLen
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			lctx, layer := Start(ctx, "layer")
			layer.SetInt("index", int64(i))
			chain := make([]*Span, depth)
			for d := range chain {
				lctx, chain[d] = Start(lctx, "search")
				chain[d].SetInt("index", int64(i)).SetInt("depth", int64(d))
			}
			StartLeaf(lctx, "leaf").SetInt("index", int64(i)).End()
			for d := depth - 1; d >= 0; d-- {
				chain[d].End()
			}
			layer.End()
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	root.End()
	if got, want := tr.Len(), 1+n*(depth+2); got != want {
		t.Fatalf("trace holds %d spans, want %d", got, want)
	}
	roots := tr.Tree()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if got := len(roots[0].Children); got != n {
		t.Fatalf("layer spans = %d, want %d", got, n)
	}
	seen := make([]bool, n)
	for _, layer := range roots[0].Children {
		i, ok := layer.Attrs["index"].(int64)
		if layer.Name != "layer" || !ok || i < 0 || i >= n || seen[i] || len(layer.Attrs) != 1 {
			t.Fatalf("layer span %q with attrs %v", layer.Name, layer.Attrs)
		}
		seen[i] = true
		node := layer
		for d := range depth {
			if len(node.Children) != 1 {
				t.Fatalf("layer %d, depth %d: %d children, want 1", i, d, len(node.Children))
			}
			node = node.Children[0]
			if node.Name != "search" || node.Attrs["index"] != i || node.Attrs["depth"] != int64(d) || len(node.Attrs) != 2 {
				t.Fatalf("layer %d, depth %d: span %q with attrs %v", i, d, node.Name, node.Attrs)
			}
		}
		if len(node.Children) != 1 || node.Children[0].Name != "leaf" || node.Children[0].Attrs["index"] != i {
			t.Fatalf("layer %d: deepest span's children = %+v, want its leaf", i, node.Children)
		}
	}
}

// TestSpanContext pins the context a span serves as: Value answers the
// trace for its own key and forwards every other one, Deadline, Done and
// Err are the parent's, a WithCancel or WithTimeout below a span is
// cancelled with its parent by the parent's own cancelCtx, with no
// goroutine started to watch it, and NewContext over a span's context
// clears the span.
func TestSpanContext(t *testing.T) {
	type key struct{}
	deadline := time.Now().Add(time.Hour)
	parent, cancel := context.WithDeadline(context.WithValue(context.Background(), key{}, "v"), deadline)
	tr := New("ctx")
	ctx, outer := Start(NewContext(parent, tr), "outer")
	ctx, inner := Start(ctx, "inner")
	if ctx != context.Context(inner) {
		t.Fatal("Start did not return the span as its context")
	}
	if FromContext(ctx) != tr || ctx.Value(key{}) != "v" || ctx.Value("other") != nil {
		t.Errorf("Value: trace %v, key %v, other %v", FromContext(ctx), ctx.Value(key{}), ctx.Value("other"))
	}
	if d, ok := ctx.Deadline(); !ok || !d.Equal(deadline) {
		t.Errorf("Deadline = %v, %v; want %v", d, ok, deadline)
	}
	if ctx.Done() != parent.Done() || ctx.Err() != nil {
		t.Errorf("Done is not the parent's, or Err = %v before cancel", ctx.Err())
	}

	goroutines := runtime.NumGoroutine()
	below, stop := context.WithCancel(ctx)
	defer stop()
	timed, stopTimed := context.WithTimeout(ctx, time.Hour)
	defer stopTimed()
	if got := runtime.NumGoroutine(); got != goroutines {
		t.Errorf("contexts below a span started %d goroutines", got-goroutines)
	}
	cancel()
	// The parent's cancel cancels the children registered with it before it
	// returns.
	for name, c := range map[string]context.Context{"span": ctx, "WithCancel": below, "WithTimeout": timed} {
		if c.Err() != context.Canceled {
			t.Errorf("%s below the cancelled parent: Err = %v, want %v", name, c.Err(), context.Canceled)
		}
	}
	select {
	case <-inner.Done():
	default:
		t.Error("span's Done is open after its parent was cancelled")
	}

	fresh := New("fresh")
	fctx := NewContext(inner, fresh)
	_, top := Start(fctx, "top")
	top.End()
	inner.End()
	outer.End()
	if FromContext(fctx) != fresh || fctx.Value(key{}) != "v" {
		t.Errorf("NewContext over a span: trace %v, key %v", FromContext(fctx), fctx.Value(key{}))
	}
	if roots := fresh.Tree(); len(roots) != 1 || roots[0].Name != "top" {
		t.Errorf("fresh trace = %+v, want one top-level span", roots)
	}
	if roots := tr.Tree(); len(roots) != 1 || len(roots[0].Children) != 1 || len(roots[0].Children[0].Children) != 0 {
		t.Errorf("first trace = %+v, want outer > inner and nothing below", roots)
	}
}

func TestPhasesAndServerTiming(t *testing.T) {
	tr := New("req")
	ctx := NewContext(context.Background(), tr)
	_, a := Start(ctx, "decode")
	a.End()
	_, b := Start(ctx, "hand ler") // space must be sanitized in the header
	b.End()
	phases := tr.Phases()
	if len(phases) != 2 || phases[0].Name != "decode" {
		t.Fatalf("phases = %+v", phases)
	}
	h := ServerTiming(phases, 5*time.Millisecond)
	if !strings.Contains(h, "decode;dur=") || !strings.Contains(h, "hand-ler;dur=") {
		t.Fatalf("header = %q", h)
	}
	if !strings.HasSuffix(h, "total;dur=5.00") {
		t.Fatalf("header = %q, want total;dur=5.00 suffix", h)
	}
}

// TestServerTimingMatchesFmt holds the Server-Timing value to the fmt form
// it was first written with ("%s;dur=%.2f, " per phase, then the total)
// for zero, rounding, large and negative durations, names the token
// grammar rewrites, and a header longer than the stack buffer.
func TestServerTimingMatchesFmt(t *testing.T) {
	fmtForm := func(phases []Phase, total time.Duration) string {
		token := func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '-', r == '_', r == '.':
				return r
			default:
				return '-'
			}
		}
		var b strings.Builder
		for _, p := range phases {
			fmt.Fprintf(&b, "%s;dur=%.2f, ", strings.Map(token, p.Name), ms(p.Dur))
		}
		fmt.Fprintf(&b, "total;dur=%.2f", ms(total))
		return b.String()
	}
	durs := []time.Duration{
		0, 1, 4999, 5000, 5001, 15000, 25000, 1234567, 2345000, 999_995_000,
		90 * time.Minute, math.MaxInt64, -1500 * time.Microsecond,
	}
	names := []string{"queue-wait", "compile", "encode", "hand ler", "phase/é", "bad\xffutf8", ""}
	for i, d := range durs {
		var phases []Phase
		for j := range i % 4 {
			phases = append(phases, Phase{Name: names[(i+j)%len(names)], Dur: durs[(i+j+1)%len(durs)]})
		}
		if got, want := ServerTiming(phases, d), fmtForm(phases, d); got != want {
			t.Errorf("ServerTiming(%v, %v) = %q, want %q", phases, d, got, want)
		}
	}
	long := make([]Phase, 12)
	for i := range long {
		long[i] = Phase{Name: names[i%len(names)], Dur: durs[i]}
	}
	got, want := ServerTiming(long, time.Second), fmtForm(long, time.Second)
	if got != want || len(got) <= serverTimingStack {
		t.Errorf("long header = %q (%d bytes), want %q (over %d bytes)", got, len(got), want, serverTimingStack)
	}
}

func TestDurationByName(t *testing.T) {
	tr := New("t")
	ctx := NewContext(context.Background(), tr)
	for i := 0; i < 3; i++ {
		_, s := Start(ctx, "search")
		s.End()
	}
	_, s := Start(ctx, "energy")
	s.End()
	sums := []NameSum{{Name: "search"}, {Name: "plan"}, {Name: "energy"}}
	tr.DurationByName(sums)
	if sums[0].Spans != 3 || sums[1].Spans != 0 || sums[2].Spans != 1 {
		t.Fatalf("sums = %+v, want 3 search spans, no plan, 1 energy", sums)
	}
	if sums[1].Dur != 0 || sums[0].Dur < 0 || sums[2].Dur != s.Duration() {
		t.Fatalf("sums = %+v", sums)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := New("vwsdk")
	ctx := NewContext(context.Background(), tr)
	ctx1, a := Start(ctx, "workload")
	a.SetStr("layer", "conv1")
	_, c := Start(ctx1, "search")
	c.End()
	a.End()
	_, b := Start(ctx, "workload") // second top-level span: its own lane
	b.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   int64          `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4 (1 meta + 3 spans)", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta.Ph != "M" || meta.Args["name"] != "vwsdk" {
		t.Fatalf("meta event = %+v", meta)
	}
	ev := doc.TraceEvents[1:]
	if ev[0].Tid != ev[1].Tid {
		t.Fatalf("child span left its parent's lane: %d vs %d", ev[0].Tid, ev[1].Tid)
	}
	if ev[2].Tid == ev[0].Tid {
		t.Fatal("independent top-level spans share a lane")
	}
	if ev[0].Args["layer"] != "conv1" {
		t.Fatalf("args = %v", ev[0].Args)
	}
}

func TestExposition(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99) // lands in +Inf

	var buf bytes.Buffer
	WriteFamily(&buf, "vwsdk_http_requests_total", "Total HTTP requests.", "counter")
	WriteSample(&buf, "vwsdk_http_requests_total", 3)
	WriteFamily(&buf, "vwsdk_goroutines", "Goroutines.", "gauge")
	WriteSample(&buf, "vwsdk_goroutines", 7)
	WriteFamily(&buf, "vwsdk_engine_searches_total", "Engine searches.", "counter")
	WriteSample(&buf, "vwsdk_engine_searches_total", 11)
	WriteFamily(&buf, "vwsdk_compile_phase_seconds", "Per-phase compile time.", "histogram")
	h.WriteSeries(&buf, "vwsdk_compile_phase_seconds", Label{"phase", "search"})
	out := buf.String()
	for _, want := range []string{
		"# TYPE vwsdk_http_requests_total counter",
		"vwsdk_http_requests_total 3\n",
		"# TYPE vwsdk_goroutines gauge",
		"vwsdk_goroutines 7\n",
		"vwsdk_engine_searches_total 11\n",
		"# TYPE vwsdk_compile_phase_seconds histogram",
		`vwsdk_compile_phase_seconds_bucket{phase="search",le="0.001"} 1`,
		`vwsdk_compile_phase_seconds_bucket{phase="search",le="+Inf"} 3`,
		`vwsdk_compile_phase_seconds_count{phase="search"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	obstest.CheckExposition(t, out)

	// Buckets reports the same observations as disjoint counts.
	bounds, counts := h.Buckets()
	if fmt.Sprint(bounds, counts) != "[0.001 0.01 0.1] [1 0 1 1]" {
		t.Errorf("Buckets() = %v, %v", bounds, counts)
	}
}

func TestLabelEscaping(t *testing.T) {
	got := Labels{{"v", `a"b\c` + "\nd"}}.render()
	want := `v="a\"b\\c\nd"`
	if got != want {
		t.Fatalf("render = %s, want %s", got, want)
	}
}
