package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
	if s.Duration() != 0 || s.Name() != "" {
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
}

func TestSpanLimit(t *testing.T) {
	tr := New("tiny")
	tr.SetMaxSpans(2)
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

func TestConcurrentStart(t *testing.T) {
	tr := New("fanout")
	ctx := NewContext(context.Background(), tr)
	ctx, root := Start(ctx, "compile")
	done := make(chan struct{})
	const n = 16
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			lctx, layer := Start(ctx, "layer")
			layer.SetInt("index", int64(i))
			_, sub := Start(lctx, "search")
			sub.End()
			layer.End()
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	root.End()
	roots := tr.Tree()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	if got := len(roots[0].Children); got != n {
		t.Fatalf("layer spans = %d, want %d", got, n)
	}
	for _, layer := range roots[0].Children {
		if len(layer.Children) != 1 || layer.Children[0].Name != "search" {
			t.Fatalf("layer children = %+v", layer.Children)
		}
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

func TestDurationByName(t *testing.T) {
	tr := New("t")
	ctx := NewContext(context.Background(), tr)
	for i := 0; i < 3; i++ {
		_, s := Start(ctx, "search")
		s.End()
	}
	_, s := Start(ctx, "energy")
	s.End()
	by := tr.DurationByName()
	if len(by) != 2 {
		t.Fatalf("names = %v", by)
	}
	if _, ok := by["search"]; !ok {
		t.Fatal("missing search")
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

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("vwsdk_http_requests_total", "Total HTTP requests.", func() uint64 { return 3 })
	r.GaugeFunc("vwsdk_goroutines", "Goroutines.", func() float64 { return 7 })
	r.CounterFunc("vwsdk_engine_searches_total", "Engine searches.", func() uint64 { return 11 })
	h := r.Histogram("vwsdk_compile_phase_seconds", "Per-phase compile time.",
		[]float64{0.001, 0.01, 0.1}, Label{"phase", "search"})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99) // lands in +Inf

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
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
