package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
)

// TestWarmCompileZeroPlanPathAllocs pins the tentpole property of the serve
// path: once a plan is cached, serving it — canonical key build, cache
// lookup, writing the cached serialized bytes — allocates nothing. The
// measured unit is Server.CachedPlan, exactly the fast path handleCompile
// runs before any compiling machinery.
func TestWarmCompileZeroPlanPathAllocs(t *testing.T) {
	s := New(Config{})
	req := compile.NewRequest(model.VGG13(), core.Array{Rows: 512, Cols: 512}, compile.Options{})

	// Prime through the real handler so the cache holds what a request
	// stores.
	hr := httptest.NewRequest(http.MethodPost, "/v1/compile",
		strings.NewReader(`{"network": "VGG-13", "array": "512x512"}`))
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, hr)
	if rw.Code != http.StatusOK {
		t.Fatalf("prime request status %d: %s", rw.Code, rw.Body.String())
	}

	ok, err := s.CachedPlan(io.Discard, req)
	if err != nil || !ok {
		t.Fatalf("CachedPlan after prime: ok=%v err=%v", ok, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ok, err := s.CachedPlan(io.Discard, req)
		if err != nil || !ok {
			t.Fatalf("CachedPlan: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm plan path allocates %.1f times per request, want 0", allocs)
	}
}

// TestWarmCompileRequestAllocs pins a warm POST /v1/compile end to end:
// building the request, ServeHTTP's routing, request id and response
// bookkeeping, the body decode, then the cached plan's bytes. The limit is
// 25, the count this loop reads, × 1.25 + 16 of headroom for net/http and
// runtime drift. It reads 25 (27 under the race detector); decoding the
// body's two references through json.Unmarshal made it 31.
func TestWarmCompileRequestAllocs(t *testing.T) {
	const limit = 47
	s := New(Config{})
	body := []byte(`{"network": "VGG-13", "array": "512x512"}`)
	rw := &statusWriter{header: http.Header{}}
	post := func() {
		clear(rw.header)
		rw.status = 0
		s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
		if rw.status != http.StatusOK {
			t.Fatalf("status %d", rw.status)
		}
	}
	post() // compile once, so every measured request is a plan-cache hit
	if allocs := testing.AllocsPerRun(200, post); allocs > limit {
		t.Errorf("warm /v1/compile allocates %.1f times per request, want ≤ %d", allocs, limit)
	}
}

// TestWarmOptimizeRequestAllocs pins a warm POST /v1/optimize end to end:
// building the request, ServeHTTP's routing and bookkeeping, the body
// decode, parsing and normalizing the space, the run's eight design points,
// each its own cell compile with every search an engine hit, and the NDJSON
// lines.
// It reads 79–80 (83–84 under the race detector, which drops sync.Pool
// puts), and the limit leaves 10 above that. One array slice per design, a
// designs slice grown by appending, an emitted point on the heap per event
// and a reflective frontier sort made it 93–94, a per-layer closure per
// cell compile and references decoded through json.Unmarshal 108, a new
// energy model per cell compile and a fan-out that allocated at width one
// 141, and before that, a new plan per cell compile and lines encoded by
// encoding/json 192.
func TestWarmOptimizeRequestAllocs(t *testing.T) {
	const limit = 90
	s := New(Config{})
	body := []byte(testSpace)
	rw := &statusWriter{header: http.Header{}}
	post := func() {
		clear(rw.header)
		rw.status = 0
		s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)))
		if rw.status != http.StatusOK {
			t.Fatalf("status %d", rw.status)
		}
	}
	post() // run once, so every measured request's searches are engine hits
	if allocs := testing.AllocsPerRun(100, post); allocs > limit {
		t.Errorf("warm /v1/optimize allocates %.1f times per request, want ≤ %d", allocs, limit)
	}
}

// TestColdCompileRequestAllocs pins a cold POST /v1/compile end to end: a
// VGG-13 compile on an array no earlier request used, so every request
// misses the plan cache and searches every distinct layer afresh. Each
// compile records its provenance trace and keeps it on the plan-cache
// entry, and none of the requests asks for the ?trace=1 tree. GOMAXPROCS 1
// keeps the compile on its caller. The count reads 70 (71–73 under the
// race detector, which drops a share of sync.Pool puts), and the limit
// leaves 10 above that. Spans, their attribute slices and their derived
// contexts allocated one by one made it 176, a provenance tree rendered on
// every compile 457, a new energy model per compile and a fan-out that
// allocated at width one 199, and an engine cache key too large for a map
// slot 194.
func TestColdCompileRequestAllocs(t *testing.T) {
	const limit, runs = 80, 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(Config{})
	bodies := make([][]byte, runs+1) // AllocsPerRun makes one unmeasured run first
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"network": "VGG-13", "array": "%dx%d"}`, 300+i, 500-i))
	}
	rw := &statusWriter{header: http.Header{}}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		clear(rw.header)
		rw.status = 0
		s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(bodies[next])))
		next++
		if rw.status != http.StatusOK || rw.header.Get("X-Cache") != "miss" {
			t.Fatalf("status %d, X-Cache %q, want 200 and a miss", rw.status, rw.header.Get("X-Cache"))
		}
	})
	if allocs > limit {
		t.Errorf("cold /v1/compile allocates %.1f times per request, want ≤ %d", allocs, limit)
	}
}

// statusWriter is a response writer that keeps the status and drops the
// body, so a request costs no allocations on the writer's side once its
// header map has grown.
type statusWriter struct {
	header http.Header
	status int
}

func (w *statusWriter) Header() http.Header { return w.header }

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

// TestCachedPlanMiss pins that CachedPlan does not compile: a cold cache
// reports a miss and leaves the engine untouched.
func TestCachedPlanMiss(t *testing.T) {
	s := New(Config{})
	req := compile.NewRequest(model.VGG13(), core.Array{Rows: 512, Cols: 512}, compile.Options{})
	ok, err := s.CachedPlan(io.Discard, req)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("cold CachedPlan reported a hit")
	}
	if got := s.Engine().Stats().Searches; got != 0 {
		t.Errorf("CachedPlan ran %d searches on a miss, want 0", got)
	}

	// Invalid requests are reported as errors, not silent misses.
	if _, err := s.CachedPlan(io.Discard, compile.Request{}); err == nil {
		t.Error("invalid request accepted")
	}
}

// recordingStore is a compile.PlanStore that keeps every PutPlan's bytes and
// never has a plan.
type recordingStore struct {
	mu   sync.Mutex
	puts [][]byte
}

func (r *recordingStore) LoadPlan(context.Context, string) ([]byte, compile.Totals, bool) {
	return nil, compile.Totals{}, false
}
func (r *recordingStore) StoreStats() compile.StoreStats { return compile.StoreStats{} }

func (r *recordingStore) PutPlan(_ string, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.puts = append(r.puts, data)
}

// TestCompiledPlanBytesExactSize pins the size rule of a cold compile's
// serialization: the served and the stored bytes are one slice of exactly
// the plan's length, copied out of the encoder's scratch buffer, not a
// grown buffer whose unused capacity the plan cache would hold for the
// entry's lifetime.
func TestCompiledPlanBytesExactSize(t *testing.T) {
	st := &recordingStore{}
	s := New(Config{Store: st})
	req := compile.NewRequest(model.VGG13(), core.Array{Rows: 512, Cols: 512}, compile.Options{})
	key, err := compile.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	entry, _, err := s.compilePlan(context.Background(), key, req, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.data) == 0 || cap(entry.data) != len(entry.data) {
		t.Errorf("served plan bytes have length %d and capacity %d, want equal", len(entry.data), cap(entry.data))
	}
	p, err := compile.New(nil).Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := p.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(entry.data, want.Bytes()) {
		t.Error("served plan bytes differ from Encode's")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.puts) != 1 || &st.puts[0][0] != &entry.data[0] || len(st.puts[0]) != len(entry.data) {
		t.Errorf("store got %d writes, want the served slice once", len(st.puts))
	}
}
