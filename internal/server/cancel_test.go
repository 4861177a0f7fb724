package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// gateSearcher is a core.Searcher whose leaf searches block until they can
// take a token from release (or their context ends). Tests use it to hold a
// compilation at a deterministic point and to make cancellation observable
// without timing assumptions.
type gateSearcher struct {
	release chan struct{}
}

func newGateSearcher() *gateSearcher {
	return &gateSearcher{release: make(chan struct{})}
}

// allow lets n gated searches proceed.
func (g *gateSearcher) allow(n int) {
	for range n {
		g.release <- struct{}{}
	}
}

func (g *gateSearcher) wait(ctx context.Context) error {
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gateSearcher) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (core.Result, error) {
	if err := g.wait(ctx); err != nil {
		return core.Result{}, err
	}
	return core.Search(ctx, l, a, m)
}

// countingSearcher runs core.Exhaustive, the brute-force sweeps, and counts
// the searches it starts and finishes, so a test can see a search running
// and see that none is left running after a cancel.
type countingSearcher struct {
	started, finished atomic.Int64
}

func (c *countingSearcher) Search(ctx context.Context, l core.Layer, a core.Array, m core.Method) (core.Result, error) {
	c.started.Add(1)
	defer c.finished.Add(1)
	return core.Exhaustive{}.Search(ctx, l, a, m)
}

// oneLayerNet returns a one-layer inline network spec with a distinguishing
// IFM width, so each call is its own plan-cache key.
func oneLayerNet(iw int) string {
	return fmt.Sprintf(`{"name": "n%d", "layers": [{"name": "c", "iw": %d, "ih": %d, "kw": 3, "kh": 3, "ic": 4, "oc": 4}]}`, iw, iw, iw)
}

// TestCancelledCompileFreesSlot is the regression test for the PR's
// headline fix: before r.Context() was plumbed through, a client that
// disconnected mid-compile kept its semaphore slot until the search ran to
// completion. Now, with one compilation slot total: request A (a large
// exhaustive search) starts and occupies the slot, request B queues behind
// it, A's client disconnects — and B must complete, which can only happen
// if A's cancellation actually freed the slot. Afterwards the searcher must
// be quiescent: cancelled work stops, it does not keep searching in the
// background.
func TestCancelledCompileFreesSlot(t *testing.T) {
	searcher := &countingSearcher{}
	_, ts := newTestServer(t, Config{Searcher: searcher, MaxConcurrent: 1})

	// A: a 2048×2048-IFM layer whose exhaustive sweep enumerates ~4.2M
	// candidates (tens of milliseconds) — plenty of time to observe it
	// running and cancel it mid-search.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	bigBody := fmt.Sprintf(`{"network": %s, "array": "512x512"}`, oneLayerNet(2048))
	reqA, err := http.NewRequestWithContext(ctxA, http.MethodPost, ts.URL+"/v1/compile", strings.NewReader(bigBody))
	if err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(reqA)
		if resp != nil {
			resp.Body.Close()
		}
		aDone <- err
	}()

	// Wait until A's search is actually running, so the cancel lands
	// mid-search, not before admission.
	deadline := time.Now().Add(10 * time.Second)
	for searcher.started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request A never started its search")
		}
		time.Sleep(time.Millisecond)
	}

	// B: a small compile that must queue behind A's slot.
	bDone := make(chan error, 1)
	go func() {
		resp, data := post(t, ts.URL+"/v1/compile", fmt.Sprintf(`{"network": %s, "array": "64x64"}`, oneLayerNet(8)))
		if resp.StatusCode != http.StatusOK {
			bDone <- fmt.Errorf("B: status %d: %s", resp.StatusCode, data)
			return
		}
		bDone <- nil
	}()

	cancelA() // the client hangs up mid-compile
	if err := <-aDone; err == nil {
		t.Error("A's client call succeeded despite the cancel")
	}
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("B never completed: A's cancelled compile did not free its slot")
	}

	// No further work: once B is done every search has returned and none
	// starts — A's search is not grinding on in the background.
	started := searcher.started.Load()
	time.Sleep(30 * time.Millisecond)
	if s, f := searcher.started.Load(), searcher.finished.Load(); s != started || f != s {
		t.Errorf("searcher still working after cancel: %d started, then %d started and %d finished", started, s, f)
	}
}

// TestCancelledWhileQueuedFreesQueueSlot pins the admission-control half: a
// request whose client is already gone when it reaches the queue gives its
// queue position back immediately.
func TestCancelledWhileQueuedFreesQueueSlot(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	s.sem <- struct{}{} // the slot is busy
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.acquire(ctx, false); err == nil {
		t.Fatal("cancelled acquire succeeded")
	}
	if got := s.queued.Load(); got != 0 {
		t.Errorf("queued gauge = %d after cancelled wait, want 0", got)
	}
	// The queue position is reusable: a live caller can take it (and the
	// slot, once released).
	s.release()
	if err := s.acquire(context.Background(), false); err != nil {
		t.Fatalf("queue slot not reusable: %v", err)
	}
	s.release()
}

// TestRequestTimeout504 pins the -timeout satellite: a compilation that
// outlives the configured per-request deadline is abandoned and answered
// with a structured 504. The gated searcher never releases, so the deadline
// is the only way out — no timing assumptions.
func TestRequestTimeout504(t *testing.T) {
	gate := newGateSearcher()
	_, ts := newTestServer(t, Config{Searcher: gate, RequestTimeout: 20 * time.Millisecond})
	resp, body := post(t, ts.URL+"/v1/compile", fmt.Sprintf(`{"network": %s, "array": "64x64"}`, oneLayerNet(8)))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var e struct {
		Error struct {
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("504 body not structured JSON: %v (%s)", err, body)
	}
	if e.Error.Status != http.StatusGatewayTimeout || !strings.Contains(e.Error.Message, "deadline") {
		t.Errorf("error payload %+v", e.Error)
	}
}

// TestSweepMidStreamCancelPartialNDJSON is the deterministic mid-sweep
// cancel: a 3-cell sweep through the gated searcher, the client reads two
// complete summary lines, then disconnects. The stream must end with
// exactly those two lines — cancelled cells produce no output — and the
// server side must unwind (the sweep semaphore frees for the next sweep).
func TestSweepMidStreamCancelPartialNDJSON(t *testing.T) {
	gate := newGateSearcher()
	s, ts := newTestServer(t, Config{Searcher: gate, MaxConcurrent: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := fmt.Sprintf(`{"networks": [%s], "arrays": ["64x64", "128x128", "256x256"]}`, oneLayerNet(8))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	scanner := bufio.NewScanner(resp.Body)
	var sums []sweepSummary
	for range 2 {
		gate.allow(1) // let exactly one more cell's search finish
		if !scanner.Scan() {
			t.Fatalf("stream ended after %d lines: %v", len(sums), scanner.Err())
		}
		var sum sweepSummary
		if err := json.Unmarshal(scanner.Bytes(), &sum); err != nil {
			t.Fatalf("line %d not JSON: %v (%s)", len(sums), err, scanner.Bytes())
		}
		if sum.Error != "" {
			t.Fatalf("completed cell carries error: %+v", sum)
		}
		sums = append(sums, sum)
	}
	cancel() // client disconnects; the third cell is still gated

	if scanner.Scan() {
		t.Fatalf("received a line after disconnecting: %s", scanner.Bytes())
	}
	if len(sums) != 2 {
		t.Fatalf("got %d complete cells, want 2", len(sums))
	}

	// The server unwound: the sweep stream slot frees (without the fix the
	// third cell would pin it until its search "finished", which is never
	// for a gated search).
	deadline := time.Now().Add(10 * time.Second)
	for len(s.sweepSem) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep stream slot never freed after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepDeadlineTrailerLine pins the deadline behavior of a synchronous
// sweep for a still-connected client: completed cells stream normally and
// the cut-off is marked by one final error line mentioning the deadline.
func TestSweepDeadlineTrailerLine(t *testing.T) {
	gate := newGateSearcher()
	_, ts := newTestServer(t, Config{Searcher: gate, MaxConcurrent: 1, RequestTimeout: 150 * time.Millisecond})
	go gate.allow(1) // exactly one cell may complete; the rest hit the deadline
	body := fmt.Sprintf(`{"networks": [%s], "arrays": ["64x64", "128x128"]}`, oneLayerNet(8))
	resp, data := post(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 1 summary + 1 trailer: %s", len(lines), data)
	}
	var first, trailer sweepSummary
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Error != "" {
		t.Errorf("first line not a clean summary: %v %+v", err, first)
	}
	if err := json.Unmarshal([]byte(lines[1]), &trailer); err != nil {
		t.Fatalf("trailer not JSON: %v", err)
	}
	if !strings.Contains(trailer.Error, "deadline") {
		t.Errorf("trailer error %q does not mention the deadline", trailer.Error)
	}
}

// TestMethodNotAllowedStructured pins the satellite that replaced the mux's
// plain-text 405/404 defaults: every method mismatch and unknown path gets
// the same structured error JSON as the rest of the API, with an Allow
// header on 405s.
func TestMethodNotAllowedStructured(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	checkStructured := func(method, path string, wantStatus int, wantAllow string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantStatus)
			return
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: content type %q, want application/json", method, path, ct)
		}
		if wantAllow != "" {
			if allow := resp.Header.Get("Allow"); allow != wantAllow {
				t.Errorf("%s %s: Allow %q, want %q", method, path, allow, wantAllow)
			}
		}
		var e struct {
			Error struct {
				Status  int    `json:"status"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s %s: body not structured error JSON: %v", method, path, err)
			return
		}
		if e.Error.Status != wantStatus || e.Error.Message == "" {
			t.Errorf("%s %s: error payload %+v", method, path, e.Error)
		}
	}
	checkStructured(http.MethodGet, "/v1/compile", http.StatusMethodNotAllowed, "POST")
	checkStructured(http.MethodDelete, "/v1/sweep", http.StatusMethodNotAllowed, "POST")
	checkStructured(http.MethodPost, "/healthz", http.StatusMethodNotAllowed, "GET")
	checkStructured(http.MethodPut, "/v1/jobs", http.StatusMethodNotAllowed, "GET, POST")
	checkStructured(http.MethodPost, "/v1/jobs/job-1", http.StatusMethodNotAllowed, "DELETE, GET")
	checkStructured(http.MethodGet, "/nope", http.StatusNotFound, "")
	checkStructured(http.MethodGet, "/v1/compile/extra", http.StatusNotFound, "")

	// HEAD is implicitly served by GET handlers (health probes use it), as
	// under the mux's own method patterns.
	resp, err := http.Head(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD /healthz: status %d, want 200", resp.StatusCode)
	}
	if resp2, err := http.Head(ts.URL + "/v1/compile"); err != nil {
		t.Fatal(err)
	} else {
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("HEAD /v1/compile: status %d, want 405 (no GET handler)", resp2.StatusCode)
		}
	}
}
