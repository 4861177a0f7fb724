package engine

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// A waiter joins a leader's in-flight search; the leader is cancelled. The
// waiter (whose own context is live) recomputes — it must receive the real
// recomputed result, not core.Result{} with a nil error — and the retry is
// an ordinary computation: cached for the next caller, counted in
// CandidatesCosted, and a miss on its span.
func TestWaiterRecomputeAfterCancelledLeader(t *testing.T) {
	e := New()
	k := cacheKey{}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderEntered := make(chan struct{})
	leaderGo := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.memoized(leaderCtx, k, "l", func(ctx context.Context) (core.Result, error) {
			close(leaderEntered)
			<-leaderGo
			return core.Result{}, ctx.Err()
		})
		leaderDone <- err
	}()
	<-leaderEntered

	want := core.Result{Best: core.Mapping{Cycles: 42}, Evaluated: 7}
	tr := obs.New("waiter")
	waiterDone := make(chan struct{})
	var gotRes *core.Result
	var gotErr error
	go func() {
		defer close(waiterDone)
		gotRes, gotErr = e.memoized(obs.NewContext(context.Background(), tr), k, "l", func(ctx context.Context) (core.Result, error) {
			return want, nil
		})
	}()
	// Fail the leader only once the waiter has joined its flight.
	for e.Stats().FlightDedupes == 0 {
		runtime.Gosched()
	}
	cancelLeader()
	close(leaderGo)
	<-leaderDone
	<-waiterDone

	if gotErr != nil {
		t.Fatalf("waiter err = %v, want nil", gotErr)
	}
	if gotRes == nil || gotRes.Best.Cycles != 42 {
		t.Fatalf("waiter got %+v, want the recomputed result (Cycles=42) — empty result with nil error", gotRes)
	}
	st := e.Stats()
	if st.CachedResults != 1 {
		t.Errorf("CachedResults = %d after the retry, want 1", st.CachedResults)
	}
	if st.CandidatesCosted != uint64(want.Evaluated) {
		t.Errorf("CandidatesCosted = %d, want the retry's %d", st.CandidatesCosted, want.Evaluated)
	}
	if sp := obs.Find(tr.Tree(), "engine.search"); sp == nil || sp.Attrs["outcome"] != "miss" {
		t.Errorf("retry span = %+v, want outcome=miss", sp)
	}
	res, err := e.memoized(context.Background(), k, "l", func(context.Context) (core.Result, error) {
		t.Error("the next identical call recomputed the cached retry")
		return want, nil
	})
	if err != nil || res == nil || res.Best.Cycles != 42 {
		t.Errorf("next call = %+v, %v; want the cached retry", res, err)
	}
}
