package fanout

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce pins the map contract for every small shape:
// each index runs exactly once and errs[i] is do(i)'s own error.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, workers := range []int{0, 1, 2, 8} {
			runs := make([]atomic.Int32, n)
			want := make([]error, n)
			for i := 0; i < n; i += 3 {
				want[i] = fmt.Errorf("index %d", i)
			}
			errs := Each(context.Background(), n, workers, func(i int) error {
				runs[i].Add(1)
				return want[i]
			})
			if len(errs) != n {
				t.Fatalf("n=%d workers=%d: %d errors, want %d", n, workers, len(errs), n)
			}
			for i := range n {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
				if errs[i] != want[i] {
					t.Errorf("n=%d workers=%d: errs[%d] = %v, want %v", n, workers, i, errs[i], want[i])
				}
			}
		}
	}
}

// TestEachBoundsInFlight pins the worker bound: never more than workers
// calls run at once.
func TestEachBoundsInFlight(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var inFlight, peak atomic.Int32
		Each(context.Background(), 100, workers, func(int) error {
			now := inFlight.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			runtime.Gosched()
			inFlight.Add(-1)
			return nil
		})
		if got := peak.Load(); got > int32(workers) {
			t.Errorf("workers=%d: %d calls in flight at once", workers, got)
		}
	}
}

// TestEachRunsInParallel pins that a width above one is real parallelism:
// two calls that each wait for the other can only both finish when they run
// at the same time.
func TestEachRunsInParallel(t *testing.T) {
	arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	errs := Each(context.Background(), 2, 2, func(i int) error {
		close(arrived[i])
		select {
		case <-arrived[1-i]:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the other call never started")
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

// TestEachOneWorkerInline pins the serial case: with one worker (or one
// index) every call runs on the caller's goroutine, in index order. The order
// is recorded with an unsynchronized append, so -race reports any call that
// ran concurrently with another.
func TestEachOneWorkerInline(t *testing.T) {
	caller := goroutineID()
	for _, c := range []struct{ n, workers int }{{10, 1}, {10, 0}, {1, 8}} {
		var order []int
		Each(context.Background(), c.n, c.workers, func(i int) error {
			if id := goroutineID(); id != caller {
				t.Errorf("n=%d workers=%d: index %d ran on goroutine %d, not the caller's %d",
					c.n, c.workers, i, id, caller)
			}
			order = append(order, i)
			return nil
		})
		if len(order) != c.n {
			t.Fatalf("n=%d workers=%d: %d calls, want %d", c.n, c.workers, len(order), c.n)
		}
		for i, got := range order {
			if got != i {
				t.Errorf("n=%d workers=%d: call %d was index %d, want index order %v",
					c.n, c.workers, i, got, order)
				break
			}
		}
	}
}

// TestEachCancelledDispatchesNothing pins the dispatch checkpoint: under an
// already-cancelled ctx no index runs and every error is ctx.Err().
func TestEachCancelledDispatchesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		var calls atomic.Int32
		errs := Each(ctx, 20, workers, func(int) error {
			calls.Add(1)
			return nil
		})
		if got := calls.Load(); got != 0 {
			t.Errorf("workers=%d: %d calls under a cancelled ctx, want 0", workers, got)
		}
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: errs[%d] = %v, want context.Canceled", workers, i, err)
			}
		}
	}
}

// TestEachCancelStopsLaterIndices pins the mid-run rule on one worker: a
// cancel from inside do(k) lets do(k) finish with its own error and
// dispatches no index after k.
func TestEachCancelStopsLaterIndices(t *testing.T) {
	const n, k = 10, 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	errs := Each(ctx, n, 1, func(i int) error {
		ran = append(ran, i)
		if i == k {
			cancel()
		}
		return nil
	})
	if fmt.Sprint(ran) != "[0 1 2 3]" {
		t.Errorf("ran %v, want [0 1 2 3]", ran)
	}
	for i, err := range errs {
		if i <= k && err != nil {
			t.Errorf("errs[%d] = %v, want nil", i, err)
		}
		if i > k && !errors.Is(err, context.Canceled) {
			t.Errorf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

// goroutineID parses the current goroutine's id from its stack header,
// "goroutine 7 [running]:".
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestEachCallerIsAWorker pins that the caller is one of the workers: with
// n ≥ workers ≥ 2, one call runs on the caller's goroutine and Each starts
// at most workers − 1 goroutines. The first workers calls wait for one
// another, so they run on workers distinct goroutines at once; a fan-out
// whose caller only waited would start workers goroutines for them.
func TestEachCallerIsAWorker(t *testing.T) {
	caller := goroutineID()
	for _, c := range []struct{ n, workers int }{{2, 2}, {4, 4}, {12, 3}} {
		base := runtime.NumGoroutine()
		var arrived atomic.Int32
		all := make(chan struct{})
		var mu sync.Mutex
		ran := map[uint64]bool{}
		peak := 0
		errs := Each(context.Background(), c.n, c.workers, func(int) error {
			mu.Lock()
			ran[goroutineID()] = true
			peak = max(peak, runtime.NumGoroutine()-base)
			mu.Unlock()
			if k := arrived.Add(1); k == int32(c.workers) {
				close(all)
			} else if k > int32(c.workers) {
				return nil
			}
			select {
			case <-all:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("fewer than workers calls ran at once")
			}
		})
		for i, err := range errs {
			if err != nil {
				t.Errorf("n=%d workers=%d: call %d: %v", c.n, c.workers, i, err)
			}
		}
		if !ran[caller] {
			t.Errorf("n=%d workers=%d: no call ran on the caller's goroutine", c.n, c.workers)
		}
		if len(ran) != c.workers {
			t.Errorf("n=%d workers=%d: calls ran on %d goroutines, want %d", c.n, c.workers, len(ran), c.workers)
		}
		if peak > c.workers-1 {
			t.Errorf("n=%d workers=%d: %d goroutines started, want at most %d", c.n, c.workers, peak, c.workers-1)
		}
	}
}
