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
// each index runs exactly once, failed or not, and Each returns the lowest
// failing index with its own error.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, workers := range []int{0, 1, 2, 8} {
			runs := make([]atomic.Int32, n)
			errs := make([]error, n)
			for i := 2; i < n; i += 3 {
				errs[i] = fmt.Errorf("index %d", i)
			}
			wantFirst, wantErr := -1, error(nil)
			if n > 2 {
				wantFirst, wantErr = 2, errs[2]
			}
			first, err := Each(context.Background(), n, workers, func(i int) error {
				runs[i].Add(1)
				return errs[i]
			})
			for i := range n {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
			if first != wantFirst || err != wantErr {
				t.Errorf("n=%d workers=%d: Each = %d, %v; want %d, %v", n, workers, first, err, wantFirst, wantErr)
			}
		}
	}
}

// TestEachReturnsLowestFailure pins that the lowest failing index wins, not
// the first failure in time: index 1 fails at once, and index 0 fails only
// after index 2 has started, which the cursor hands out only once index 1's
// failure is recorded.
func TestEachReturnsLowestFailure(t *testing.T) {
	started2 := make(chan struct{})
	errs := []error{errors.New("index 0"), errors.New("index 1"), nil}
	first, err := Each(context.Background(), 3, 2, func(i int) error {
		switch i {
		case 0:
			select {
			case <-started2:
			case <-time.After(10 * time.Second):
				return errors.New("index 2 never started")
			}
		case 2:
			close(started2)
		}
		return errs[i]
	})
	if first != 0 || err != errs[0] {
		t.Errorf("Each = %d, %v; want 0, %v", first, err, errs[0])
	}
}

// TestEachOneWorkerAllocs pins that a fan-out of width one allocates
// nothing of its own: a compile whose every search is a cache hit runs at
// that width. Serial also keeps a closure that captures its caller's
// variables off the heap.
func TestEachOneWorkerAllocs(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{0, 1} {
		if allocs := testing.AllocsPerRun(100, func() { Each(ctx, 10, workers, noop) }); allocs != 0 {
			t.Errorf("workers=%d: Each allocates %.1f times, want 0", workers, allocs)
		}
	}
	sum := 0
	if allocs := testing.AllocsPerRun(100, func() {
		Serial(ctx, 10, func(i int) error { sum += i; return nil })
	}); allocs != 0 {
		t.Errorf("Serial with a capturing closure allocates %.1f times, want 0", allocs)
	}
}

func noop(int) error { return nil }

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
	if i, err := Each(context.Background(), 2, 2, func(i int) error {
		close(arrived[i])
		select {
		case <-arrived[1-i]:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the other call never started")
		}
	}); err != nil {
		t.Errorf("call %d: %v", i, err)
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
// already-cancelled ctx no index runs, and index 0 fails with ctx.Err().
func TestEachCancelledDispatchesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		var calls atomic.Int32
		first, err := Each(ctx, 20, workers, func(int) error {
			calls.Add(1)
			return nil
		})
		if got := calls.Load(); got != 0 {
			t.Errorf("workers=%d: %d calls under a cancelled ctx, want 0", workers, got)
		}
		if first != 0 || !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: Each = %d, %v; want 0, context.Canceled", workers, first, err)
		}
	}
}

// TestEachCancelStopsLaterIndices pins the mid-run rule on one worker: a
// cancel from inside do(k) lets do(k) finish with its own error and
// dispatches no index after k, so k+1 is the first failure.
func TestEachCancelStopsLaterIndices(t *testing.T) {
	const n, k = 10, 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	first, err := Each(ctx, n, 1, func(i int) error {
		ran = append(ran, i)
		if i == k {
			cancel()
		}
		return nil
	})
	if fmt.Sprint(ran) != "[0 1 2 3]" {
		t.Errorf("ran %v, want [0 1 2 3]", ran)
	}
	if first != k+1 || !errors.Is(err, context.Canceled) {
		t.Errorf("Each = %d, %v; want %d, context.Canceled", first, err, k+1)
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
// n ≥ workers ≥ 2, one call runs on the caller's goroutine, index 0's
// among them, and Each starts at most workers − 1 goroutines. The first
// workers calls wait for one another, so they run on workers distinct
// goroutines at once; a fan-out whose caller only waited would start
// workers goroutines for them.
func TestEachCallerIsAWorker(t *testing.T) {
	caller := goroutineID()
	for _, c := range []struct{ n, workers int }{{2, 2}, {4, 4}, {12, 3}} {
		base := runtime.NumGoroutine()
		var arrived atomic.Int32
		all := make(chan struct{})
		var mu sync.Mutex
		ran := map[uint64]bool{}
		peak := 0
		var zero uint64
		i, err := Each(context.Background(), c.n, c.workers, func(j int) error {
			mu.Lock()
			ran[goroutineID()] = true
			if j == 0 {
				zero = goroutineID()
			}
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
		if err != nil {
			t.Errorf("n=%d workers=%d: call %d: %v", c.n, c.workers, i, err)
		}
		if !ran[caller] || zero != caller {
			t.Errorf("n=%d workers=%d: index 0 ran on goroutine %d, not the caller's %d", c.n, c.workers, zero, caller)
		}
		if len(ran) != c.workers {
			t.Errorf("n=%d workers=%d: calls ran on %d goroutines, want %d", c.n, c.workers, len(ran), c.workers)
		}
		if peak > c.workers-1 {
			t.Errorf("n=%d workers=%d: %d goroutines started, want at most %d", c.n, c.workers, peak, c.workers-1)
		}
	}
}
