// Package fanout is the one bounded fan-out of the compile stack: a map over
// independent, index-addressed units of work, joined before it returns. The
// layers of a compile, the cells of a server sweep and the entries of a
// server warm-up all run through Each, so every fan-out shares one dispatch
// rule, one cancellation rule and one worker bound. The caller
// is always one of the workers: a fan-out of width w starts w − 1
// goroutines, and one of width one starts none.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
)

// Each runs do(i) once for every i in [0, n) and returns the lowest index
// whose call failed, with that call's error, or -1 and nil when none
// failed. The calls run on min(n, workers) workers that take indices from a
// shared atomic cursor: the caller's goroutine is one of them, and Each
// starts only the other min(n, workers) − 1 goroutines. The caller runs
// index 0 itself, before it takes indices from the cursor like every other
// worker, so work it began for index 0 before calling Each stays on its
// goroutine. With one worker, Each starts no goroutine and allocates
// nothing, and the calls run on the caller, in index order. No index is
// dispatched after ctx ends: such an index never runs and fails with
// ctx.Err(). Calls already running stop at their own checkpoints. Each
// returns once every call has returned; what a failure means is the
// caller's rule.
//
// Nested fan-outs cannot deadlock: the caller waits only once the cursor is
// exhausted, when every index is held by a worker that is already running it.
func Each(ctx context.Context, n, workers int, do func(i int) error) (int, error) {
	workers = min(n, workers)
	if workers <= 1 {
		return Serial(ctx, n, do)
	}
	// The goroutines share the cursor, the lowest failure and the
	// WaitGroup: one allocation, which the one-worker path above does not
	// pay for. The cursor starts past index 0, the caller's.
	shared := struct {
		next     atomic.Int64
		mu       sync.Mutex
		first    int
		firstErr error
		wg       sync.WaitGroup
	}{first: -1}
	shared.next.Store(1)
	work := func(i int) {
		for ; i < n; i = int(shared.next.Add(1)) - 1 {
			err := ctx.Err()
			if err == nil {
				err = do(i)
			}
			if err != nil {
				shared.mu.Lock()
				if shared.first < 0 || i < shared.first {
					shared.first, shared.firstErr = i, err
				}
				shared.mu.Unlock()
			}
		}
	}
	shared.wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer shared.wg.Done()
			work(int(shared.next.Add(1)) - 1)
		}()
	}
	work(0)
	shared.wg.Wait()
	return shared.first, shared.firstErr
}

// Serial is Each on one worker: it runs do(i) for every i in [0, n) on the
// caller, in index order, checks ctx before each index, and returns the
// lowest failing index with its error. Unlike Each's, its do does not
// escape, so a closure passed to Serial stays on its caller's stack, where
// one passed to Each moves to the heap because Each's wide path hands it to
// goroutines.
func Serial(ctx context.Context, n int, do func(i int) error) (int, error) {
	first, firstErr := -1, error(nil)
	for i := range n {
		err := ctx.Err()
		if err == nil {
			err = do(i)
		}
		if err != nil && first < 0 {
			first, firstErr = i, err
		}
	}
	return first, firstErr
}
