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

// Each runs do(i) once for every i in [0, n) and returns errs, where errs[i]
// is do(i)'s error. The calls run on min(n, workers) workers that take
// indices from a shared atomic cursor: the caller's goroutine is one of
// them, and Each starts only the other min(n, workers) − 1 goroutines. With
// one worker, no goroutine is started and the calls run on the caller, in
// index order. No index is dispatched after ctx ends: such an index never
// runs, and its error is ctx.Err(). Calls already running stop at their own
// checkpoints. Each returns once every call has returned; what the errors
// mean is the caller's rule.
//
// Nested fan-outs cannot deadlock: the caller waits only once the cursor is
// exhausted, when every index is held by a worker that is already running it.
func Each(ctx context.Context, n, workers int, do func(i int) error) []error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if errs[i] = ctx.Err(); errs[i] == nil {
				errs[i] = do(i)
			}
		}
	}
	workers = min(n, workers)
	if workers <= 1 {
		work()
		return errs
	}
	// The WaitGroup is declared only here: the goroutines share it, so it
	// lives on the heap, which the one-worker path does not pay for.
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return errs
}
