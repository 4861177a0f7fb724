// Package fanout is the one bounded fan-out of the compile stack: a map over
// independent, index-addressed units of work, joined before it returns. The
// layers of a compile or a network search, the cells of a sweep and the
// entries of a server warm-up all run through Each, so every fan-out shares
// one dispatch rule, one cancellation rule and one worker bound.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
)

// Each runs do(i) once for every i in [0, n) and returns errs, where errs[i]
// is do(i)'s error. The calls run on min(n, workers) goroutines that take
// indices from a shared atomic cursor; when that is at most one, they run
// inline on the caller's goroutine, in index order. No index is dispatched
// after ctx ends: such an index never runs, and its error is ctx.Err(). Calls
// already running stop at their own checkpoints. Each returns once every
// call has returned; what the errors mean is the caller's rule.
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
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return errs
}
