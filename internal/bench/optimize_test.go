package bench

import (
	"context"
	"testing"
)

// TestRunOptimizeOnce runs the optimize benchmark in its CI smoke
// configuration and pins the deterministic figures the -check-against gate
// relies on: the frontier shape and the memoization counters (one compile
// per (group, array, chips, gating) cell and one algorithm run per distinct
// (layer, array) pair).
func TestRunOptimizeOnce(t *testing.T) {
	rep, err := RunOptimize(context.Background(), Options{Once: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != OptimizeSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, OptimizeSchema)
	}
	if rep.Benchtime != "1x" {
		t.Errorf("benchtime = %q, want 1x", rep.Benchtime)
	}
	// 4 arrays ^ 2 groups × 2 chip counts × 2 gating settings.
	if rep.DesignPoints != 64 || rep.PointsEvaluated != 64 {
		t.Errorf("design points = %d evaluated = %d, want 64/64", rep.DesignPoints, rep.PointsEvaluated)
	}
	if rep.FrontierSize < 1 || rep.Dominated < 1 ||
		rep.FrontierSize+rep.Dominated > rep.PointsEvaluated {
		t.Errorf("implausible frontier shape: %+v", rep)
	}
	// The memoization invariants: each of the 2 groups × 4 arrays × 2 chip
	// counts × 2 gating settings = 32 cells compiles once, serving one
	// search per layer of its 2-layer group = 64 searches, and 4 distinct
	// layer shapes × 4 arrays = 16 algorithm runs answer all of them.
	if rep.SearchesServed != 64 {
		t.Errorf("searches served = %d, want 64", rep.SearchesServed)
	}
	if rep.DistinctSearches != 16 {
		t.Errorf("distinct searches = %d, want 16", rep.DistinctSearches)
	}
	if rep.SearchesServed != rep.DistinctSearches+rep.MemoizedReuses {
		t.Errorf("search counters inconsistent: served %d != distinct %d + reused %d",
			rep.SearchesServed, rep.DistinctSearches, rep.MemoizedReuses)
	}
	if rep.WarmAllocsPerRun <= 0 {
		t.Errorf("warm allocs per run = %d, want a positive count", rep.WarmAllocsPerRun)
	}
	if again, err := RunOptimize(context.Background(), Options{Once: true}); err != nil {
		t.Fatal(err)
	} else if again.WarmAllocsPerRun != rep.WarmAllocsPerRun {
		t.Errorf("warm allocs per run = %d, then %d: the count must repeat",
			rep.WarmAllocsPerRun, again.WarmAllocsPerRun)
	}
	if rep.ColdNs <= 0 || rep.WarmNsPerRun <= 0 || rep.WarmIters != 1 {
		t.Errorf("implausible timings: %+v", rep)
	}
}
