package compile

import (
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
)

// warmRequests are the warm compiles the allocation pins count: VGG-13@512
// with the default energy model, ungated and gated.
var warmRequests = []Request{
	NewRequest(model.VGG13(), array512, Options{}),
	NewRequest(model.VGG13(), array512, Options{GatePeripherals: true}),
}

// TestWarmCompileAllocs pins what a warm compile costs: VGG-13@512 on an
// engine that already holds every search, ungated and gated. AllocsPerRun
// runs at GOMAXPROCS 1, so the layers run inline on the caller and the
// count repeats. The 2 are the plan and its layer slice. At width one the
// layers run through fanout.Serial, whose per-layer closure stays on the
// stack; the one handed to fanout.Each, which gives it to goroutines on
// its wide path, escaped, one more allocation. The plan holds its own
// energy model, gated or not, and a fan-out of width one allocates
// nothing. Every layer is filled in place from pointers
// into the plan; a pointer into the caller's request instead moves the
// request to the heap, one more allocation per compile.
func TestWarmCompileAllocs(t *testing.T) {
	c := New(engine.New())
	for _, req := range warmRequests {
		if _, err := c.Compile(bg, req); err != nil {
			t.Fatal(err)
		}
		const limit = 2
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.Compile(bg, req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("gated=%v: a warm compile allocates %.1f times, want ≤ %d",
				req.Options.GatePeripherals, allocs, limit)
		}
	}
}

// TestWarmCompileAllocsTwoProcs pins the fan-out width rule where
// AllocsPerRun cannot see it, at GOMAXPROCS 2: a compile whose every search
// is an engine hit runs on its caller and starts no goroutine, so it costs
// the same 2 allocations as at GOMAXPROCS 1. A compile that fanned out
// would add its helper goroutine and the WaitGroup they share. Like
// AllocsPerRun, it averages by integer division: a garbage collection that
// starts during the count now and then allocates a few times on the
// runtime's behalf.
func TestWarmCompileAllocsTwoProcs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := New(engine.New())
	for _, req := range warmRequests {
		if _, err := c.Compile(bg, req); err != nil {
			t.Fatal(err)
		}
		const runs, limit = 100, 2
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := c.Compile(bg, req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if allocs := (after.Mallocs - before.Mallocs) / runs; allocs > limit {
			t.Errorf("gated=%v: a warm compile at GOMAXPROCS 2 allocates %d times, want ≤ %d",
				req.Options.GatePeripherals, allocs, limit)
		}
	}
}

// TestWarmCompileIntoAllocs pins what a warm compile costs into a plan
// whose layer slice has grown already: TestWarmCompileAllocs's count less
// the plan and its layer slice, which leaves nothing.
func TestWarmCompileIntoAllocs(t *testing.T) {
	c := New(engine.New())
	var dst NetworkPlan
	for _, req := range warmRequests {
		if err := c.CompileInto(bg, req, &dst); err != nil {
			t.Fatal(err)
		}
		const limit = 0
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.CompileInto(bg, req, &dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("gated=%v: a warm CompileInto allocates %.1f times, want ≤ %d",
				req.Options.GatePeripherals, allocs, limit)
		}
	}
}
