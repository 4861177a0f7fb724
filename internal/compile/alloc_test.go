package compile

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
)

// TestWarmCompileAllocs pins what a warm compile costs: VGG-13@512 on an
// engine that already holds every search. AllocsPerRun runs at GOMAXPROCS
// 1, so the layers run inline on the caller and the count repeats. The 7
// are the plan, its layer slice and its normalized energy model, the
// per-layer closure, and the fan-out's error slice, cursor and worker
// closure. Every layer is filled in place from pointers into the plan; a
// pointer into the caller's request instead moves the request to the heap,
// one more allocation per compile.
func TestWarmCompileAllocs(t *testing.T) {
	c := New(engine.New())
	req := NewRequest(model.VGG13(), array512, Options{})
	if _, err := c.Compile(bg, req); err != nil {
		t.Fatal(err)
	}
	const limit = 7
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Compile(bg, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("a warm compile allocates %.1f times, want ≤ %d", allocs, limit)
	}
}
