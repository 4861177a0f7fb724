package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestEngineSearchCancelled pins that a cancelled context stops an engine
// search before any work is scheduled: the search errors with
// context.Canceled, nothing is cached, and no candidates are costed.
func TestEngineSearchCancelled(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}
	a := core.Array{Rows: 256, Cols: 256}
	if _, err := e.Search(ctx, l, a, core.MethodVWSDK); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := e.Stats()
	if st.CachedResults != 0 || st.CandidatesCosted != 0 {
		t.Errorf("cancelled search left work behind: %+v", st)
	}
	// The same engine still serves the search under a live context, and the
	// result is the serial one.
	res, err := e.Search(context.Background(), l, a, core.MethodVWSDK)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SearchVWSDK(l, a)
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Error("post-cancel search differs from serial")
	}
}

// TestEngineCancelledSearchNotCached pins that a cancellation surfacing from
// inside a running search (here: forced via the pre-cancelled slot path on a
// fully occupied pool) never poisons the cache for later callers.
func TestEngineCancelledSearchNotCached(t *testing.T) {
	e := New(WithWorkers(1))
	e.sem <- struct{}{} // the pool is busy; acquiring a slot must block
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := core.Layer{Name: "c", IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: 4}
	a := core.Array{Rows: 64, Cols: 64}
	if _, err := e.Search(ctx, l, a, core.MethodVWSDK); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (slot wait abandoned)", err)
	}
	<-e.sem
	if st := e.Stats(); st.CachedResults != 0 {
		t.Errorf("cancelled search was cached: %+v", st)
	}
	if _, err := e.Search(context.Background(), l, a, core.MethodVWSDK); err != nil {
		t.Fatalf("engine unusable after cancelled search: %v", err)
	}
}

// TestSweepCancelledBeforeStart pins the trivial dispatch checkpoint: a
// sweep entered with a cancelled context schedules nothing — every cell
// carries the context error and the engine's search counter stays at zero.
func TestSweepCancelledBeforeStart(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := e.Sweep(ctx, []model.Network{model.VGG13(), model.ResNet18()},
		[]core.Array{{Rows: 256, Cols: 256}}, nil)
	if len(cells) != 2 {
		t.Fatalf("got %d cells", len(cells))
	}
	for i, c := range cells {
		if !errors.Is(c.Err, context.Canceled) {
			t.Errorf("cell %d: err = %v, want context.Canceled", i, c.Err)
		}
	}
	if st := e.Stats(); st.Searches != 0 {
		t.Errorf("cancelled sweep scheduled %d searches, want 0", st.Searches)
	}
}

// TestSweepStopsSchedulingAfterCancel is the deterministic mid-sweep cancel:
// on a single-worker engine (cells run inline, in input order) the test hook
// cancels the context just before cell 2 is dispatched. Cells 0 and 1 must
// have completed normally, cells 2+ must carry context.Canceled, and the
// engine must not have scheduled any search for them.
func TestSweepStopsSchedulingAfterCancel(t *testing.T) {
	e := New(WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.sweepCellHook = func(i int) {
		if i == 2 {
			cancel()
		}
	}
	networks := []model.Network{model.ResNet18()}
	arrays := []core.Array{
		{Rows: 128, Cols: 128}, {Rows: 256, Cols: 256},
		{Rows: 512, Cols: 512}, {Rows: 1024, Cols: 1024},
	}
	searchesBefore := e.Stats().Searches
	cells := e.Sweep(ctx, networks, arrays, nil)
	searchesAt2 := e.Stats().Searches

	for i, c := range cells[:2] {
		if c.Err != nil {
			t.Errorf("completed cell %d: %v", i, c.Err)
		}
		want, err := core.SearchNetwork(networks[0].CoreLayers(), arrays[i])
		if err != nil {
			t.Fatal(err)
		}
		if c.Result.TotalCycles != want.TotalCycles {
			t.Errorf("cell %d: cycles %d, want %d", i, c.Result.TotalCycles, want.TotalCycles)
		}
	}
	for i, c := range cells[2:] {
		if !errors.Is(c.Err, context.Canceled) {
			t.Errorf("cell %d: err = %v, want context.Canceled", i+2, c.Err)
		}
		if c.Result.Results != nil {
			t.Errorf("cancelled cell %d carries results", i+2)
		}
	}
	// No further searches were scheduled after the cancel: the counter did
	// not move past the two completed cells' layer searches.
	layers := len(networks[0].Layers)
	if got, want := searchesAt2-searchesBefore, uint64(2*layers); got != want {
		t.Errorf("searches after cancel = %d, want %d (2 cells × %d layers)", got, want, layers)
	}
}

// TestSweepCancelParallelDispatch covers the multi-worker dispatcher under
// -race: a context cancelled by the hook partway through a larger sweep must
// leave every cell either fully computed or carrying a context error, never
// scheduling new cells after the cancel settles.
func TestSweepCancelParallelDispatch(t *testing.T) {
	e := New(WithWorkers(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.sweepCellHook = func(i int) {
		if i == 4 {
			cancel()
		}
	}
	networks := []model.Network{model.VGG13(), model.ResNet18()}
	arrays := []core.Array{{Rows: 128, Cols: 128}, {Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}}
	variants := []core.Variant{core.VariantFull, core.VariantSquareTiled}
	cells := e.Sweep(ctx, networks, arrays, variants)
	if len(cells) != 12 {
		t.Fatalf("got %d cells", len(cells))
	}
	var done, cancelled int
	for i, c := range cells {
		switch {
		case c.Err == nil:
			done++
			if c.Result.TotalCycles <= 0 {
				t.Errorf("cell %d: completed with cycles %d", i, c.Result.TotalCycles)
			}
		case errors.Is(c.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("cell %d: unexpected error %v", i, c.Err)
		}
	}
	if cancelled == 0 {
		t.Error("no cell observed the cancellation")
	}
	t.Logf("12 cells: %d done, %d cancelled", done, cancelled)
}
