package compile

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestCompileRecordsSpanTree pins the compile pipeline's span shape — the
// provenance contract the server freezes onto plan-cache entries: one
// "compile" root carrying the network attributes and the fan-out width, one
// "layer" span per network layer, and search/schedule/energy/plan children
// inside each.
func TestCompileRecordsSpanTree(t *testing.T) {
	tr := obs.New("test")
	ctx := obs.NewContext(context.Background(), tr)
	net := model.Single(core.Layer{Name: "l0", IW: 14, IH: 14, KW: 3, KH: 3, IC: 16, OC: 16}.Normalized())
	if _, err := New(core.Serial{}).Compile(ctx, NewRequest(net, core.Array{Rows: 128, Cols: 128}, Options{Plans: true})); err != nil {
		t.Fatal(err)
	}

	comp := obs.Find(tr.Tree(), "compile")
	if comp == nil {
		t.Fatal("no compile span recorded")
	}
	if comp.Attrs["network"] != net.Name || comp.Attrs["layers"] != int64(1) || comp.Attrs["workers"] != int64(1) {
		t.Errorf("compile attrs = %v", comp.Attrs)
	}
	layer := obs.Find(comp.Children, "layer")
	if layer == nil {
		t.Fatalf("no layer span under compile: %+v", comp)
	}
	if layer.Attrs["name"] != "l0" {
		t.Errorf("layer attrs = %v", layer.Attrs)
	}
	for _, phase := range []string{"search", "schedule", "energy", "plan"} {
		if obs.Find(layer.Children, phase) == nil {
			t.Errorf("layer span missing %q child (have %+v)", phase, layer.Children)
		}
	}
	// The per-phase durations the server's histograms consume must be
	// reachable through DurationByName.
	sums := []obs.NameSum{{Name: "search"}, {Name: "schedule"}, {Name: "energy"}, {Name: "plan"}}
	tr.DurationByName(sums)
	for _, sum := range sums {
		if sum.Spans != 1 {
			t.Errorf("DurationByName found %d %q spans, want 1: %+v", sum.Spans, sum.Name, sums)
		}
	}

	// "workers" is the width the compile used. On an engine, a cold
	// two-layer compile fans out to one worker per search to compute (at
	// most GOMAXPROCS), and the same compile again, every search a hit,
	// runs on its caller.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	c := New(engine.New())
	for _, want := range []int64{2, 1} {
		tr := obs.New("test")
		if _, err := c.Compile(obs.NewContext(context.Background(), tr), NewRequest(twoLayers, array512, Options{})); err != nil {
			t.Fatal(err)
		}
		if comp := obs.Find(tr.Tree(), "compile"); comp == nil || comp.Attrs["workers"] != want {
			t.Errorf("compile span on an engine %+v, want workers = %d", comp, want)
		}
	}
}

// TestCompileDisabledTraceNoSpans checks an untraced context records
// nothing anywhere — the disabled no-op fast path.
func TestCompileDisabledTraceNoSpans(t *testing.T) {
	net := model.Single(core.Layer{Name: "l0", IW: 14, IH: 14, KW: 3, KH: 3, IC: 16, OC: 16}.Normalized())
	if _, err := New(core.Serial{}).Compile(context.Background(), NewRequest(net, core.Array{Rows: 128, Cols: 128}, Options{})); err != nil {
		t.Fatal(err)
	}
}
