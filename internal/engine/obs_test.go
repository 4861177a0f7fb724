package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestSearchSpans pins the engine's per-search span contract: every memoized
// search records one "engine.search" span whose outcome attribute
// distinguishes cache hits from computed misses, with the chosen search path
// and candidate count attached to the compute.
func TestSearchSpans(t *testing.T) {
	e := New()
	l := core.Layer{Name: "probe", IW: 14, IH: 14, KW: 3, KH: 3, IC: 16, OC: 16}.Normalized()
	a := core.Array{Rows: 128, Cols: 128}

	tr := obs.New("test")
	ctx := obs.NewContext(context.Background(), tr)
	if _, err := e.Search(ctx, l, a, core.MethodVWSDK); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(ctx, l, a, core.MethodVWSDK); err != nil {
		t.Fatal(err)
	}

	nodes := tr.Tree()
	var spans []*obs.Node
	for _, n := range nodes {
		if n.Name == "engine.search" {
			spans = append(spans, n)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("recorded %d engine.search spans, want 2: %+v", len(spans), nodes)
	}
	miss, hit := spans[0], spans[1]
	if miss.Attrs["outcome"] != "miss" || miss.Attrs["layer"] != "probe" {
		t.Errorf("first search attrs = %v, want outcome=miss", miss.Attrs)
	}
	// Every VW-SDK search runs the closed-form walk.
	if miss.Attrs["path"] != core.PathClosedForm {
		t.Errorf("path = %v, want %q", miss.Attrs["path"], core.PathClosedForm)
	}
	if n, ok := miss.Attrs["candidates"].(int64); !ok || n <= 0 {
		t.Errorf("candidates = %v, want > 0", miss.Attrs["candidates"])
	}
	if hit.Attrs["outcome"] != "hit" {
		t.Errorf("second search attrs = %v, want outcome=hit", hit.Attrs)
	}

	// A strided depthwise layer (MobileNet-V2 dw2_1) takes the same path:
	// every VW-SDK search runs the closed form.
	dw := core.Layer{Name: "dw2_1", IW: 112, IH: 112, KW: 3, KH: 3, IC: 96, OC: 96,
		StrideW: 2, StrideH: 2, PadW: 1, PadH: 1, Groups: 96}
	tr = obs.New("test")
	if _, err := e.Search(obs.NewContext(context.Background(), tr), dw, a, core.MethodVWSDK); err != nil {
		t.Fatal(err)
	}
	sp := obs.Find(tr.Tree(), "engine.search")
	if sp == nil || sp.Attrs["outcome"] != "miss" {
		t.Fatalf("dw2_1 engine.search span = %+v, want a miss", sp)
	}
	if sp.Attrs["path"] != core.PathClosedForm {
		t.Errorf("dw2_1 path = %v, want %q", sp.Attrs["path"], core.PathClosedForm)
	}

	// The other methods: SDK and the ablations run the same closed-form
	// class walk, and im2col and SMD are baselines.
	for m, want := range map[core.Method]string{
		{Scheme: core.SchemeVWSDK, Variant: core.VariantSquareTiled}:     core.PathClosedForm,
		{Scheme: core.SchemeVWSDK, Variant: core.VariantRectFullChannel}: core.PathClosedForm,
		{Scheme: core.SchemeSDK}:    core.PathClosedForm,
		{Scheme: core.SchemeIm2col}: "baseline",
		{Scheme: core.SchemeSMD}:    "baseline",
	} {
		tr = obs.New("test")
		if _, err := e.Search(obs.NewContext(context.Background(), tr), l, a, m); err != nil {
			t.Fatal(err)
		}
		if sp := obs.Find(tr.Tree(), "engine.search"); sp == nil || sp.Attrs["path"] != want {
			t.Errorf("%v: engine.search span = %+v, want path %q", m, sp, want)
		}
	}
}
