package compile

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestNetworkPlanJSONGolden pins the serialized form of VGG-13 compiled on
// the paper's 512×512 array against a committed golden file, and checks the
// full round trip: ToJSON → FromJSON must reproduce identical totals (and
// per-layer cycle decisions). Regenerate with go test ./internal/compile
// -run Golden -update.
func TestNetworkPlanJSONGolden(t *testing.T) {
	c := New(core.Serial{})
	p, err := c.Compile(context.Background(), NewRequest(model.VGG13(), array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "vgg13_512_plan.golden.json")
	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("serialized plan differs from %s; run with -update after intentional changes", golden)
	}

	// Round trip from the golden bytes: identical totals and decisions.
	back, err := FromJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	if back.Totals != p.Totals {
		t.Errorf("round-tripped totals differ:\ngot  %+v\nwant %+v", back.Totals, p.Totals)
	}
	if back.Network.Name != p.Network.Name || len(back.Layers) != len(p.Layers) {
		t.Fatalf("round-tripped structure differs: %s/%d layers", back.Network.Name, len(back.Layers))
	}
	for i := range p.Layers {
		if back.Layers[i].Search.Best != p.Layers[i].Search.Best {
			t.Errorf("layer %d: round-tripped mapping differs", i)
		}
		if back.Layers[i].Schedule != p.Layers[i].Schedule {
			t.Errorf("layer %d: round-tripped schedule differs", i)
		}
		if back.Layers[i].Energy != p.Layers[i].Energy {
			t.Errorf("layer %d: round-tripped energy report differs", i)
		}
	}
}

// TestFromJSONRejectsCorruptTotals pins that deserialization re-validates
// the totals against the per-layer entries.
func TestFromJSONRejectsCorruptTotals(t *testing.T) {
	c := New(core.Serial{})
	p, err := c.Compile(context.Background(), NewRequest(model.Single(core.Layer{
		Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64}), array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	p.Totals.Cycles++ // corrupt
	data, err := p.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromJSON(data); err == nil {
		t.Error("corrupt totals accepted")
	}
	if _, err := FromJSON([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestCheckPlan pins the check a store entry or a peer's reply passes: the
// compact plan is accepted under its own key, with its totals, and
// rejected under any other key, in any other form (the indented golden),
// with totals inconsistent with its layers and with a mapping the cost
// model does not derive for its layer, even where the totals agree.
func TestCheckPlan(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "vgg13_512_plan.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromJSON(golden)
	if err != nil {
		t.Fatal(err)
	}
	data, err := AppendPlan(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	own, err := Key(NewRequest(model.VGG13(), array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if totals, err := CheckPlan(data, own); err != nil {
		t.Errorf("plan rejected under its own key: %v", err)
	} else if totals != p.Totals {
		t.Errorf("CheckPlan totals %+v, want %+v", totals, p.Totals)
	}
	other, err := Key(NewRequest(model.AlexNet(), array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckPlan(data, other); err == nil {
		t.Error("plan accepted under another request's key")
	}
	if _, err := CheckPlan(golden, own); err == nil {
		t.Error("indented plan accepted")
	}
	tampered := bytes.Replace(data, []byte(`"Totals":{"Cycles":`), []byte(`"Totals":{"Cycles":9`), 1)
	if _, err := CheckPlan(tampered, own); err == nil {
		t.Error("plan with inconsistent totals accepted")
	}

	// A malformed mapping is refused by both readers, without a panic:
	// the first VW-SDK window 4×3 patched to one of no area, to the same
	// area or kernel copies in another shape (in the best mapping alone,
	// and in the schedule's copy of it too); the first layer's grid patched
	// to 2^30 row tiles, which a per-tile sum would walk (in the best
	// mapping, and in the schedule's copy of it too); that copy alone
	// patched to 2 row tiles, which no total reads; the first layer's 3
	// input channels a tile patched to 1 and its 64 output channels to 32
	// (in the best mapping and the schedule's copy); and an SDK mapping's
	// layer with no output channels, which the tile counts would otherwise
	// divide by.
	sdk, err := New(core.Serial{}).Compile(context.Background(), NewRequest(model.VGG13(), array512, Options{Scheme: SDK}))
	if err != nil {
		t.Fatal(err)
	}
	sdkData, err := AppendPlan(nil, sdk)
	if err != nil {
		t.Fatal(err)
	}
	sdkKey, err := Key(sdk.Request)
	if err != nil {
		t.Fatal(err)
	}
	type patch struct {
		data, old, new []byte
		n              int
		key            string
	}
	patches := []patch{
		{data, []byte(`"AR":1,`), []byte(`"AR":1073741824,`), 1, own},
		{data, []byte(`"AR":1,"AC":1,"Cycles":6216}`), []byte(`"AR":1073741824,"AC":1,"Cycles":6216}`), 2, own},
		{data, []byte(`"AR":1,"AC":1,"Cycles":6216},"Arrays"`), []byte(`"AR":2,"AC":1,"Cycles":6216},"Arrays"`), 1, own},
		{data, []byte(`"ICt":3,"OCt":64,"RowGranular":false`), []byte(`"ICt":1,"OCt":64,"RowGranular":false`), 2, own},
		{data, []byte(`"ICt":3,"OCt":64,"RowGranular":false`), []byte(`"ICt":3,"OCt":32,"RowGranular":false`), 2, own},
		{sdkData, []byte(`"OC":64,"StrideW":1`), []byte(`"OC":0,"StrideW":1`), 1, sdkKey},
	}
	for _, w := range []string{`{"W":0,"H":0}`, `{"W":2,"H":6}`, `{"W":12,"H":1}`, `{"W":3,"H":4}`} {
		for _, n := range []int{1, 2} {
			patches = append(patches, patch{data, []byte(`"PW":{"W":4,"H":3}`), []byte(`"PW":` + w), n, own})
		}
	}
	for _, tc := range patches {
		patched := bytes.Replace(tc.data, tc.old, tc.new, tc.n)
		if bytes.Count(tc.data, tc.old) < tc.n {
			t.Fatalf("fewer than %d of %s in the plan", tc.n, tc.old)
		}
		if _, err := CheckPlan(patched, tc.key); err == nil {
			t.Errorf("%s (%d): CheckPlan accepted the plan", tc.new, tc.n)
		}
		if _, err := FromJSON(patched); err == nil {
			t.Errorf("%s (%d): FromJSON accepted the plan", tc.new, tc.n)
		}
	}

	// A layer plan changed together with the totals it gives, so that no
	// totals check can refuse it: the first layer's best mapping and the
	// schedule's copy with 2 row tiles of 1 input channel at its old
	// cycles, its im2col baseline labelled SMD without duplication, which
	// has the same grid and cycles, and its layer counted twice.
	for i, change := range []func(lp *LayerPlan){
		func(lp *LayerPlan) {
			lp.Search.Best.AR, lp.Search.Best.ICt = 2, 1
			lp.Schedule.Mapping = lp.Search.Best
		},
		func(lp *LayerPlan) { lp.Search.Im2col.Scheme = core.SchemeSMD },
		func(lp *LayerPlan) { lp.Layer.Count++ },
	} {
		q, err := FromJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		change(&q.Layers[0])
		q.Totals = totals(q.Layers)
		patched, err := AppendPlan(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CheckPlan(patched, own); err == nil {
			t.Errorf("change %d: CheckPlan accepted the plan", i)
		}
		if _, err := FromJSON(patched); err == nil {
			t.Errorf("change %d: FromJSON accepted the plan", i)
		}
	}
}
