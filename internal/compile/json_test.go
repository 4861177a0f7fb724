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
// rejected under any other key, in any other form (the indented golden)
// and with totals inconsistent with its layers.
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

	// A malformed mapping must not panic the check: a VW-SDK window of no
	// area, and an SDK mapping's layer with no output channels, which the
	// tile counts would otherwise divide by. The check agrees with FromJSON.
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
	for _, tc := range []struct {
		data, old, new []byte
		key            string
	}{
		{data, []byte(`"PW":{"W":4,"H":3}`), []byte(`"PW":{"W":0,"H":0}`), own},
		{sdkData, []byte(`"OC":64,"StrideW":1`), []byte(`"OC":0,"StrideW":1`), sdkKey},
	} {
		patched := bytes.Replace(tc.data, tc.old, tc.new, 1)
		if bytes.Equal(patched, tc.data) {
			t.Fatalf("no %s in the plan", tc.old)
		}
		_, err := CheckPlan(patched, tc.key)
		if _, ferr := FromJSON(patched); (err == nil) != (ferr == nil) {
			t.Errorf("%s: CheckPlan error %v, FromJSON error %v", tc.new, err, ferr)
		}
	}
}
