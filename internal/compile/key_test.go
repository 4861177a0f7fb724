package compile

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/model"
)

// TestKeyCanonicalizes pins the cache-key equivalences a serving layer
// relies on: default-equivalent options collide, spec shorthands collapse,
// and every dimension that changes the plan separates keys.
func TestKeyCanonicalizes(t *testing.T) {
	n := model.VGG13()
	base, err := Key(NewRequest(n, array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}

	// Explicitly spelling out the defaults must not change the key.
	m := energy.Default()
	same, err := Key(NewRequest(n, array512, Options{Scheme: VWSDK, Variant: core.VariantFull, Arrays: 1, Energy: &m}))
	if err != nil {
		t.Fatal(err)
	}
	if same != base {
		t.Errorf("defaulted options key differs:\n%s\n%s", same, base)
	}

	// The canonical spec round trip (which drops stride/pad shorthands and
	// re-derives defaults) must collide with the original network.
	data, err := model.ToJSON(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := model.FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	roundTripped, err := Key(NewRequest(back, array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if roundTripped != base {
		t.Errorf("round-tripped network key differs")
	}

	// Every option dimension must separate keys.
	for name, opts := range map[string]Options{
		"scheme":  {Scheme: SDK},
		"variant": {Variant: core.VariantSquareTiled},
		"arrays":  {Arrays: 8},
		"gated":   {GatePeripherals: true},
		"plans":   {Plans: true},
	} {
		k, err := Key(NewRequest(n, array512, opts))
		if err != nil {
			t.Fatal(err)
		}
		if k == base {
			t.Errorf("%s: key did not change", name)
		}
	}
	other, err := Key(NewRequest(model.ResNet18(), array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Error("different networks share a key")
	}

	// Groups is part of the layer identity: the same geometry grouped and
	// dense must not collide, while a dense layer written with Groups 0
	// vs 1 must (the canonical spec omits "groups" for both).
	grouped := model.Single(core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64, Groups: 4})
	dense := model.Single(core.Layer{Name: "c", IW: 14, IH: 14, KW: 3, KH: 3, IC: 64, OC: 64})
	gk, err := Key(NewRequest(grouped, array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	dk, err := Key(NewRequest(dense, array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if gk == dk {
		t.Error("grouped and dense layers share a key")
	}
	denseOne := dense
	denseOne.Layers[0].Layer.Groups = 1
	dk1, err := Key(NewRequest(denseOne, array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if dk1 != dk {
		t.Error("Groups 0 and Groups 1 dense layers mint different keys")
	}
	smaller, err := Key(NewRequest(n, core.Array{Rows: 256, Cols: 256}, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if smaller == base {
		t.Error("different arrays share a key")
	}
}

// TestKeyAllocs pins the serve-path cost of Key: with the pooled AppendKey
// buffer warm, the only allocation per call is the returned string.
func TestKeyAllocs(t *testing.T) {
	req := NewRequest(model.VGG13(), array512, Options{})
	if _, err := Key(req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Key(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("Key allocates %.1f times per call, want ≤ 1", allocs)
	}
}

// TestAppendKeyZeroAlloc pins that AppendKey itself is allocation-free once
// the destination buffer has capacity — the property the server's warm-hit
// fast path relies on.
func TestAppendKeyZeroAlloc(t *testing.T) {
	req := NewRequest(model.VGG13(), array512, Options{})
	buf, err := AppendKey(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := AppendKey(buf[:0], req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendKey allocates %.1f times per call, want 0", allocs)
	}
}

// TestKeyRejectsInvalid pins that Key fails on the same inputs Compile
// rejects instead of minting keys for uncompilable requests.
func TestKeyRejectsInvalid(t *testing.T) {
	if _, err := Key(NewRequest(model.Network{Name: "empty"}, array512, Options{})); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := Key(NewRequest(model.VGG13(), core.Array{}, Options{})); err == nil ||
		!strings.Contains(err.Error(), "array") {
		t.Errorf("zero array accepted or unclear error: %v", err)
	}
	if _, err := Key(NewRequest(model.VGG13(), array512, Options{Scheme: 9})); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Key(NewRequest(model.VGG13(), array512, Options{Arrays: MaxArrays + 1})); err == nil ||
		!strings.Contains(err.Error(), "1048577") || !strings.Contains(err.Error(), "1048576") {
		t.Errorf("array count over the limit accepted or unclear error: %v", err)
	}
}
