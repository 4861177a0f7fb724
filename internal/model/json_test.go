package model

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFromJSONSpec(t *testing.T) {
	spec := `{
	  "name": "TinyNet",
	  "layers": [
	    {"name": "conv1", "iw": 32, "ih": 32, "kw": 3, "kh": 3,
	     "ic": 3, "oc": 16, "stride": 1, "pad": 1},
	    {"name": "conv2", "iw": 16, "ih": 16, "kw": 3, "kh": 3,
	     "ic": 16, "oc": 32, "count": 2},
	    {"name": "conv3", "iw": 8, "ih": 8, "kw": 5, "kh": 3,
	     "ic": 32, "oc": 64, "stride_w": 2, "stride_h": 1, "pad_w": 2}
	  ]
	}`
	n, err := FromJSON([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "TinyNet" || len(n.Layers) != 3 {
		t.Fatalf("parsed %q with %d layers", n.Name, len(n.Layers))
	}
	c1 := n.Layers[0]
	if c1.Layer.PadW != 1 || c1.Layer.PadH != 1 || c1.Layer.StrideW != 1 || c1.Count != 1 {
		t.Errorf("conv1 shorthand not applied: %+v", c1)
	}
	if n.Layers[1].Count != 2 {
		t.Errorf("conv2 count = %d, want 2", n.Layers[1].Count)
	}
	c3 := n.Layers[2].Layer
	if c3.StrideW != 2 || c3.StrideH != 1 || c3.PadW != 2 || c3.PadH != 0 || c3.KW != 5 {
		t.Errorf("conv3 per-axis fields not applied: %+v", c3)
	}
}

// TestFromJSONExplicitZeroOverridesShorthand pins that a per-axis 0 beats
// the symmetric shorthand (an omitted field falls back to it).
func TestFromJSONExplicitZeroOverridesShorthand(t *testing.T) {
	spec := `{"name": "x", "layers": [
	  {"name": "c", "iw": 16, "ih": 16, "kw": 3, "kh": 3, "ic": 1, "oc": 1,
	   "pad": 1, "pad_h": 0, "stride": 2, "stride_h": 1}
	]}`
	n, err := FromJSON([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	l := n.Layers[0].Layer
	if l.PadW != 1 || l.PadH != 0 {
		t.Errorf("pad = %dx%d, want 1x0 (explicit pad_h: 0 must win)", l.PadW, l.PadH)
	}
	if l.StrideW != 2 || l.StrideH != 1 {
		t.Errorf("stride = %dx%d, want 2x1", l.StrideW, l.StrideH)
	}
}

func TestFromJSONErrors(t *testing.T) {
	// Each rejected spec must fail with an error naming the actual problem,
	// so API clients see "duplicate layer name" rather than a generic
	// validation failure.
	cases := []struct {
		name    string
		spec    string
		wantErr string
	}{
		{"malformed", `{"name": "x", "layers": [`, "parse network spec"},
		{"unknown field", `{"name": "x", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1, "bogus": 1}]}`, "bogus"},
		{"layers omitted", `{"name": "x"}`, "no layers"},
		{"layers empty", `{"name": "x", "layers": []}`, "no layers"},
		{"invalid layer", `{"name": "x", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 9, "kh": 9, "ic": 1, "oc": 1}]}`, "kernel"},
		{"negative count", `{"name": "x", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1, "count": -1}]}`, "negative count -1"},
		{"duplicate name", `{"name": "x", "layers": [
			{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1},
			{"name": "c", "iw": 16, "ih": 16, "kw": 3, "kh": 3, "ic": 1, "oc": 1}]}`, `duplicate layer name "c"`},
		{"negative groups", `{"name": "x", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 4, "groups": -2}]}`, "negative groups -2"},
		{"ic not divisible", `{"name": "x", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 5, "oc": 6, "groups": 3}]}`, "input channels 5 not divisible by groups 3"},
		{"oc not divisible", `{"name": "x", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 6, "oc": 4, "groups": 3}]}`, "output channels 4 not divisible by groups 3"},
		{"trailing brace", `{"name": "x", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1}]}}`, "trailing data"},
		{"trailing garbage", `{"name": "x", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1}]} garbage`, "trailing data"},
	}
	for _, tc := range cases {
		_, err := FromJSON([]byte(tc.spec))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// Two anonymous layers are not a duplicate: only non-empty names must be
	// unique.
	anon := `{"name": "x", "layers": [
	  {"iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1},
	  {"iw": 16, "ih": 16, "kw": 3, "kh": 3, "ic": 1, "oc": 1}]}`
	if _, err := FromJSON([]byte(anon)); err != nil {
		t.Errorf("anonymous layers rejected: %v", err)
	}
}

// TestFromJSONGroups: "groups" parses into the layer, depthwise specs work,
// and ToJSON writes the field back for grouped layers while omitting it for
// dense ones (keeping pre-groups specs byte-stable).
func TestFromJSONGroups(t *testing.T) {
	spec := `{"name": "g", "layers": [
	  {"name": "dw", "iw": 16, "ih": 16, "kw": 3, "kh": 3, "ic": 8, "oc": 8, "pad": 1, "groups": 8},
	  {"name": "dense", "iw": 16, "ih": 16, "kw": 1, "kh": 1, "ic": 8, "oc": 4}
	]}`
	n, err := FromJSON([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if g := n.Layers[0].Layer.NumGroups(); g != 8 {
		t.Fatalf("dw groups = %d, want 8", g)
	}
	if g := n.Layers[1].Layer.NumGroups(); g != 1 {
		t.Fatalf("dense groups = %d, want 1", g)
	}
	out, err := ToJSON(n)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"groups": 8`) {
		t.Errorf("grouped layer lost its groups field:\n%s", out)
	}
	if strings.Count(string(out), "groups") != 1 {
		t.Errorf("dense layer gained a groups field:\n%s", out)
	}
}

// TestResolveSpec covers the API request network reference: a JSON string is
// a zoo lookup, an object is an inline spec, anything else errors.
func TestResolveSpec(t *testing.T) {
	n, err := ResolveSpec([]byte(`"VGG-13"`))
	if err != nil || n.Name != "VGG-13" {
		t.Fatalf("zoo name: %v %q", err, n.Name)
	}
	n, err = ResolveSpec([]byte(` {"name": "t", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1}]}`))
	if err != nil || n.Name != "t" {
		t.Fatalf("inline spec: %v %q", err, n.Name)
	}
	for name, raw := range map[string]string{
		"empty":        ``,
		"blank":        `   `,
		"number":       `42`,
		"array":        `["VGG-13"]`,
		"unknown zoo":  `"LeNet-5"`,
		"bad name str": `"unterminated`,
		"invalid spec": `{"name": "t", "layers": []}`,
	} {
		if _, err := ResolveSpec([]byte(raw)); err == nil {
			t.Errorf("%s: accepted %q", name, raw)
		}
	}
}

// TestToJSONRoundTripsZoo checks every predefined network survives
// ToJSON → FromJSON with identical (normalized) geometry.
func TestToJSONRoundTripsZoo(t *testing.T) {
	for _, n := range All() {
		data, err := ToJSON(n)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: %v\n%s", n.Name, err, data)
		}
		if back.Name != n.Name || len(back.Layers) != len(n.Layers) {
			t.Fatalf("%s: round trip lost structure", n.Name)
		}
		for i := range n.Layers {
			want := n.Layers[i].Layer.Normalized()
			got := back.Layers[i].Layer.Normalized()
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: %+v != %+v", n.Name, want.Name, got, want)
			}
			if back.Layers[i].Count != n.Layers[i].Count {
				t.Errorf("%s/%s: count %d != %d", n.Name, want.Name,
					back.Layers[i].Count, n.Layers[i].Count)
			}
		}
	}
}

// specOf is the spec ToJSON marshalled through encoding/json before
// AppendSpec: the oracle AppendSpec and ToJSON are held to.
func specOf(n Network) jsonNetwork {
	spec := jsonNetwork{Name: n.Name}
	for _, cl := range n.Layers {
		l := cl.Layer.Normalized()
		jl := jsonLayer{Name: l.Name, IW: l.IW, IH: l.IH, KW: l.KW, KH: l.KH, IC: l.IC, OC: l.OC}
		if l.StrideW == l.StrideH {
			if l.StrideW != 1 {
				jl.Stride = l.StrideW
			}
		} else {
			sw, sh := l.StrideW, l.StrideH
			jl.StrideW, jl.StrideH = &sw, &sh
		}
		if l.PadW == l.PadH {
			jl.Pad = l.PadW
		} else {
			pw, ph := l.PadW, l.PadH
			jl.PadW, jl.PadH = &pw, &ph
		}
		if l.NumGroups() > 1 {
			jl.Groups = l.NumGroups()
		}
		if cl.Count != 1 {
			jl.Count = cl.Count
		}
		spec.Layers = append(spec.Layers, jl)
	}
	return spec
}

// TestAppendSpecMatchesMarshal holds AppendSpec to json.Marshal of the
// spec, and ToJSON to json.MarshalIndent of it, over the zoo, random
// networks with names that need escaping, and layers with per-axis strides
// and padding, groups and counts.
func TestAppendSpecMatchesMarshal(t *testing.T) {
	nets := All()
	for seed, name := range []string{"plain", "<>&", `"q"`, `a\b`, "\x01", "\xff", "\u2028", "réseau"} {
		n := Random(uint64(seed), 1+seed%4)
		n.Name, n.Layers[0].Name = name, name+"-conv"
		nets = append(nets, n)
	}
	odd := Single(core.Layer{Name: "odd", IW: 9, IH: 7, KW: 3, KH: 2, IC: 8, OC: 4, StrideW: 2, StrideH: 1, PadW: 1, PadH: 0, Groups: 4})
	odd.Layers = append(odd.Layers,
		ConvLayer{Layer: core.Layer{Name: "even", IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: 4, StrideW: 2, StrideH: 2, PadW: 1, PadH: 1}, Count: 2},
		ConvLayer{Layer: core.Layer{Name: "zero", IW: 8, IH: 8, KW: 1, KH: 1, IC: 4, OC: 4}})
	nets = append(nets, odd, Network{Name: "empty"})
	for _, n := range nets {
		want, err := json.Marshal(specOf(n))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendSpec(nil, n); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendSpec differs from json.Marshal:\ngot  %s\nwant %s", n.Name, got, want)
		}
		if n.Validate() != nil {
			continue
		}
		indented, err := json.MarshalIndent(specOf(n), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ToJSON(n); err != nil || !bytes.Equal(got, append(indented, '\n')) {
			t.Errorf("%s: ToJSON differs from json.MarshalIndent (%v):\ngot  %s\nwant %s", n.Name, err, got, indented)
		}
	}
}

func TestFromJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	data, err := ToJSON(VGG13())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := FromJSONFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "VGG-13" || len(n.Layers) != 10 {
		t.Errorf("loaded %q with %d layers", n.Name, len(n.Layers))
	}
	if _, err := FromJSONFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The error names the file, and the package once: FromJSON's error
	// already carries the "model:" prefix.
	if _, err := FromJSONFile(bad); err == nil || !strings.Contains(err.Error(), "bad.json") ||
		strings.Count(err.Error(), "model:") != 1 {
		t.Errorf("parse error should name the file and the package once, got %v", err)
	}
}

func TestSingle(t *testing.T) {
	l := core.Layer{Name: "conv", IW: 8, IH: 8, KW: 3, KH: 3, IC: 2, OC: 2}
	n := Single(l)
	if n.Name != "conv" || len(n.Layers) != 1 || n.Layers[0].Count != 1 {
		t.Fatalf("Single = %+v", n)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if Single(core.Layer{IW: 8, IH: 8, KW: 3, KH: 3, IC: 1, OC: 1}).Name != "layer" {
		t.Error("unnamed layer should default the network name")
	}
}
