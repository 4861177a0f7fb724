package optimize

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

const exampleSpec = "../../examples/designspaces/tinynet.json"

func TestFromJSONExample(t *testing.T) {
	s, err := FromJSONFile(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "tinynet-codesign" || s.Network.Name != "TinyNet" {
		t.Fatalf("unexpected names: %q / %q", s.Name, s.Network.Name)
	}
	wantArrays := []core.Array{{Rows: 64, Cols: 64}, {Rows: 128, Cols: 128}, {Rows: 256, Cols: 256}, {Rows: 512, Cols: 512}}
	if len(s.Arrays) != len(wantArrays) {
		t.Fatalf("got %d arrays, want %d", len(s.Arrays), len(wantArrays))
	}
	for i, a := range wantArrays {
		if s.Arrays[i] != a {
			t.Errorf("array %d = %v, want %v", i, s.Arrays[i], a)
		}
	}
	if n, err := s.Points(); err != nil || n != 16 {
		t.Fatalf("Points() = %d, %v; want 16", n, err)
	}
}

func TestFromJSONZooAndDefaults(t *testing.T) {
	s, err := FromJSON([]byte(`{"network": "VGG-13", "arrays": [{"rows": 512, "cols": 512}, "256x256", "256x256"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Network.Name != "VGG-13" {
		t.Fatalf("network = %q, want VGG-13", s.Network.Name)
	}
	// Defaults applied, arrays deduplicated and sorted.
	if len(s.Arrays) != 2 || s.Arrays[0] != (core.Array{Rows: 256, Cols: 256}) {
		t.Fatalf("arrays = %v", s.Arrays)
	}
	if len(s.Chips) != 1 || s.Chips[0] != 1 || len(s.Gating) != 1 || s.Gating[0] || s.Groups != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

func TestFromJSONErrors(t *testing.T) {
	cases := map[string]string{
		"no network":       `{"arrays": ["64x64"]}`,
		"no arrays":        `{"network": "VGG-13"}`,
		"empty arrays":     `{"network": "VGG-13", "arrays": []}`,
		"bad array":        `{"network": "VGG-13", "arrays": ["64by64"]}`,
		"zero array":       `{"network": "VGG-13", "arrays": ["0x64"]}`,
		"bad chips":        `{"network": "VGG-13", "arrays": ["64x64"], "chips": [0]}`,
		"chips over limit": `{"network": "VGG-13", "arrays": ["64x64"], "chips": [1048577]}`,
		"too many groups":  `{"network": "VGG-13", "arrays": ["64x64"], "layer_groups": 99}`,
		"unknown field":    `{"network": "VGG-13", "arrays": ["64x64"], "bogus": 1}`,
		"unknown zoo":      `{"network": "NoSuchNet", "arrays": ["64x64"]}`,
		"point explosion":  `{"network": "VGG-13", "arrays": ["1x1","2x2","3x3","4x4","5x5","6x6","7x7","8x8"], "layer_groups": 5}`,
		"trailing brace":   `{"network": "VGG-13", "arrays": ["64x64"]}}`,
		"trailing garbage": `{"network": "VGG-13", "arrays": ["64x64"]} garbage`,
	}
	for name, spec := range cases {
		if _, err := FromJSON([]byte(spec)); err == nil {
			t.Errorf("%s: accepted %s", name, spec)
		}
	}
}

// TestFromJSONFileErrors checks a bad design-space file's error names the
// file, and the package once: FromJSON's error already carries the
// "optimize:" prefix.
func TestFromJSONFileErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"arrays": ["64x64"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := FromJSONFile(bad)
	if err == nil || !strings.Contains(err.Error(), "bad.json") || strings.Count(err.Error(), "optimize:") != 1 {
		t.Errorf("parse error should name the file and the package once, got %v", err)
	}
}

func TestToJSONFixedPoint(t *testing.T) {
	data, err := os.ReadFile(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := s.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := FromJSON(out1)
	if err != nil {
		t.Fatalf("reparse serialized space: %v", err)
	}
	out2, err := s2.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatalf("ToJSON not a fixed point:\n%s\nvs\n%s", out1, out2)
	}
}

// TestNormalizeLeavesCallerAxes pins that the calls taking a space by value
// normalize copies of its axes: a DesignSpace copy shares its Arrays, Chips
// and Gating backing arrays with the caller, who must not see them sorted
// or deduplicated underneath.
func TestNormalizeLeavesCallerAxes(t *testing.T) {
	calls := []struct {
		name string
		call func(DesignSpace) error
	}{
		{"Normalize", func(s DesignSpace) error { s.Normalize(); return nil }},
		{"Designs", func(s DesignSpace) error { Designs(s); return nil }},
		{"ToJSON", func(s DesignSpace) error { _, err := s.ToJSON(); return err }},
		{"Run", func(s DesignSpace) error { _, err := New(nil).Run(context.Background(), s, nil); return err }},
	}
	for _, c := range calls {
		s, err := FromJSONFile(exampleSpec)
		if err != nil {
			t.Fatal(err)
		}
		s.Arrays = []core.Array{{Rows: 128, Cols: 128}, {Rows: 128, Cols: 128}, {Rows: 64, Cols: 64}}
		s.Chips = []int{4, 1, 4}
		s.Gating = []bool{true, false, true}
		arrays, chips, gating := slices.Clone(s.Arrays), slices.Clone(s.Chips), slices.Clone(s.Gating)
		if err := c.call(s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(s.Arrays, arrays) || !slices.Equal(s.Chips, chips) || !slices.Equal(s.Gating, gating) {
			t.Errorf("%s rewrote the caller's axes: arrays %v chips %v gating %v", c.name, s.Arrays, s.Chips, s.Gating)
		}
	}
}

// TestNormalizeCanonicalAllocs pins that normalizing a space that is
// already canonical keeps its axes and allocates nothing: one /v1/optimize
// request normalizes its space in FromJSON, Run and Designs.
func TestNormalizeCanonicalAllocs(t *testing.T) {
	s := exampleSpace(t)
	s.Groups = 2
	if allocs := testing.AllocsPerRun(100, func() {
		c := s
		c.Normalize()
		if &c.Arrays[0] != &s.Arrays[0] || &c.Chips[0] != &s.Chips[0] || &c.Gating[0] != &s.Gating[0] {
			t.Fatal("Normalize copied an axis that was already canonical")
		}
	}); allocs != 0 {
		t.Errorf("normalizing a canonical space allocates %.0f times, want 0", allocs)
	}
}

func TestLayerGroups(t *testing.T) {
	s, err := FromJSONFile(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	for groups := 1; groups <= len(s.Network.Layers); groups++ {
		s.Groups = groups
		parts := s.LayerGroups()
		if len(parts) != groups {
			t.Fatalf("groups=%d: got %d parts", groups, len(parts))
		}
		var total int
		for _, p := range parts {
			if len(p) == 0 {
				t.Fatalf("groups=%d: empty group", groups)
			}
			total += len(p)
		}
		if total != len(s.Network.Layers) {
			t.Fatalf("groups=%d: %d layers covered of %d", groups, total, len(s.Network.Layers))
		}
		// Contiguity: concatenating the parts reproduces the layer order.
		i := 0
		for _, p := range parts {
			for _, cl := range p {
				if cl.Name != s.Network.Layers[i].Name {
					t.Fatalf("groups=%d: layer %d is %q, want %q", groups, i, cl.Name, s.Network.Layers[i].Name)
				}
				i++
			}
		}
	}
}

// FuzzDesignSpaceFromJSON proves the design-space parser is total: every
// accepted spec is one valid JSON document (nothing follows its value),
// round-trips through ToJSON to a fixed point, and has a point count in
// range.
func FuzzDesignSpaceFromJSON(f *testing.F) {
	data, err := os.ReadFile(exampleSpec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(data))
	f.Add(`{"network": "VGG-13", "arrays": ["512x512"]}`)
	f.Add(`{"network": "VGG-13", "arrays": ["512x512"]}}`)
	f.Add(`{"network": "VGG-13", "arrays": ["64x64", "512x512"], "chips": [1, 2, 4], "gating": [true], "layer_groups": 2}`)
	f.Add(`{"arrays": []}`)
	f.Add(`{"network": {"name": "x"}, "arrays": ["64x64"]}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := FromJSON([]byte(in))
		if err != nil {
			return
		}
		if !json.Valid([]byte(in)) {
			t.Fatalf("accepted a spec that is not one JSON document: %q", in)
		}
		// Accepted specs round-trip to a fixed point.
		out1, err := s.ToJSON()
		if err != nil {
			t.Fatalf("accepted spec fails ToJSON: %v\ninput: %s", err, in)
		}
		s2, err := FromJSON(out1)
		if err != nil {
			t.Fatalf("serialized space rejected: %v\n%s", err, out1)
		}
		out2, err := s2.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("not a fixed point:\n%s\nvs\n%s", out1, out2)
		}
		if n, err := s.Points(); err != nil || n < 1 || n > MaxPoints {
			t.Fatalf("accepted space has bad point count %d, %v", n, err)
		}
	})
}

// TestParseArrayRef pins the "arrays" forms FromJSON accepts: exactly the
// forms /v1/compile accepts for its "array", through the one parser.
func TestParseArrayRef(t *testing.T) {
	space := func(ref string) []byte {
		return []byte(`{"network": "VGG-13", "arrays": [` + ref + `]}`)
	}
	for _, bad := range []string{`""`, `"x"`, `"64x"`, `"ax b"`, `"512x512junk"`, `"64x64x9"`,
		`[1,2]`, `true`, `{"rows": 64, "cols": 64, "x": 1}`} {
		if s, err := FromJSON(space(bad)); err == nil {
			t.Errorf("FromJSON accepted array %s as %v", bad, s.Arrays)
		}
	}
	for ref, want := range map[string]core.Array{
		`"128x64"`:                 {Rows: 128, Cols: 64},
		`"64"`:                     {Rows: 64, Cols: 64},
		`{"rows": 32, "cols": 16}`: {Rows: 32, Cols: 16},
	} {
		s, err := FromJSON(space(ref))
		if err != nil || len(s.Arrays) != 1 || s.Arrays[0] != want {
			t.Errorf("FromJSON array %s = %v, %v; want [%v]", ref, s.Arrays, err, want)
		}
	}
}
