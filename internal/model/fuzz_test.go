package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// FuzzFromJSON proves the spec parser is total: arbitrary bytes never panic,
// every accepted spec is one valid JSON document (nothing follows its
// value), and every accepted spec round-trips — ToJSON re-serializes it
// into a canonical form that FromJSON accepts again and that is a fixed
// point of another ToJSON pass. Seeds include the repository's example spec
// plus the syntax corners the parser discriminates on.
func FuzzFromJSON(f *testing.F) {
	for _, example := range []string{
		"../../examples/networks/tinynet.json",
		"../../examples/networks/mobile.json", // grouped + depthwise layers
	} {
		if data, err := os.ReadFile(example); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"name": "n", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1}]}`))
	f.Add([]byte(`{"name": "n", "layers": [{"name": "dw", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 4, "groups": 4}]}`))
	f.Add([]byte(`{"name": "n", "layers": [{"name": "g", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 6, "oc": 4, "groups": 2}]}`))
	f.Add([]byte(`{"name": "n", "layers": [{"iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1, "stride_w": 2, "pad_h": 1, "count": 3}]}`))
	f.Add([]byte(`{"name": "n", "layers": [{"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 1, "oc": 1}]}}`))
	f.Add([]byte(`{"name": "n", "layers": []}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := FromJSON(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a spec that is not one JSON document: %q", data)
		}
		out, err := ToJSON(n)
		if err != nil {
			t.Fatalf("accepted spec failed to re-serialize: %v\ninput: %q", err, data)
		}
		back, err := FromJSON(out)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanonical: %s", err, out)
		}
		out2, err := ToJSON(back)
		if err != nil {
			t.Fatalf("canonical form failed to re-serialize: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("ToJSON not a fixed point:\nfirst:  %s\nsecond: %s", out, out2)
		}
	})
}

// decodedSpec is ResolveSpec with every string decoded by json.Unmarshal
// and looked up by ByName, the reading the in-place fast path must agree
// with.
func decodedSpec(raw []byte) (Network, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 || trimmed[0] != '"' {
		return ResolveSpec(raw)
	}
	var name string
	if err := json.Unmarshal(trimmed, &name); err != nil {
		return Network{}, fmt.Errorf("model: parse network name: %w", err)
	}
	return ByName(name)
}

// FuzzResolveSpec holds ResolveSpec's in-place reading of a zoo name to
// json.Unmarshal and ByName: the same network, or the same error text, for
// every zoo name, escaped names, unknown names, invalid UTF-8, control
// bytes and trailing bytes.
func FuzzResolveSpec(f *testing.F) {
	for _, z := range zoo {
		f.Add([]byte(`"` + z.name + `"`))
	}
	for _, seed := range []string{
		`"VGG\u002d13"`, ` "AlexNet"` + "\n", `"vgg-13"`, `"nope"`, `"VGG-13 "`, "\"VGG-13\xff\"",
		"\"\xc3\x28\"", "\"tab\there\"", `"VGG-13"x`, `"VGG-13`, `""`, `"\"VGG-13\""`,
		`{"name": "n", "layers": []}`, `42`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := ResolveSpec(raw)
		want, wantErr := decodedSpec(raw)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ResolveSpec(%q) = %q, %v; decoded reading %q, %v", raw, got.Name, err, want.Name, wantErr)
		}
	})
}

// TestResolveSpecAllocs pins that a plain zoo name is read in place: a
// reference costs what ByName's build does, one allocation, where
// json.Unmarshal into a string added three.
func TestResolveSpecAllocs(t *testing.T) {
	for _, z := range zoo {
		raw := []byte(`"` + z.name + `"`)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := ResolveSpec(raw); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Errorf("ResolveSpec(%s) allocates %.0f times, want at most 1", raw, allocs)
		}
	}
}
