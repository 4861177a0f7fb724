package model

import (
	"bytes"
	"encoding/json"
	"os"
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
