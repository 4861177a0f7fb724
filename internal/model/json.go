package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/cliutil"
	"repro/internal/core"
)

// The JSON network spec format lets arbitrary user CNNs — not just the
// predefined zoo — be compiled. A spec is an object with a "name" and a
// "layers" array; each layer gives the IFM size, kernel, channel counts and
// optionally stride, padding and an occurrence count:
//
//	{
//	  "name": "TinyNet",
//	  "layers": [
//	    {"name": "conv1", "iw": 32, "ih": 32, "kw": 3, "kh": 3,
//	     "ic": 3, "oc": 16, "stride": 1, "pad": 1},
//	    {"name": "conv2", "iw": 16, "ih": 16, "kw": 3, "kh": 3,
//	     "ic": 16, "oc": 32, "count": 2}
//	  ]
//	}
//
// "stride" and "pad" set both axes at once; "stride_w"/"stride_h" and
// "pad_w"/"pad_h" set them individually and win over the shorthand. Omitted
// stride defaults to 1, omitted padding to 0, omitted count to 1. "groups"
// declares a grouped convolution (depthwise when it equals "ic"); it
// defaults to 1 (dense) and "ic"/"oc" must both be divisible by it. Unknown
// fields are rejected so typos fail loudly.

// jsonNetwork is the on-disk network spec.
type jsonNetwork struct {
	Name   string      `json:"name"`
	Layers []jsonLayer `json:"layers"`
}

// jsonLayer is one layer entry of the spec. The per-axis fields are
// pointers so an explicit 0 (e.g. "pad_h": 0 overriding "pad": 1) is
// distinguishable from an omitted field.
type jsonLayer struct {
	Name    string `json:"name"`
	IW      int    `json:"iw"`
	IH      int    `json:"ih"`
	KW      int    `json:"kw"`
	KH      int    `json:"kh"`
	IC      int    `json:"ic"`
	OC      int    `json:"oc"`
	Stride  int    `json:"stride,omitempty"`
	StrideW *int   `json:"stride_w,omitempty"`
	StrideH *int   `json:"stride_h,omitempty"`
	Pad     int    `json:"pad,omitempty"`
	PadW    *int   `json:"pad_w,omitempty"`
	PadH    *int   `json:"pad_h,omitempty"`
	Groups  int    `json:"groups,omitempty"`
	Count   int    `json:"count,omitempty"`
}

// axis returns the per-axis override when present, the shorthand otherwise.
func axis(override *int, shorthand int) int {
	if override != nil {
		return *override
	}
	return shorthand
}

// FromJSON parses a network spec (see the format above) and validates it.
// The decode is strict (cliutil.DecodeStrict): an unknown field, or anything
// but whitespace after the spec's object, is an error. Beyond the per-layer
// geometry checks, the spec itself must be well formed: at least one layer,
// no duplicate (non-empty) layer names, and no negative occurrence counts.
func FromJSON(data []byte) (Network, error) {
	var spec jsonNetwork
	if err := cliutil.DecodeStrict(data, &spec); err != nil {
		return Network{}, fmt.Errorf("model: parse network spec: %w", err)
	}
	if len(spec.Layers) == 0 {
		return Network{}, fmt.Errorf("model: network spec %q has no layers", spec.Name)
	}
	seen := make(map[string]bool, len(spec.Layers))
	n := Network{Name: spec.Name}
	for _, jl := range spec.Layers {
		if jl.Name != "" && seen[jl.Name] {
			return Network{}, fmt.Errorf("model: network spec %q: duplicate layer name %q", spec.Name, jl.Name)
		}
		seen[jl.Name] = true
		if jl.Count < 0 {
			return Network{}, fmt.Errorf("model: network spec %q: layer %q: negative count %d", spec.Name, jl.Name, jl.Count)
		}
		sw := axis(jl.StrideW, jl.Stride)
		sh := axis(jl.StrideH, jl.Stride)
		pw := axis(jl.PadW, jl.Pad)
		ph := axis(jl.PadH, jl.Pad)
		count := jl.Count
		if count == 0 {
			count = 1
		}
		n.Layers = append(n.Layers, ConvLayer{
			Layer: core.Layer{
				Name: jl.Name,
				IW:   jl.IW, IH: jl.IH,
				KW: jl.KW, KH: jl.KH,
				IC: jl.IC, OC: jl.OC,
				StrideW: sw, StrideH: sh,
				PadW: pw, PadH: ph,
				Groups: jl.Groups,
			},
			Count: count,
		})
	}
	if err := n.Validate(); err != nil {
		return Network{}, err
	}
	return n, nil
}

// FromJSONFile reads and parses a network spec file. A parse error is
// FromJSON's, which names the package, prefixed with the path.
func FromJSONFile(path string) (Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Network{}, fmt.Errorf("model: read network spec: %w", err)
	}
	n, err := FromJSON(data)
	if err != nil {
		return Network{}, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

// ToJSON serializes a network as a spec FromJSON accepts, indented: the
// json.Indent of AppendSpec's bytes, with a trailing newline.
func ToJSON(n Network) ([]byte, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, AppendSpec(nil, n), "", "  "); err != nil {
		return nil, fmt.Errorf("model: indent network spec: %w", err)
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}

// AppendSpec appends n to dst as a compact spec FromJSON accepts, exactly
// the bytes json.Marshal writes for it, and returns the extended buffer. It
// writes the symmetric "stride"/"pad" shorthands when both axes agree, and
// omits a stride of 1, a padding of 0, "groups" for a dense layer and a
// count of 1, so a spec and everything keyed on it read as they did before
// groups. It is the one spec encoder: ToJSON indents its bytes, and the
// server writes the network of a peer hop with it.
func AppendSpec(dst []byte, n Network) []byte {
	dst = cliutil.AppendJSONString(append(dst, `{"name":`...), n.Name)
	if n.Layers == nil {
		return append(dst, `,"layers":null}`...)
	}
	dst = append(dst, `,"layers":[`...)
	for i, cl := range n.Layers {
		if i > 0 {
			dst = append(dst, ',')
		}
		l := cl.Layer.Normalized()
		dst = cliutil.AppendJSONString(append(dst, `{"name":`...), l.Name)
		dst = appendSpecInt(dst, `,"iw":`, l.IW)
		dst = appendSpecInt(dst, `,"ih":`, l.IH)
		dst = appendSpecInt(dst, `,"kw":`, l.KW)
		dst = appendSpecInt(dst, `,"kh":`, l.KH)
		dst = appendSpecInt(dst, `,"ic":`, l.IC)
		dst = appendSpecInt(dst, `,"oc":`, l.OC)
		switch {
		case l.StrideW != l.StrideH:
			dst = appendSpecInt(dst, `,"stride_w":`, l.StrideW)
			dst = appendSpecInt(dst, `,"stride_h":`, l.StrideH)
		case l.StrideW != 1 && l.StrideW != 0:
			dst = appendSpecInt(dst, `,"stride":`, l.StrideW)
		}
		switch {
		case l.PadW != l.PadH:
			dst = appendSpecInt(dst, `,"pad_w":`, l.PadW)
			dst = appendSpecInt(dst, `,"pad_h":`, l.PadH)
		case l.PadW != 0:
			dst = appendSpecInt(dst, `,"pad":`, l.PadW)
		}
		if g := l.NumGroups(); g > 1 {
			dst = appendSpecInt(dst, `,"groups":`, g)
		}
		if cl.Count != 1 && cl.Count != 0 {
			dst = appendSpecInt(dst, `,"count":`, cl.Count)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendSpecInt appends key and the integer v.
func appendSpecInt(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// ResolveSpec resolves a network reference as it appears in an API request:
// a JSON string names a predefined zoo network ("VGG-13"), a JSON object is
// an inline spec in the FromJSON format. Anything else is an error.
func ResolveSpec(raw []byte) (Network, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return Network{}, fmt.Errorf("model: empty network reference")
	}
	switch trimmed[0] {
	case '"':
		// A zoo name is read in place; any other string is decoded, and
		// ByName names what it is not.
		if name, ok := cliutil.PlainString(trimmed); ok {
			if n, ok := byName(name); ok {
				return n, nil
			}
		}
		var name string
		if err := json.Unmarshal(trimmed, &name); err != nil {
			return Network{}, fmt.Errorf("model: parse network name: %w", err)
		}
		return ByName(name)
	case '{':
		return FromJSON(trimmed)
	default:
		return Network{}, fmt.Errorf("model: network reference must be a zoo name string or an inline spec object")
	}
}

// Single wraps one layer as a one-layer network (count 1), the form the
// compile pipeline consumes.
func Single(l core.Layer) Network {
	name := l.Name
	if name == "" {
		name = "layer"
	}
	return Network{Name: name, Layers: []ConvLayer{{Layer: l, Count: 1}}}
}
