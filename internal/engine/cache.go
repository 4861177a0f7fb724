package engine

import "repro/internal/core"

// cacheKey identifies one memoizable search: the normalized layer shape
// (without its name — ResNet/VGG repeat shapes under different names), the
// array, and the canonical search method, so methods that run the same
// search (a baseline carrying a variant, say) share one entry. Every field
// is comparable, so the key is directly usable as a map key.
//
// The fields are narrowed to 56 bytes. A Go map copies a key larger than
// 128 bytes to the heap on every insert, and a miss inserts twice (the
// memo's in-flight and stored maps). A smaller key sits in the map's
// slots instead, and a map that LRU evictions churn keeps several slots
// per live entry, so a narrow key also keeps a full cache no larger than
// out-of-line keys made it.
type cacheKey struct {
	// dims are the layer's IW, IH, KW, KH, IC, OC, StrideW, StrideH, PadW,
	// PadH and Groups, then the array's Rows and Cols.
	dims            [13]int32
	scheme, variant uint8
}

// newCacheKey normalizes l and m and drops l's name so equal shapes
// collide. It reports false when a value does not fit its narrowed field:
// a dimension beyond int32 or an unknown method. A valid layer and array
// always fit (core.MaxLayerDim, core.MaxChannels and core.MaxArrayDim are
// far below int32's range), so only a search that core.Search rejects goes
// unkeyed, and a truncated value is never served another shape's result.
func newCacheKey(l core.Layer, a core.Array, m core.Method) (cacheKey, bool) {
	l = l.Normalized()
	m = m.Canonical()
	var k cacheKey
	for i, v := range [...]int{l.IW, l.IH, l.KW, l.KH, l.IC, l.OC, l.StrideW, l.StrideH, l.PadW, l.PadH, l.Groups, a.Rows, a.Cols} {
		if int(int32(v)) != v {
			return cacheKey{}, false
		}
		k.dims[i] = int32(v)
	}
	k.scheme, k.variant = uint8(m.Scheme), uint8(m.Variant)
	return k, k.method() == m
}

// layer rebuilds the unnamed, normalized core.Layer k was made from.
func (k cacheKey) layer() core.Layer {
	d := k.dims
	return core.Layer{IW: int(d[0]), IH: int(d[1]), KW: int(d[2]), KH: int(d[3]), IC: int(d[4]), OC: int(d[5]),
		StrideW: int(d[6]), StrideH: int(d[7]), PadW: int(d[8]), PadH: int(d[9]), Groups: int(d[10])}
}

// method rebuilds the canonical core.Method k was made from.
func (k cacheKey) method() core.Method {
	return core.Method{Scheme: core.Scheme(k.scheme), Variant: core.Variant(k.variant)}
}
