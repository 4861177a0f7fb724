package engine

import "repro/internal/core"

// cacheKey identifies one memoizable search: the normalized layer shape
// (name cleared — ResNet/VGG repeat shapes under different names), the
// array, and the canonical search method, so methods that run the same
// search (a baseline carrying a variant, say) share one entry. core.Layer,
// core.Array and core.Method are comparable structs, so the key is directly
// usable as a map key.
type cacheKey struct {
	layer  core.Layer
	array  core.Array
	method core.Method
}

// newCacheKey normalizes l and m and strips l's name so equal shapes collide.
func newCacheKey(l core.Layer, a core.Array, m core.Method) cacheKey {
	l = l.Normalized()
	l.Name = ""
	return cacheKey{layer: l, array: a, method: m.Canonical()}
}
