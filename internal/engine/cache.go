package engine

import "repro/internal/core"

// searchKind discriminates the cached search families. Variant searches are
// keyed by the variant itself; VariantFull shares the VW-SDK entry because
// SearchVariant(VariantFull) is defined as SearchVWSDK.
type searchKind uint8

const (
	kindVWSDK searchKind = iota
	kindSDK
	kindSMD
	kindVariant
)

// cacheKey identifies one memoizable search: the normalized layer shape
// (name cleared — ResNet/VGG repeat shapes under different names), the
// array, and which search ran. VariantFull never appears as a kindVariant
// key: Engine.SearchVariant routes it to SearchVWSDK, whose kindVWSDK entry
// it shares by definition. core.Layer and core.Array are comparable
// structs, so the key is directly usable as a map key.
type cacheKey struct {
	layer   core.Layer
	array   core.Array
	kind    searchKind
	variant core.Variant
}

// newCacheKey normalizes l and strips its name so equal shapes collide.
func newCacheKey(l core.Layer, a core.Array, kind searchKind, v core.Variant) cacheKey {
	l = l.Normalized()
	l.Name = ""
	return cacheKey{layer: l, array: a, kind: kind, variant: v}
}
