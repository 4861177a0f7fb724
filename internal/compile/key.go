package compile

import (
	"strconv"
	"sync"
)

// Key returns the canonical cache key of one compilation request: two
// requests with the same key would produce equivalent plans, so long-lived
// services can memoize Compile on it. Layer shorthands, omitted strides,
// occurrence-count and group defaults collapse, and the options are keyed
// with defaults applied, so a zero Options and an explicitly defaulted one
// collide. Key fails only on inputs Compile itself would reject.
//
// Key is on the serve hot path (vwsdkd computes one per request), so it
// builds the key with AppendKey into a pooled buffer instead of a
// json.Marshal round trip; its only steady-state allocation is the returned
// string (pinned ≤ 1 by TestKeyAllocs).
func Key(req Request) (string, error) {
	bp := keyBufPool.Get().(*[]byte)
	buf, err := AppendKey((*bp)[:0], req)
	if err != nil {
		keyBufPool.Put(bp)
		return "", err
	}
	*bp = buf // keep the grown capacity for the next request
	k := string(buf)
	keyBufPool.Put(bp)
	return k, nil
}

// keyBufPool recycles AppendKey scratch buffers across Key calls; entries
// retain whatever capacity past requests grew them to.
var keyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// AppendKey appends the canonical cache key of req to dst and returns the
// extended buffer, allocating only if dst lacks capacity. The encoding is
// injective over the canonicalized request (names are length-prefixed, every
// field is delimited) and collapses the same equivalence classes the spec
// serialization does: normalized strides, Groups 0/1, Count 0/1 and
// defaulted options all collide. It validates req exactly like Compile, so
// no key is minted for an uncompilable request.
func AppendKey(dst []byte, req Request) ([]byte, error) {
	_, en, err := req.check()
	if err != nil {
		return nil, err
	}
	dst = append(dst, "vwsdk-key/v2|"...)
	dst = appendKeyString(dst, req.Network.Name)
	for _, cl := range req.Network.Layers {
		l := cl.Layer.Normalized()
		dst = append(dst, '|')
		dst = appendKeyString(dst, l.Name)
		count := cl.Count
		if count == 0 {
			count = 1
		}
		for _, v := range [...]int{
			l.IW, l.IH, l.KW, l.KH, l.IC, l.OC,
			l.StrideW, l.StrideH, l.PadW, l.PadH,
			l.NumGroups(), count,
		} {
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
	}
	dst = append(dst, "|a="...)
	dst = strconv.AppendInt(dst, int64(req.Array.Rows), 10)
	dst = append(dst, 'x')
	dst = strconv.AppendInt(dst, int64(req.Array.Cols), 10)

	// Options with defaults applied, and the energy model Compile runs
	// under, whose GatePeripherals is the folded bit: the flag set on
	// Options and the same flag pre-set on the model collide.
	opts := req.Options
	arrays := max(opts.Arrays, 1)
	dst = append(dst, "|o="...)
	dst = strconv.AppendInt(dst, int64(opts.Scheme), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(opts.Variant), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(arrays), 10)
	dst = append(dst, ',')
	dst = appendKeyBool(dst, en.GatePeripherals)
	dst = append(dst, ',')
	dst = appendKeyBool(dst, opts.Plans)
	dst = append(dst, "|e="...)
	dst = strconv.AppendInt(dst, int64(en.TCycle), 10)
	for _, v := range [...]float64{en.EnergyDAC, en.EnergyADC, en.EnergyCellMAC, en.EnergyCellWrite} {
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return dst, nil
}

// appendKeyString appends a length-prefixed string, keeping the key
// injective for names containing the delimiter characters.
func appendKeyString(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

func appendKeyBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, '1')
	}
	return append(dst, '0')
}
