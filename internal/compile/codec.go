package compile

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/model"
)

// AppendPlan appends the compact JSON encoding of p to dst and returns the
// extended buffer, allocating only if dst lacks capacity. The bytes are
// exactly what encoding/json's Encoder writes for p, trailing newline
// included: fields in struct order with the embedded Request and
// core.Layer fields promoted, Groups omitted when 0, LayerPlan.Plan
// skipped, null for a nil Energy or slice, encoding/json's float format
// and its HTML-safe string escaping. Like encoding/json, it fails on a
// NaN or infinite float.
//
// AppendPlan is the one plan encoder: Encode and ToJSON wrap it, and
// FromJSON's fast path runs the same field walk backwards.
func AppendPlan(dst []byte, p *NetworkPlan) ([]byte, error) {
	c := planCodec{buf: dst}
	c.plan(p)
	if c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// decodePlan is FromJSON's fast path: one pass over data in the form
// AppendPlan writes. It reports false when data is in any other form —
// whitespace, an escaped string, another key order, a non-canonical
// number — and then the caller must decode with encoding/json instead. It
// accepts data only when AppendPlan of the decoded plan reproduces data
// byte for byte, so it never accepts an input, or decodes one to a value,
// that encoding/json would not.
func decodePlan(data []byte) (*NetworkPlan, bool) {
	p := new(NetworkPlan)
	c := planCodec{buf: data, dec: true}
	c.plan(p)
	if c.err != nil || c.pos != len(data) {
		return nil, false
	}
	bp := planBufPool.Get().(*[]byte)
	defer planBufPool.Put(bp)
	enc, err := AppendPlan(slices.Grow((*bp)[:0], len(data)), p)
	if err != nil {
		return nil, false
	}
	*bp = enc // keep the grown capacity for the next plan
	if !bytes.Equal(enc, data) {
		return nil, false
	}
	return p, true
}

// planBufPool recycles AppendPlan scratch buffers across Encode calls and
// decodePlan's re-encoding; entries retain whatever capacity past plans
// grew them to.
var planBufPool = sync.Pool{New: func() any { return new([]byte) }}

// errNotCanonical stops a decoding walk at the first value it cannot read.
var errNotCanonical = errors.New("compile: plan bytes not in canonical form")

// planCodec runs the plan's field walk in one of two directions. Encoding,
// it appends each literal and value to buf; decoding, it reads each value
// from buf where encoding would have written it, and stops at the first
// value it cannot read. One walk drives both directions, so the encoder and
// the decoder cannot drift apart.
//
// Every walk method takes the key literal before its value, separators
// included, so decoding steps over a key in one move.
type planCodec struct {
	buf []byte
	pos int
	dec bool
	err error

	// last is the last string decoded, or the name the next layer plan most
	// likely carries; a layer's name repeats in its layer plan and each of
	// its mappings, so an equal string reuses it instead of allocating.
	last string
}

// lit writes s, or steps over it in the input. Decoding does not compare
// the skipped bytes: decodePlan re-encodes the plan and compares every byte
// of it with the input, literals included, before it uses the plan.
func (c *planCodec) lit(s string) {
	if !c.dec {
		c.buf = append(c.buf, s...)
	} else if c.err == nil && len(c.buf)-c.pos >= len(s) {
		c.pos += len(s)
	} else {
		c.fail()
	}
}

// opt is lit for an optional literal: encoding writes s when present, and
// decoding consumes s when the input holds it next. It reports whether s
// was written or consumed.
func (c *planCodec) opt(s string, present bool) bool {
	if !c.dec {
		if present {
			c.buf = append(c.buf, s...)
		}
		return present
	}
	if !c.has(s) {
		return false
	}
	c.pos += len(s)
	return true
}

// has reports whether a decode still in progress reads s next.
func (c *planCodec) has(s string) bool {
	return c.err == nil && len(c.buf)-c.pos >= len(s) && string(c.buf[c.pos:c.pos+len(s)]) == s
}

func (c *planCodec) fail() {
	if c.err == nil {
		c.err = errNotCanonical
	}
}

// null writes null for a nil value, or consumes a null, and reports
// whether it did; the caller walks the value otherwise.
func (c *planCodec) null(isNil bool) bool { return c.opt("null", isNil) }

// next walks the punctuation before array element i of n: the opening
// bracket before the first element and a comma before every later one. It
// reports false, after the closing bracket, when the array ends; n is
// consulted only when encoding.
func (c *planCodec) next(i, n int) bool {
	if i == 0 {
		c.lit("[")
	}
	if c.opt("]", i == n) || c.err != nil {
		return false
	}
	if i > 0 {
		c.lit(",")
	}
	return c.err == nil
}

// grow returns element i of *s, first appending a zero element when
// decoding.
func grow[T any](c *planCodec, s *[]T, i int) *T {
	if c.dec {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[i]
}

// num64 walks key and an integer value.
func (c *planCodec) num64(key string, v *int64) {
	c.lit(key)
	if !c.dec {
		c.buf = strconv.AppendInt(c.buf, *v, 10)
		return
	}
	if c.err != nil {
		return
	}
	i := c.pos
	neg := i < len(c.buf) && c.buf[i] == '-'
	if neg {
		i++
	}
	// 19 digits fit a uint64; the sign bit's worth of range is checked after.
	start := i
	var n uint64
	for ; i < len(c.buf) && '0' <= c.buf[i] && c.buf[i] <= '9'; i++ {
		n = n*10 + uint64(c.buf[i]-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if i == start || i-start > 19 || n > limit {
		c.fail()
		return
	}
	c.pos = i
	*v = int64(n)
	if neg {
		*v = -*v
	}
}

// num is num64 for an int; the decoded value's re-encoding catches an int
// too wide for the platform.
func (c *planCodec) num(key string, v *int) {
	x := int64(*v)
	c.num64(key, &x)
	if c.dec {
		*v = int(x)
	}
}

// real walks key and a float in encoding/json's format (AppendJSONFloat).
func (c *planCodec) real(key string, v *float64) {
	c.lit(key)
	if c.dec {
		if c.err != nil {
			return
		}
		i := c.pos
		for i < len(c.buf) && isNumberByte(c.buf[i]) {
			i++
		}
		f, err := strconv.ParseFloat(string(c.buf[c.pos:i]), 64)
		if err != nil {
			c.fail()
			return
		}
		c.pos = i
		*v = f
		return
	}
	var err error
	if c.buf, err = AppendJSONFloat(c.buf, *v); err != nil && c.err == nil {
		c.err = err
	}
}

// AppendJSONFloat appends f in encoding/json's float64 format: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 with a one-digit
// negative exponent unpadded. Like encoding/json, it fails on a NaN or
// infinite float, with the same error, and then appends nothing. It is
// the one copy of that rule, shared by AppendPlan and the optimize stream.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

func isNumberByte(b byte) bool {
	return '0' <= b && b <= '9' || b == '-' || b == '+' || b == '.' || b == 'e' || b == 'E'
}

// flag walks key and a boolean.
func (c *planCodec) flag(key string, v *bool) {
	c.lit(key)
	switch {
	case !c.dec && *v:
		c.buf = append(c.buf, "true"...)
	case !c.dec:
		c.buf = append(c.buf, "false"...)
	case c.opt("true", false):
		*v = true
	case !c.opt("false", false):
		c.fail()
	}
}

// text walks key and a string. Encoding writes a string that needs no
// escape as is and hands any other to encoding/json; decoding gives up on
// any escape.
func (c *planCodec) text(key string, v *string) {
	c.lit(key)
	if !c.dec {
		c.buf = AppendJSONString(c.buf, *v)
		return
	}
	if !c.has(`"`) {
		c.fail()
		return
	}
	raw := c.buf[c.pos+1:]
	end := bytes.IndexByte(raw, '"')
	if end < 0 || bytes.IndexByte(raw[:end], '\\') >= 0 {
		c.fail()
		return
	}
	if string(raw[:end]) != c.last {
		c.last = string(raw[:end])
	}
	*v = c.last
	c.pos += end + 2
}

// AppendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it by default (HTML-safe). It is the one copy of that rule,
// shared by AppendPlan and the optimize stream.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// The field walk: one method per serialized type, fields in struct order.
// Each method walks its value from the opening brace; the caller walks the
// key before it.

func (c *planCodec) plan(p *NetworkPlan) {
	c.lit(`{"Network":`)
	c.network(&p.Network)
	c.lit(`,"Array":`)
	c.array(&p.Array)
	c.lit(`,"Options":`)
	c.options(&p.Options)
	c.lit(`,"Layers":`)
	if !c.null(p.Layers == nil) {
		if c.dec {
			p.Layers = make([]LayerPlan, 0, len(p.Network.Layers))
		}
		for i := 0; c.next(i, len(p.Layers)); i++ {
			if c.dec && i < len(p.Network.Layers) {
				c.last = p.Network.Layers[i].Name // most likely this layer's name
			}
			c.layerPlan(grow(c, &p.Layers, i))
		}
	}
	c.lit(`,"Totals":`)
	c.totals(&p.Totals)
	c.lit("}\n")
}

func (c *planCodec) network(n *model.Network) {
	c.text(`{"Name":`, &n.Name)
	c.lit(`,"Layers":`)
	if !c.null(n.Layers == nil) {
		if c.dec {
			n.Layers = []model.ConvLayer{}
		}
		for i := 0; c.next(i, len(n.Layers)); i++ {
			c.convLayer(grow(c, &n.Layers, i))
		}
	}
	c.lit("}")
}

func (c *planCodec) options(o *Options) {
	c.num(`{"Scheme":`, (*int)(&o.Scheme))
	c.num(`,"Variant":`, (*int)(&o.Variant))
	c.num(`,"Arrays":`, &o.Arrays)
	c.lit(`,"Energy":`)
	if !c.null(o.Energy == nil) {
		if c.dec {
			o.Energy = new(energy.Model)
		}
		c.model(o.Energy)
	}
	c.flag(`,"GatePeripherals":`, &o.GatePeripherals)
	c.flag(`,"Plans":`, &o.Plans)
	c.lit("}")
}

func (c *planCodec) model(m *energy.Model) {
	c.num64(`{"TCycle":`, (*int64)(&m.TCycle))
	c.real(`,"EnergyDAC":`, &m.EnergyDAC)
	c.real(`,"EnergyADC":`, &m.EnergyADC)
	c.real(`,"EnergyCellMAC":`, &m.EnergyCellMAC)
	c.real(`,"EnergyCellWrite":`, &m.EnergyCellWrite)
	c.flag(`,"GatePeripherals":`, &m.GatePeripherals)
	c.lit("}")
}

func (c *planCodec) layerPlan(lp *LayerPlan) {
	c.lit(`{"Layer":`)
	c.convLayer(&lp.Layer)
	c.lit(`,"Search":`)
	c.result(&lp.Search)
	c.lit(`,"Schedule":`)
	c.schedule(&lp.Schedule)
	c.lit(`,"Energy":`)
	c.report(&lp.Energy)
	c.lit("}")
}

func (c *planCodec) convLayer(l *model.ConvLayer) {
	c.layerFields(&l.Layer)
	c.num(`,"Count":`, &l.Count)
	c.lit("}")
}

// layerFields walks core.Layer's fields and leaves the object open, so
// model.ConvLayer can promote them and follow with its own.
func (c *planCodec) layerFields(l *core.Layer) {
	c.text(`{"Name":`, &l.Name)
	c.num(`,"IW":`, &l.IW)
	c.num(`,"IH":`, &l.IH)
	c.num(`,"KW":`, &l.KW)
	c.num(`,"KH":`, &l.KH)
	c.num(`,"IC":`, &l.IC)
	c.num(`,"OC":`, &l.OC)
	c.num(`,"StrideW":`, &l.StrideW)
	c.num(`,"StrideH":`, &l.StrideH)
	c.num(`,"PadW":`, &l.PadW)
	c.num(`,"PadH":`, &l.PadH)
	if c.opt(`,"Groups":`, l.Groups != 0) {
		c.num("", &l.Groups)
	}
}

func (c *planCodec) array(a *core.Array) {
	c.num(`{"Rows":`, &a.Rows)
	c.num(`,"Cols":`, &a.Cols)
	c.lit("}")
}

func (c *planCodec) result(r *core.Result) {
	c.lit(`{"Best":`)
	c.mapping(&r.Best)
	c.lit(`,"Im2col":`)
	c.mapping(&r.Im2col)
	c.num(`,"Evaluated":`, &r.Evaluated)
	c.num(`,"Swept":`, &r.Swept)
	c.lit("}")
}

func (c *planCodec) mapping(m *core.Mapping) {
	c.lit(`{"Layer":`)
	c.layerFields(&m.Layer)
	c.lit(`},"Array":`)
	c.array(&m.Array)
	c.num(`,"Scheme":`, (*int)(&m.Scheme))
	c.lit(`,"PW":`)
	c.window(&m.PW)
	c.num(`,"NwW":`, &m.NwW)
	c.num(`,"NwH":`, &m.NwH)
	c.num(`,"Dup":`, &m.Dup)
	c.num(`,"ICt":`, &m.ICt)
	c.num(`,"OCt":`, &m.OCt)
	c.flag(`,"RowGranular":`, &m.RowGranular)
	c.flag(`,"ColGranular":`, &m.ColGranular)
	c.num(`,"NPW":`, &m.NPW)
	c.num(`,"AR":`, &m.AR)
	c.num(`,"AC":`, &m.AC)
	c.num64(`,"Cycles":`, &m.Cycles)
	c.lit("}")
}

func (c *planCodec) window(w *core.Window) {
	c.num(`{"W":`, &w.W)
	c.num(`,"H":`, &w.H)
	c.lit("}")
}

func (c *planCodec) schedule(s *chip.LayerSchedule) {
	c.lit(`{"Mapping":`)
	c.mapping(&s.Mapping)
	c.num(`,"Arrays":`, &s.Arrays)
	c.num(`,"Tiles":`, &s.Tiles)
	c.num(`,"Replicas":`, &s.Replicas)
	c.num(`,"Rounds":`, &s.Rounds)
	c.num64(`,"Makespan":`, &s.Makespan)
	c.num(`,"Programs":`, &s.Programs)
	c.real(`,"BusyFraction":`, &s.BusyFraction)
	c.lit("}")
}

func (c *planCodec) report(r *energy.Report) {
	c.num64(`{"Cycles":`, &r.Cycles)
	c.num64(`,"DACConversions":`, &r.DACConversions)
	c.num64(`,"ADCConversions":`, &r.ADCConversions)
	c.num64(`,"CellMACCycles":`, &r.CellMACCycles)
	c.num64(`,"CellWrites":`, &r.CellWrites)
	c.num64(`,"Latency":`, (*int64)(&r.Latency))
	c.real(`,"EnergyDAC":`, &r.EnergyDAC)
	c.real(`,"EnergyADC":`, &r.EnergyADC)
	c.real(`,"EnergyCompute":`, &r.EnergyCompute)
	c.real(`,"EnergyProgram":`, &r.EnergyProgram)
	c.real(`,"EnergyTotal":`, &r.EnergyTotal)
	c.lit("}")
}

func (c *planCodec) totals(t *Totals) {
	c.num64(`{"Cycles":`, &t.Cycles)
	c.num64(`,"Im2colCycles":`, &t.Im2colCycles)
	c.real(`,"Speedup":`, &t.Speedup)
	c.num64(`,"Makespan":`, &t.Makespan)
	c.num(`,"Programs":`, &t.Programs)
	c.real(`,"Utilization":`, &t.Utilization)
	c.lit(`,"Energy":`)
	c.report(&t.Energy)
	c.lit("}")
}
