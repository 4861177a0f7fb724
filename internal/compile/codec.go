package compile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/chip"
	"repro/internal/cliutil"
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
// FromJSON's fast path and CheckPlan run the same field walk backwards.
func AppendPlan(dst []byte, p *NetworkPlan) ([]byte, error) {
	c := planCodec{buf: dst}
	c.plan(p)
	if c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// decode runs the field walk backwards over data into p and reports
// whether data is exactly what AppendPlan writes for the plan it decodes
// to. The walk compares every literal in place and reads only the numbers
// and strings AppendPlan writes, so it accepts an input, and decodes it to
// a value, only where encoding/json would too. Into a plan that an earlier
// decode filled, it reuses the layer slices and every name the two plans
// share; every field is overwritten. spans, when not nil, is space the walk
// records where it read each network layer in, so that a layer plan whose
// layer repeats those bytes, as in every plan a compile makes, copies the
// network layer instead of reading it again.
func (p *NetworkPlan) decode(data []byte, spans *[]int) bool {
	c := planCodec{buf: data, dec: true, spans: spans}
	if spans != nil {
		*spans = (*spans)[:0]
	}
	c.plan(p)
	return c.err == nil && c.pos == len(data)
}

// decodePlan is FromJSON's fast path: it decodes data into a new plan and
// reports false when data is in any other form than AppendPlan's —
// whitespace, another key order, a non-canonical number or string — and
// then the caller must decode with encoding/json instead.
func decodePlan(data []byte) (*NetworkPlan, bool) {
	p := new(NetworkPlan)
	return p, p.decode(data, nil)
}

// CheckPlan checks a plan that arrives from outside the process, a store
// entry or a peer's reply, and returns its totals. It accepts exactly the
// bytes AppendPlan writes for a plan that Validate accepts (the mappings
// the cost model derives for its layers, totals consistent with them) and
// whose own request has the canonical key key, so bytes filed or sent
// under the wrong key are rejected, never served. It has no encoding/json
// fallback: bytes in any other form are an error.
//
// CheckPlan runs FromJSON's walk into pooled scratch space, so it builds no
// plan: it allocates only for what the scratch space does not already
// hold, such as more layers or other names than the plans it checked
// before. It is safe for concurrent use.
func CheckPlan(data []byte, key string) (Totals, error) {
	sc := checkPool.Get().(*checkScratch)
	defer checkPool.Put(sc)
	p := &sc.plan
	if !p.decode(data, &sc.spans) {
		return Totals{}, errNotCanonical
	}
	if err := p.Validate(); err != nil {
		return Totals{}, err
	}
	buf, err := AppendKey(sc.key[:0], p.Request)
	if err != nil {
		return Totals{}, fmt.Errorf("compile: key the plan: %w", err)
	}
	sc.key = buf // keep the grown capacity for the next check
	if string(buf) != key {
		return Totals{}, fmt.Errorf("compile: plan for %s is not the plan for the requested key", p.Network.Name)
	}
	return p.Totals, nil
}

// checkScratch is one CheckPlan's working space: the plan it decodes into,
// where it read the network layers, and the key it derives.
type checkScratch struct {
	plan  NetworkPlan
	spans []int
	key   []byte
}

var checkPool = sync.Pool{New: func() any { return new(checkScratch) }}

// errNotCanonical stops a decoding walk at the first value it cannot read.
var errNotCanonical = errors.New("compile: plan bytes not in canonical form")

// planCodec runs the plan's field walk in one of two directions. Encoding,
// it appends each literal and value to buf; decoding, it reads each value
// from buf where encoding would have written it, compares each literal in
// place, and stops at the first byte encoding would not have written there.
// One walk drives both directions, so the encoder and the decoder cannot
// drift apart.
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

	// best and layer are the input a decode read the last search's best
	// mapping and the last mapping's layer from, and layerOf is that layer;
	// conv is the input of the network layer the next layer plan most
	// likely repeats, and convOf that layer.
	best, layer, conv []byte
	layerOf           *core.Layer
	convOf            *model.ConvLayer

	// spans, when not nil, holds where each network layer was read, as
	// start and end offsets.
	spans *[]int
}

// lit writes s, or steps over it in the input after comparing it there.
func (c *planCodec) lit(s string) {
	if !c.dec {
		c.buf = append(c.buf, s...)
	} else if c.has(s) {
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

// repeat reports whether a decode reads span, the input an earlier value
// was read from, next, and then steps over it: the caller copies that value
// instead of reading it again. span ends with the value's closing brace, so
// the input it prefixes holds the same value.
func (c *planCodec) repeat(span []byte) bool {
	if !c.dec || c.err != nil || len(span) == 0 || !bytes.HasPrefix(c.buf[c.pos:], span) {
		return false
	}
	c.pos += len(span)
	return true
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

// grow returns element i of *s, first extending *s by one element when
// decoding: the one an earlier decode left past its length, whose names the
// walk can reuse, or else a zero one.
func grow[T any](c *planCodec, s *[]T, i int) *T {
	if c.dec {
		if i < cap(*s) {
			*s = (*s)[:i+1]
		} else {
			var zero T
			*s = append(*s, zero)
		}
	}
	return &(*s)[i]
}

// num64 walks key and an integer value, in strconv.AppendInt's form: no
// plus sign, no leading zero and no negative zero.
func (c *planCodec) num64(key string, v *int64) {
	c.lit(key)
	if !c.dec {
		c.buf = strconv.AppendInt(c.buf, *v, 10)
		return
	}
	if c.err != nil {
		return
	}
	b := c.buf[c.pos:]
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	// 19 digits fit a uint64; the sign bit's worth of range is checked after.
	var n uint64
	k := 0
	for ; k < len(b); k++ {
		d := b[k] - '0'
		if d > 9 {
			break
		}
		n = n*10 + uint64(d)
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if k == 0 || k > 19 || n > limit || b[0] == '0' && (k > 1 || neg) {
		c.fail()
		return
	}
	c.pos = len(c.buf) - len(b) + k
	*v = int64(n)
	if neg {
		*v = -*v
	}
}

// num is num64 for an int; decoding refuses one too wide for the platform,
// as encoding/json does.
func (c *planCodec) num(key string, v *int) {
	x := int64(*v)
	c.num64(key, &x)
	if !c.dec {
		return
	}
	if int64(int(x)) != x {
		c.fail()
	}
	*v = int(x)
}

// real walks key and a float in encoding/json's format (AppendJSONFloat).
// Decoding reads a float only when that format writes it back unchanged.
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
		f, ok := readJSONFloat(c.buf[c.pos:i])
		if !ok {
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

// readJSONFloat parses s and reports whether s is exactly what
// AppendJSONFloat writes for the value it parses to. A decimal of at most
// 15 significant digits survives a round trip through a normal float64, so
// it is the shortest form of its value and needs only its syntax and its
// format, 'f' or 'e', checked; any other is formatted and compared.
func readJSONFloat(s []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		return 0, false
	}
	if short, ok := shortFloat(s); ok {
		abs := math.Abs(f)
		if short == 'f' && (abs == 0 || 1e-6 <= abs && abs < 1e21) ||
			short == 'e' && (abs < 1e-6 || abs >= 1e21) && abs >= 0x1p-1022 {
			return f, true
		}
	}
	var canon [32]byte
	b, _ := AppendJSONFloat(canon[:0], f)
	return f, string(b) == string(s)
}

// shortFloat reports the format, 'f' or 'e', of a float literal written in
// AppendJSONFloat's syntax with at most 15 significant digits: an integer
// part with no leading zero, a fraction with no trailing zero and, in the
// 'e' form, a one-digit mantissa and an exponent with no leading zero. It
// reports false for any other literal, which may still be canonical.
func shortFloat(s []byte) (format byte, ok bool) {
	if len(s) > 0 && s[0] == '-' {
		s = s[1:]
	}
	n := digitRun(s)
	if n == 0 || s[0] == '0' && n > 1 {
		return 0, false
	}
	sig := n // significant digits, trailing zeros of the integer part included
	if s[0] == '0' {
		sig = 0
	}
	one := n == 1 && s[0] != '0'
	s = s[n:]
	if len(s) > 0 && s[0] == '.' {
		m := digitRun(s[1:])
		if m == 0 || s[m] == '0' {
			return 0, false
		}
		frac := s[1 : m+1]
		if sig == 0 {
			for frac[0] == '0' {
				frac = frac[1:]
			}
		}
		sig += len(frac)
		s = s[m+1:]
	}
	switch {
	case sig > 15:
		return 0, false
	case len(s) == 0:
		return 'f', true
	case !one || len(s) < 3 || s[0] != 'e':
		return 0, false
	}
	e := s[2:]
	if n := digitRun(e); n != len(e) || e[0] == '0' || s[1] == '+' && n < 2 || s[1] != '+' && s[1] != '-' {
		return 0, false
	}
	return 'e', true
}

// digitRun returns the number of leading ASCII digits of s.
func digitRun(s []byte) int {
	for i, b := range s {
		if b < '0' || b > '9' {
			return i
		}
	}
	return len(s)
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
	case c.opt("false", false):
		*v = false
	default:
		c.fail()
	}
}

// text walks key and a string in cliutil.AppendJSONString's form. Decoding
// keeps the string *v or c.last when the input holds the same one.
func (c *planCodec) text(key string, v *string) {
	c.lit(key)
	if !c.dec {
		c.buf = cliutil.AppendJSONString(c.buf, *v)
		return
	}
	if c.err != nil {
		return
	}
	n, s, plain := canonicalString(c.buf[c.pos:])
	if n == 0 {
		c.fail()
		return
	}
	body := c.buf[c.pos+1 : c.pos+n-1]
	c.pos += n
	switch {
	case !plain:
		*v = s
	case string(body) == *v:
	case string(body) == c.last:
		*v = c.last
	default:
		c.last = string(body)
		*v = c.last
	}
}

// canonicalString reads the JSON string literal at the start of data. When
// cliutil.AppendJSONString writes exactly that literal for the string it
// holds, it returns the literal's length, quotes included, and whether the
// string is plain: printable ASCII that needs no escape, which is the bytes
// between the quotes. It returns any other string decoded, and 0 for a
// literal that is not canonical. Only a plain literal is read in place;
// any other is held to the definition, decoded by encoding/json and
// written again.
func canonicalString(data []byte) (n int, s string, plain bool) {
	if len(data) == 0 || data[0] != '"' {
		return 0, "", false
	}
	plain = true
	for i := 1; i < len(data); i++ {
		switch b := data[i]; {
		case b == '"' && plain:
			return i + 1, "", true
		case b == '"':
			var dec string
			if lit := data[:i+1]; json.Unmarshal(lit, &dec) != nil || !bytes.Equal(cliutil.AppendJSONString(nil, dec), lit) {
				return 0, "", false
			}
			return i + 1, dec, false
		case b == '\\':
			plain = false
			i++ // the escaped byte, which may be a quote
		case b < ' ' || b >= utf8.RuneSelf || b == '<' || b == '>' || b == '&':
			plain = false
		}
	}
	return 0, "", false
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
	if c.null(p.Layers == nil) {
		if c.dec {
			p.Layers = nil
		}
	} else {
		if n := len(p.Network.Layers); c.dec && (p.Layers == nil || cap(p.Layers) < n) {
			p.Layers = make([]LayerPlan, 0, n)
		} else if c.dec {
			p.Layers = p.Layers[:0]
		}
		for i := 0; c.next(i, len(p.Layers)); i++ {
			if c.dec && i < len(p.Network.Layers) {
				c.last = p.Network.Layers[i].Name // most likely this layer's name
				c.conv, c.convOf = nil, &p.Network.Layers[i]
				if c.spans != nil && 2*i+1 < len(*c.spans) {
					c.conv = c.buf[(*c.spans)[2*i]:(*c.spans)[2*i+1]]
				}
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
	if c.null(n.Layers == nil) {
		if c.dec {
			n.Layers = nil
		}
	} else {
		if c.dec {
			n.Layers = n.Layers[:0]
			if n.Layers == nil {
				n.Layers = []model.ConvLayer{} // [] decodes to an empty slice
			}
		}
		for i := 0; c.next(i, len(n.Layers)); i++ {
			start := c.pos
			c.convLayer(grow(c, &n.Layers, i))
			if c.spans != nil {
				*c.spans = append(*c.spans, start, c.pos)
			}
		}
	}
	c.lit("}")
}

func (c *planCodec) options(o *Options) {
	c.num(`{"Scheme":`, (*int)(&o.Scheme))
	c.num(`,"Variant":`, (*int)(&o.Variant))
	c.num(`,"Arrays":`, &o.Arrays)
	c.lit(`,"Energy":`)
	if c.null(o.Energy == nil) {
		if c.dec {
			o.Energy = nil
		}
	} else {
		if c.dec && o.Energy == nil {
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
	if c.repeat(c.conv) {
		lp.Layer = *c.convOf
	} else {
		c.convLayer(&lp.Layer)
	}
	c.lit(`,"Search":`)
	c.result(&lp.Search)
	c.lit(`,"Schedule":`)
	c.schedule(&lp.Schedule, &lp.Search.Best)
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
		if c.dec && l.Groups == 0 {
			c.fail() // AppendPlan omits a zero Groups
		}
	} else if c.dec {
		l.Groups = 0
	}
}

func (c *planCodec) array(a *core.Array) {
	c.num(`{"Rows":`, &a.Rows)
	c.num(`,"Cols":`, &a.Cols)
	c.lit("}")
}

func (c *planCodec) result(r *core.Result) {
	c.lit(`{"Best":`)
	start := c.pos
	c.mapping(&r.Best)
	if c.dec {
		c.best = c.buf[start:c.pos]
	}
	c.lit(`,"Im2col":`)
	c.mapping(&r.Im2col)
	c.num(`,"Evaluated":`, &r.Evaluated)
	c.num(`,"Swept":`, &r.Swept)
	c.lit("}")
}

// mapping walks m. In every plan a compile makes, the im2col baseline maps
// the layer the best mapping maps: decoding copies the last mapping's
// layer when the input repeats the bytes it was read from.
func (c *planCodec) mapping(m *core.Mapping) {
	c.lit(`{"Layer":`)
	if start := c.pos; c.repeat(c.layer) {
		m.Layer = *c.layerOf
	} else {
		c.layerFields(&m.Layer)
		c.lit("}")
		if c.dec {
			c.layer, c.layerOf = c.buf[start:c.pos], &m.Layer
		}
	}
	c.lit(`,"Array":`)
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

// schedule walks s, whose mapping is the search's best one, best, in every
// plan a compile makes: decoding copies *best when the input repeats the
// bytes it was read from, instead of reading them again.
func (c *planCodec) schedule(s *chip.LayerSchedule, best *core.Mapping) {
	c.lit(`{"Mapping":`)
	if c.repeat(c.best) {
		s.Mapping = *best
	} else {
		c.mapping(&s.Mapping)
	}
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
