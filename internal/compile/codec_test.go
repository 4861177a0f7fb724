package compile

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"unicode/utf8"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/model"
)

// referencePlan is what FromJSON returned before the fast path: the plan
// encoding/json decodes from data, validated.
func referencePlan(data []byte) (*NetworkPlan, error) {
	var p NetworkPlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// checkCodec asserts the codec's contract on one plan: AppendPlan writes
// exactly encoding/json's bytes, Encode writes them too, and the fast
// decoder reads them back to encoding/json's plan. Only a name holding
// invalid UTF-8, which encoding/json writes as \ufffd and decodes to
// U+FFFD, may send the bytes to the fallback: its bytes are no plan's
// canonical encoding.
func checkCodec(t *testing.T, p *NetworkPlan) []byte {
	t.Helper()
	want, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got, err := AppendPlan(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendPlan differs from encoding/json:\ngot  %s\nwant %s", got, want)
	}
	var enc bytes.Buffer
	if err := p.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), want) {
		t.Fatalf("Encode differs from AppendPlan")
	}
	ref := new(NetworkPlan)
	if err := json.Unmarshal(want, ref); err != nil {
		t.Fatal(err)
	}
	fast, ok := decodePlan(want)
	if !ok {
		if !bytes.Contains(want, []byte(`\ufffd`)) {
			t.Fatalf("fast decoder rejected canonical bytes:\n%s", want)
		}
		return want
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("fast decoder's plan differs from encoding/json's:\ngot  %+v\nwant %+v", fast, ref)
	}
	return want
}

// TestAppendPlanMatchesEncodingJSON pins the codec against encoding/json
// over the zoo: every network on three arrays under five option sets, and
// hand-built plans for the cases compiles never produce.
func TestAppendPlanMatchesEncodingJSON(t *testing.T) {
	c := New(engine.New())
	custom := energy.Model{TCycle: 7, EnergyDAC: 1e21, EnergyADC: 123456.789, EnergyCellMAC: 5e-324, EnergyCellWrite: 1e-7}
	optionSets := []Options{
		{},
		{Scheme: SDK, Arrays: 4},
		{Scheme: SMD, GatePeripherals: true},
		{Scheme: Im2col, Energy: &custom},
		{Variant: core.VariantSquareTiled, Arrays: 16, Plans: true},
	}
	for _, n := range model.All() {
		for _, a := range []core.Array{{Rows: 128, Cols: 128}, {Rows: 512, Cols: 256}, array512} {
			for _, opts := range optionSets {
				p, err := c.Compile(bg, NewRequest(n, a, opts))
				if err != nil {
					t.Fatal(err)
				}
				checkCodec(t, p)
			}
		}
	}

	p, err := c.Compile(bg, NewRequest(model.Random(3, 4), core.Array{Rows: 64, Cols: 64}, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	edge := map[string]func(p *NetworkPlan){
		"nil energy":         func(p *NetworkPlan) { p.Options.Energy = nil },
		"nil slices":         func(p *NetworkPlan) { p.Network.Layers, p.Layers = nil, nil },
		"empty slices":       func(p *NetworkPlan) { p.Network.Layers, p.Layers = []model.ConvLayer{}, []LayerPlan{} },
		"negative numbers":   func(p *NetworkPlan) { p.Layers[0].Layer.PadW, p.Totals.Speedup = -3, -0.25 },
		"negative zero":      func(p *NetworkPlan) { p.Totals.Utilization = math.Copysign(0, -1) },
		"float exponents":    func(p *NetworkPlan) { p.Totals.Energy.EnergyDAC, p.Totals.Energy.EnergyADC = 1.5e-9, 2.5e300 },
		"float boundaries":   func(p *NetworkPlan) { p.Totals.Energy.EnergyDAC, p.Totals.Energy.EnergyADC = 1e-6, 1e21-1 },
		"unicode names":      func(p *NetworkPlan) { p.Network.Name = "réseau ✓" },
		"escaped names":      func(p *NetworkPlan) { p.Network.Name = "a<b>&\"c\"\\\x01\xff\u2028" },
		"large int64":        func(p *NetworkPlan) { p.Totals.Energy.CellMACCycles = math.MaxInt64 },
		"smallest int64":     func(p *NetworkPlan) { p.Totals.Energy.Latency = math.MinInt64 },
		"one group":          func(p *NetworkPlan) { p.Layers[0].Search.Best.Layer.Groups = 1 },
		"eighteen digit int": func(p *NetworkPlan) { p.Totals.Energy.CellWrites = 999999999999999999 },
		"im2col layer unlike best": func(p *NetworkPlan) {
			s := &p.Layers[0].Search
			s.Best.Layer.PadH, s.Im2col.Layer.PadH, s.Im2col.Layer.Groups = 1, 10, 2
		},
		"schedule unlike best": func(p *NetworkPlan) { p.Layers[0].Schedule.Mapping.Cycles++ },
	}
	for name, mutate := range edge {
		t.Run(name, func(t *testing.T) {
			q := *p
			q.Network.Layers = append([]model.ConvLayer(nil), p.Network.Layers...)
			q.Layers = append([]LayerPlan(nil), p.Layers...)
			mutate(&q)
			checkCodec(t, &q)
		})
	}
}

// TestDecodeReusesPlan pins CheckPlan's use of its scratch space: decoding
// into a plan that earlier decodes filled, recording where the network
// layers were read, yields exactly the plan decoding into a new one does,
// whatever the earlier plans held — other names, flags, groups, energy
// models and layer counts — and whether or not a layer plan's layer
// repeats its network layer.
func TestDecodeReusesPlan(t *testing.T) {
	c := New(engine.New())
	custom := energy.Model{TCycle: 7, EnergyDAC: 1e21, EnergyADC: 123456.789, EnergyCellMAC: 5e-324, EnergyCellWrite: 1e-7}
	var plans [][]byte
	for _, n := range []model.Network{model.VGG13(), model.MobileNetV2(), model.Random(5, 2), model.ResNet18()} {
		for _, opts := range []Options{{}, {Scheme: SDK, Arrays: 4, GatePeripherals: true}, {Scheme: Im2col, Energy: &custom}} {
			p, err := c.Compile(bg, NewRequest(n, core.Array{Rows: 128, Cols: 256}, opts))
			if err != nil {
				t.Fatal(err)
			}
			if len(plans)%2 == 1 {
				p.Options.Energy = nil
				p.Layers[0].Layer.Count = 10 * p.Network.Layers[0].Count // no longer the network layer's bytes
			}
			data, err := AppendPlan(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, data)
		}
	}
	var scratch NetworkPlan
	var spans []int
	for i, data := range plans {
		want, ok := decodePlan(data)
		if !ok || !scratch.decode(data, &spans) {
			t.Fatalf("plan %d: canonical bytes rejected", i)
		}
		if !reflect.DeepEqual(&scratch, want) {
			t.Fatalf("plan %d decoded into a reused plan differs from a new plan's decode", i)
		}
	}
}

// TestAppendPlanRejectsNonFinite pins encoding/json's error for a float
// JSON cannot represent.
func TestAppendPlanRejectsNonFinite(t *testing.T) {
	p, err := New(core.Serial{}).Compile(bg, NewRequest(model.Random(1, 2), core.Array{Rows: 64, Cols: 64}, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := *p
		q.Totals.Speedup = f
		_, want := json.Marshal(&q)
		_, err := AppendPlan(nil, &q)
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) || want == nil || err.Error() != want.Error() {
			t.Errorf("AppendPlan(%v) error %v, want %v", f, err, want)
		}
		if _, err := q.ToJSON(); err == nil {
			t.Errorf("ToJSON(%v) succeeded", f)
		}
	}
}

// TestFromJSONFallback pins that inputs outside the canonical form still
// decode, through encoding/json, to exactly encoding/json's plan: the
// indented golden, a document with its fields reordered, and compact bytes
// with a trailing space.
func TestFromJSONFallback(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "vgg13_512_plan.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := referencePlan(golden)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := AppendPlan(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(compact, &fields); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(fields) // map keys marshal sorted
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"indented":  golden,
		"reordered": reordered,
		"spaced":    bytes.Replace(compact, []byte("}\n"), []byte("} \n"), 1),
	} {
		if _, ok := decodePlan(data); ok {
			t.Errorf("%s: fast decoder accepted non-canonical bytes", name)
		}
		got, err := FromJSON(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded plan differs from encoding/json's", name)
		}
	}
	if _, ok := decodePlan(compact); !ok {
		t.Error("fast decoder rejected the canonical bytes")
	}
}

// TestAppendPlanZeroAlloc pins that AppendPlan allocates nothing once the
// destination has room.
func TestAppendPlanZeroAlloc(t *testing.T) {
	p, err := New(core.Serial{}).Compile(bg, NewRequest(model.VGG13(), array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := AppendPlan(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendPlan(buf[:0], p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendPlan allocates %.1f times per call, want 0", allocs)
	}
}

// TestFromJSONAllocs pins the cost of decoding a plan: FromJSON of the
// compact VGG-13@512 plan, which encoding/json decoded in 74 allocations.
// The 19 are the plan, its energy model, its two layer slices (the
// network's grown by appending), and one string per distinct name. It
// uses no pool, so the count is the same under -race.
func TestFromJSONAllocs(t *testing.T) {
	p, err := New(core.Serial{}).Compile(bg, NewRequest(model.VGG13(), array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := AppendPlan(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodePlan(data); !ok {
		t.Fatal("fast decoder rejected the canonical bytes")
	}
	const limit = 19
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := FromJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("FromJSON allocates %.1f times per call, want ≤ %d", allocs, limit)
	}
}

// vgg13Plan returns the compact VGG-13@512 plan, a store entry's bytes,
// and its key.
func vgg13Plan(tb testing.TB) ([]byte, string) {
	tb.Helper()
	req := NewRequest(model.VGG13(), array512, Options{})
	p, err := New(core.Serial{}).Compile(bg, req)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := AppendPlan(nil, p)
	if err != nil {
		tb.Fatal(err)
	}
	key, err := Key(req)
	if err != nil {
		tb.Fatal(err)
	}
	return data, key
}

// BenchmarkCheckPlan measures a store load's check: the compact VGG-13@512
// plan under its own key.
func BenchmarkCheckPlan(b *testing.B) {
	data, key := vgg13Plan(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CheckPlan(data, key); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckPlanAllocs pins the cost of checking a store entry or a peer's
// reply: CheckPlan of the compact VGG-13@512 plan, which FromKeyedJSON
// decoded into a new plan in 20 allocations. It reuses pooled scratch
// space, names included, so it reads 0; the limit leaves room for a
// scratch space the pool dropped at a GC.
func TestCheckPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops a share of sync.Pool puts, so CheckPlan's scratch space, names included, is sometimes rebuilt; the build without -race pins it")
	}
	data, key := vgg13Plan(t)
	const limit = 2
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := CheckPlan(data, key); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("CheckPlan allocates %.1f times per call, want ≤ %d", allocs, limit)
	}
}

// FuzzPlanCodec fuzzes the codec over compiled model.Random plans under
// every scheme, variant, array count and gating setting, with a fuzzed
// string as the network name and one layer's name. AppendPlan must write
// encoding/json's bytes; the fast decoder must read them back to the plan
// encoding/json decodes and Validate accepts, unless a name needed an
// escape, which it may leave to the fallback; and on those bytes
// overwritten with a fuzzed patch at a fuzzed offset, FromJSON must fail
// exactly when encoding/json plus Validate does, and otherwise agree with
// it.
func FuzzPlanCodec(f *testing.F) {
	for _, name := range []string{"conv", "<>&", `"`, `\`, "\x01", "\xff", "\u2028", "réseau"} {
		f.Add(uint64(1), uint8(3), uint8(0), name, uint16(0), []byte(nil))
	}
	f.Add(uint64(2), uint8(2), uint8(41), "x", uint16(7), []byte(" "))
	f.Add(uint64(3), uint8(1), uint8(17), "y", uint16(40), []byte(`,"Groups":0`))
	f.Add(uint64(4), uint8(4), uint8(90), "z", uint16(300), []byte("9"))
	c := New(engine.New())
	f.Fuzz(func(t *testing.T, seed uint64, layers, sel uint8, name string, at uint16, patch []byte) {
		p, err := c.Compile(bg, fuzzRequest(seed, layers, sel, name))
		if err != nil {
			t.Skip(err)
		}
		data := checkCodec(t, p)
		if _, err := referencePlan(data); err != nil {
			t.Fatalf("encoding/json rejects a compiled plan: %v", err)
		}

		off := int(at) % len(data)
		mutated := append(append(append([]byte(nil), data[:off]...), patch...), data[min(off+len(patch), len(data)):]...)
		got, err := FromJSON(mutated)
		want, wantErr := referencePlan(mutated)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("FromJSON error %v, encoding/json error %v, on\n%s", err, wantErr, mutated)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("FromJSON's plan differs from encoding/json's on\n%s", mutated)
		}
	})
}

// fuzzArrays are the arrays the plan fuzzers compile on.
var fuzzArrays = []core.Array{{Rows: 64, Cols: 64}, {Rows: 128, Cols: 96}, array512}

// fuzzRequest is the request the plan fuzzers compile: a model.Random
// network of 1 to 4 layers, named name, with one of its layers named name
// too, under the scheme, variant, array count, gating and array sel picks.
func fuzzRequest(seed uint64, layers, sel uint8, name string) Request {
	n := model.Random(seed, 1+int(layers%4))
	n.Name = name
	n.Layers[int(seed%uint64(len(n.Layers)))].Name = name
	opts := Options{
		Scheme:          Scheme(sel % 4),
		Variant:         core.Variant(sel / 4 % 3),
		Arrays:          1 << (sel / 12 % 4),
		GatePeripherals: sel/48%2 == 1,
	}
	return NewRequest(n, fuzzArrays[int(sel)%len(fuzzArrays)], opts)
}

// FuzzCheckPlan fuzzes CheckPlan over the plans FuzzPlanCodec compiles,
// spliced at a fuzzed offset (drop bytes replaced by patch) and checked
// under their own key or another request's. CheckPlan must succeed exactly
// when FromJSON decodes the bytes, the plan's own key is the key, and
// AppendPlan of the plan writes the bytes back, and then return the plan's
// totals. The seeds cover escaped names, a zero Groups, non-canonical
// ints (-0, 007, 1e2) and a float with a trailing zero, a plan less its
// last byte, another request's key, and mappings that do not fit their
// layer: a window of no area, an SDK layer with no output channels, the
// first window in the shapes 2×6, 12×1 and 3×4, the first grid with 2^30
// row tiles, and the first ICt and the first OCt ten times over.
func FuzzCheckPlan(f *testing.F) {
	c := New(engine.New())
	addSel := func(sel uint8, name string, find func(data []byte) (at, drop int, patch string), other bool) {
		p, err := c.Compile(bg, fuzzRequest(1, 3, sel, name))
		if err != nil {
			f.Fatal(err)
		}
		data, err := AppendPlan(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		at, drop, patch := find(data)
		f.Add(uint64(1), uint8(3), sel, name, uint16(at), uint8(drop), []byte(patch), other)
	}
	add := func(name string, find func(data []byte) (at, drop int, patch string), other bool) {
		addSel(0, name, find, other)
	}
	none := func([]byte) (int, int, string) { return 0, 0, "" }
	for _, name := range []string{"conv", "<>&", `"`, `\`, "\x01", "\xff", "\u2028", "réseau"} {
		add(name, none, false)
	}
	after := func(lit, patch string, drop int) func([]byte) (int, int, string) {
		return func(data []byte) (int, int, string) {
			return bytes.Index(data, []byte(lit)) + len(lit), drop, patch
		}
	}
	add("x", after(`"PadH":0`, `,"Groups":0`, 0), false)
	for _, n := range []string{"-0", "007", "1e2"} {
		add("x", after(`"PadW":`, n, 1), false)
	}
	for _, float := range []string{`"Speedup":[0-9]+\.[0-9]+[,}]`, `"EnergyADC":[0-9]\.[0-9]+e`} {
		add("x", func(data []byte) (int, int, string) {
			loc := regexp.MustCompile(float).FindIndex(data)
			return loc[1] - 1, 0, "0" // 1.5 becomes 1.50, 2.5e-8 2.50e-8
		}, false)
	}
	add("x", func(data []byte) (int, int, string) { return len(data) - 1, 1, "" }, false)
	add("x", none, true)
	// A VW-SDK window of no area, and an SDK mapping's layer with no output
	// channels (sel 7 compiles SDK, the first layer on a window wider than
	// its kernel): divisors of the tile counts.
	add("x", func(data []byte) (int, int, string) {
		loc := regexp.MustCompile(`"PW":(\{"W":[0-9]+,"H":[0-9]+\})`).FindSubmatchIndex(data)
		return loc[2], loc[3] - loc[2], `{"W":0,"H":0}`
	}, false)
	addSel(7, "x", func(data []byte) (int, int, string) {
		loc := regexp.MustCompile(`"Best":\{"Layer":\{[^}]*"OC":([0-9]+)`).FindSubmatchIndex(data)
		return loc[2], loc[3] - loc[2], "0"
	}, false)
	// The first window in another shape, and the first grid with 2^30 row
	// tiles, which a per-tile sum would walk.
	for _, w := range []string{`{"W":2,"H":6}`, `{"W":12,"H":1}`, `{"W":3,"H":4}`} {
		add("x", func(data []byte) (int, int, string) {
			loc := regexp.MustCompile(`"PW":(\{"W":[0-9]+,"H":[0-9]+\})`).FindSubmatchIndex(data)
			return loc[2], loc[3] - loc[2], w
		}, false)
	}
	add("x", func(data []byte) (int, int, string) {
		loc := regexp.MustCompile(`"AR":([0-9]+)`).FindSubmatchIndex(data)
		return loc[2], loc[3] - loc[2], "1073741824"
	}, false)
	// The first channel tile ten times over, which no total reads.
	for _, field := range []string{`"ICt":[0-9]+`, `"OCt":[0-9]+`} {
		add("x", func(data []byte) (int, int, string) {
			return regexp.MustCompile(field).FindIndex(data)[1], 0, "0"
		}, false)
	}

	f.Fuzz(func(t *testing.T, seed uint64, layers, sel uint8, name string, at uint16, drop uint8, patch []byte, other bool) {
		req := fuzzRequest(seed, layers, sel, name)
		p, err := c.Compile(bg, req)
		if err != nil {
			t.Skip(err)
		}
		data, err := AppendPlan(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		off := int(at) % (len(data) + 1)
		data = append(append(append([]byte(nil), data[:off]...), patch...), data[min(off+int(drop), len(data)):]...)
		if other {
			req.Array = fuzzArrays[(int(sel)+1)%len(fuzzArrays)]
		}
		key, err := Key(req)
		if err != nil {
			t.Fatal(err)
		}

		got, err := CheckPlan(data, key)
		want, wantErr := FromJSON(data)
		if wantErr == nil {
			if k, err := Key(want.Request); err != nil || k != key {
				wantErr = errors.New("another request's plan")
			} else if enc, err := AppendPlan(nil, want); err != nil || !bytes.Equal(enc, data) {
				wantErr = errors.New("not AppendPlan's bytes")
			}
		}
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("CheckPlan error %v, oracle error %v, on\n%s", err, wantErr, data)
		case err == nil && got != want.Totals:
			t.Fatalf("CheckPlan totals %+v, want %+v", got, want.Totals)
		}
	})
}

// roundTrips is canonicalString's oracle: lit is a canonical literal when
// encoding/json decodes it and AppendJSONString writes it back unchanged.
func roundTrips(lit []byte) bool {
	var s string
	return json.Unmarshal(lit, &s) == nil && bytes.Equal(cliutil.AppendJSONString(nil, s), lit)
}

// TestCanonicalString holds canonicalString to its oracle on the literal
// AppendJSONString writes for every byte, for runes encoding/json treats
// apart, and for escapes it never writes. The literal is followed by the
// bytes a plan puts after a string: canonicalString reads a round-tripping
// literal to its end and no further, anything it reads round-trips, and the
// string it returns, read in place when plain, writes that literal back.
func TestCanonicalString(t *testing.T) {
	var strs []string
	for b := range 256 {
		strs = append(strs, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	strs = append(strs, "", "conv1", "réseau ✓", "\u2028", "\u2029", "\ufffd", "\xef\xbf", "😀", "<>&")
	var lits [][]byte
	for _, s := range strs {
		lits = append(lits, cliutil.AppendJSONString(nil, s))
	}
	for _, lit := range []string{
		`"\/"`, `"\u0041"`, `"\u003C"`, `"\u000a"`, `"\u0008"`, `"\ud83d\ude00"`, `"\u2028x"`,
		`"\u00"`, `"\x"`, `"\`, `"abc`, `abc"`, `""`, "\"\n\"", "\"\xff\"", `"\ufffd"`, "\"<\"",
	} {
		lits = append(lits, []byte(lit))
	}
	for _, lit := range lits {
		data := append(lit[:len(lit):len(lit)], `,"IW":3}`...)
		n, s, plain := canonicalString(data)
		if ok := roundTrips(lit); ok != (n == len(lit)) {
			t.Errorf("canonicalString(%s) = %d, round trip %v", lit, n, ok)
		}
		if n > 0 && !roundTrips(data[:n]) {
			t.Errorf("canonicalString(%s) read the non-canonical %s", data, data[:n])
		}
		if plain {
			s = string(data[1 : n-1])
		}
		if n > 0 && !bytes.Equal(cliutil.AppendJSONString(nil, s), data[:n]) {
			t.Errorf("canonicalString(%s) returns %q (plain %v), which writes another literal", lit, s, plain)
		}
	}
	// Every literal of a valid UTF-8 string round-trips, so it is read.
	for _, s := range strs {
		if lit := cliutil.AppendJSONString(nil, s); utf8.ValidString(s) {
			if n, _, _ := canonicalString(lit); n != len(lit) {
				t.Errorf("canonicalString(%s) = %d, want %d", lit, n, len(lit))
			}
		}
	}
}
