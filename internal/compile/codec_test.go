package compile

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
// decoder reads them back to encoding/json's plan. Only a string that
// needed an escape may send the bytes to the fallback.
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
		if !bytes.Contains(want, []byte(`\`)) {
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

// TestFromJSONAllocs pins the cost of loading a stored plan: FromJSON of
// the compact VGG-13@512 plan, which encoding/json decoded in 74
// allocations. The 19 are the plan, its energy model, its two layer slices
// (the network's grown by appending), and one string per distinct name.
func TestFromJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops a share of sync.Pool puts, so FromJSON's pooled decode buffer is sometimes reallocated and the count reads 20; the build without -race pins it")
	}
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

// BenchmarkFromKeyedJSON measures a store load's decode: the compact
// VGG-13@512 plan under its own key.
func BenchmarkFromKeyedJSON(b *testing.B) {
	req := NewRequest(model.VGG13(), array512, Options{})
	p, err := New(core.Serial{}).Compile(bg, req)
	if err != nil {
		b.Fatal(err)
	}
	var data bytes.Buffer
	if err := p.Encode(&data); err != nil {
		b.Fatal(err)
	}
	key, err := Key(req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(data.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := FromKeyedJSON(data.Bytes(), key); err != nil {
			b.Fatal(err)
		}
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
	arrays := []core.Array{{Rows: 64, Cols: 64}, {Rows: 128, Cols: 96}, array512}
	c := New(engine.New())
	f.Fuzz(func(t *testing.T, seed uint64, layers, sel uint8, name string, at uint16, patch []byte) {
		n := model.Random(seed, 1+int(layers%4))
		n.Name = name
		n.Layers[int(seed%uint64(len(n.Layers)))].Name = name
		opts := Options{
			Scheme:          Scheme(sel % 4),
			Variant:         core.Variant(sel / 4 % 3),
			Arrays:          1 << (sel / 12 % 4),
			GatePeripherals: sel/48%2 == 1,
		}
		p, err := c.Compile(bg, NewRequest(n, arrays[int(sel)%len(arrays)], opts))
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
