package optimize

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

// encodeLine is the reference for the stream appenders: the bytes
// encoding/json's Encoder writes for v, trailing newline included.
func encodeLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// finalLine is the stream's final line as encoding/json writes it.
type finalLine struct {
	Kind     string    `json:"event"`
	Frontier *Frontier `json:"frontier"`
}

// checkLine asserts that an appender's line and error are encoding/json's:
// the same bytes, or the same error.
func checkLine(t *testing.T, what string, got []byte, err error, v any) {
	t.Helper()
	want, wantErr := encodeLine(v)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: error %v, encoding/json's %v", what, err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%s differs from encoding/json:\ngot  %s\nwant %s", what, got, want)
	}
}

// FuzzStreamCodec holds the /v1/optimize line appenders to encoding/json
// byte for byte: events of every kind (a fuzzed kind string too), By 0 and
// not, with and without a point, nil, empty and filled Arrays; frontiers
// whose Name and Network need escaping, or Name is empty, with nil, empty
// and filled Points; energies across both of encoding/json's format
// switches (1e-6 and 1e21); and NaN and ±Inf, which must fail with
// encoding/json's error.
func FuzzStreamCodec(f *testing.F) {
	f.Add(uint8(0), 1, 0, uint8(2), 64, 64, 1, false, int64(1173), 1.579719168e-7, int64(8192), "tinynet-codesign", "TinyNet")
	f.Add(uint8(1), 3, 2, uint8(0x80), 0, 0, 0, false, int64(0), 0.0, int64(0), "", "")
	f.Add(uint8(2), 9, 4, uint8(1), 128, 96, 4, true, int64(-1), 1e-6, int64(1<<40), "<>&", `"quoted" \ net`)
	f.Add(uint8(3), -7, -1, uint8(4), -3, 5, -2, true, int64(math.MaxInt64), 9.999999e-7, int64(math.MinInt64), "réseau ", "\xff\x01")
	f.Add(uint8(0), 2, 0, uint8(3), 512, 512, 4, true, int64(21), 1e21, int64(2097152), "a", "b")
	f.Add(uint8(2), 2, 1, uint8(3), 512, 512, 4, true, int64(21), 9.99e20, int64(2), "a", "b")
	f.Add(uint8(0), 2, 0, uint8(2), 1, 1, 1, false, int64(1), 5e-324, int64(1), "x", "y")
	f.Add(uint8(0), 2, 0, uint8(2), 1, 1, 1, false, int64(1), math.Copysign(0, -1), int64(1), "x", "y")
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(uint8(2), 5, 3, uint8(2), 64, 64, 1, true, int64(9), bad, int64(4096), "bad", "net")
	}
	kinds := [...]string{"admit", "evict", "reject"}
	f.Fuzz(func(t *testing.T, kind uint8, id, by int, shape uint8, rows, cols, chips int, gated bool,
		cycles int64, energy float64, area int64, name, network string) {
		// shape's low bits pick the arrays and points: nil, empty, or one
		// to three elements; its top bit drops the event's point.
		var arrays []core.Array
		var points []FrontierPoint
		if n := int(shape % 5); n > 0 {
			arrays, points = []core.Array{}, []FrontierPoint{}
			for i := range n - 1 {
				arrays = append(arrays, core.Array{Rows: rows + i, Cols: cols - i})
			}
		}
		p := FrontierPoint{ID: id, Arrays: arrays, Chips: chips, Gated: gated,
			Metrics: Metrics{Cycles: cycles, EnergyJ: energy, AreaCells: area}}
		for i := range len(arrays) {
			q := p
			q.ID += i
			q.Metrics.EnergyJ = energy * float64(1+i) / 3
			points = append(points, q)
		}

		e := Event{ID: id, By: by}
		if int(kind) < len(kinds) {
			e.Kind = kinds[kind]
		} else {
			e.Kind = name
		}
		if shape&0x80 == 0 {
			e.Point = &p
		}
		got, err := AppendEvent([]byte("prefix"), e)
		if err == nil && !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("AppendEvent lost dst's bytes: %s", got)
		}
		checkLine(t, "event", bytes.TrimPrefix(got, []byte("prefix")), err, e)

		fr := &Frontier{Name: name, Network: network, Groups: chips, Evaluated: id, Admitted: by,
			Rejected: rows, Evicted: cols, Dominated: int(kind), Points: points}
		got, err = AppendFinal(nil, fr)
		checkLine(t, "frontier line", got, err, finalLine{"frontier", fr})
	})
}
