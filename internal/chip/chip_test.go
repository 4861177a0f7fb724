package chip

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

var a512 = core.Array{Rows: 512, Cols: 512}

func conv4Mapping(t *testing.T) core.Mapping {
	t.Helper()
	l := core.Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 256, OC: 256}
	r, err := core.SearchVWSDK(l, a512)
	if err != nil {
		t.Fatal(err)
	}
	// 4x3 window: NPW=72, AR=7, AC=1 -> 7 tiles, 504 cycles.
	return r.Best
}

func TestScheduleLayerSingleArray(t *testing.T) {
	m := conv4Mapping(t)
	s, err := ScheduleLayer(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != m.Cycles {
		t.Errorf("1-array makespan = %d, want %d", s.Makespan, m.Cycles)
	}
	if s.Rounds != 7 || s.Programs != 7 || s.Arrays != 1 {
		t.Errorf("schedule = %+v", s)
	}
	if s.BusyFraction != 1.0 {
		t.Errorf("busy = %v, want 1.0 (single array never idles)", s.BusyFraction)
	}
}

func TestScheduleLayerOneArrayPerTile(t *testing.T) {
	m := conv4Mapping(t) // 7 tiles, NPW 72
	s, err := ScheduleLayer(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 72 {
		t.Errorf("makespan = %d, want 72 (one sweep)", s.Makespan)
	}
	if s.Rounds != 1 || s.Replicas != 1 || s.Programs != 7 {
		t.Errorf("schedule = %+v", s)
	}
}

func TestScheduleLayerReplication(t *testing.T) {
	m := conv4Mapping(t) // 7 tiles, NPW 72
	s, err := ScheduleLayer(m, 21)
	if err != nil {
		t.Fatal(err)
	}
	if s.Replicas != 3 || s.Arrays != 21 {
		t.Errorf("schedule = %+v", s)
	}
	if s.Makespan != 24 { // ceil(72/3)
		t.Errorf("makespan = %d, want 24", s.Makespan)
	}
	// Non-divisible array count leaves some arrays unused.
	s, err = ScheduleLayer(m, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s.Replicas != 2 || s.Arrays != 14 {
		t.Errorf("schedule = %+v", s)
	}
	if s.Makespan != 36 {
		t.Errorf("makespan = %d, want 36", s.Makespan)
	}
}

func TestScheduleLayerFewerArraysThanTiles(t *testing.T) {
	m := conv4Mapping(t) // 7 tiles
	s, err := ScheduleLayer(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rounds != 3 { // ceil(7/3)
		t.Errorf("rounds = %d, want 3", s.Rounds)
	}
	if s.Makespan != 3*72 {
		t.Errorf("makespan = %d, want 216", s.Makespan)
	}
	if s.Programs != 7 {
		t.Errorf("programs = %d, want 7", s.Programs)
	}
}

func TestScheduleLayerErrors(t *testing.T) {
	m := conv4Mapping(t)
	if _, err := ScheduleLayer(m, 0); err == nil {
		t.Error("zero arrays accepted")
	}
	if _, err := ScheduleLayer(core.Mapping{}, 4); err == nil {
		t.Error("uncosted mapping accepted")
	}
}

// Property: makespan is monotone non-increasing in the number of arrays,
// bounded below by ceil(total/arrays) and by one position sweep split
// across the per-tile replicas; busy fraction is in (0,1].
func TestScheduleMonotonicity(t *testing.T) {
	f := func(iw, ic, oc uint8, n1, n2 uint8) bool {
		l := core.Layer{
			IW: int(iw%20) + 5, IH: int(iw%20) + 5,
			KW: 3, KH: 3, IC: int(ic%200) + 1, OC: int(oc%200) + 1,
		}
		r, err := core.SearchVWSDK(l, a512)
		if err != nil {
			return false
		}
		a := int(n1%64) + 1
		b := a + int(n2%64)
		sa, err := ScheduleLayer(r.Best, a)
		if err != nil {
			return false
		}
		sb, err := ScheduleLayer(r.Best, b)
		if err != nil {
			return false
		}
		if sb.Makespan > sa.Makespan {
			return false
		}
		lower := ceilDiv64(r.Best.Cycles, int64(a))
		if sa.Makespan < lower {
			return false
		}
		return sa.BusyFraction > 0 && sa.BusyFraction <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleLayerGrouped: a grouped mapping schedules G·AR·AC weight tiles
// — one AR×AC grid per convolution group — and the busy-fraction accounting
// stays consistent (one array per tile sweeps NPW cycles at full utilization).
func TestScheduleLayerGrouped(t *testing.T) {
	l := core.Layer{IW: 14, IH: 14, KW: 3, KH: 3, IC: 32, OC: 32,
		PadW: 1, PadH: 1, Groups: 32}
	r, err := core.SearchVWSDK(l, a512)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Best
	wantTiles := m.AR * m.AC * 32
	if m.Tiles() != wantTiles {
		t.Fatalf("Tiles = %d, want %d", m.Tiles(), wantTiles)
	}
	s, err := ScheduleLayer(m, wantTiles)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tiles != wantTiles || s.Rounds != 1 || s.Programs != wantTiles {
		t.Errorf("schedule = %+v", s)
	}
	if s.Makespan != int64(m.NPW) {
		t.Errorf("makespan = %d, want %d (one sweep per tile)", s.Makespan, m.NPW)
	}
	if s.BusyFraction != 1.0 {
		t.Errorf("busy = %v, want 1.0", s.BusyFraction)
	}
	// A single array serializes the G·AR·AC programs.
	one, err := ScheduleLayer(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Makespan != m.Cycles || one.Rounds != wantTiles {
		t.Errorf("single-array schedule = %+v, want makespan %d rounds %d", one, m.Cycles, wantTiles)
	}
}
