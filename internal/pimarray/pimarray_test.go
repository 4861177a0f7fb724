package pimarray

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func tile(rows, cols int, vals ...float64) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	copy(m.Data, vals)
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := New(4, -1); err == nil {
		t.Error("negative cols accepted")
	}
	a, err := New(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 8 || a.Cols() != 4 {
		t.Fatalf("dims = %dx%d", a.Rows(), a.Cols())
	}
}

func TestProgramCompute(t *testing.T) {
	a, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 tile: columns [1,3] and [2,4].
	if err := a.Program(tile(2, 2, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	out, err := a.Compute([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 4 || out[1] != 6 {
		t.Fatalf("out = %v, want [4 6]", out)
	}
	out, err = a.Compute([]float64{2, -1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2*1-3 || out[1] != 2*2-4 {
		t.Fatalf("out = %v", out)
	}
	s := a.Stats()
	if s.Cycles != 2 || s.DACConversions != 4 || s.ADCConversions != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ProgramOps != 1 || s.CellWrites != 4 {
		t.Fatalf("program stats = %+v", s)
	}
}

func TestComputeBeforeProgram(t *testing.T) {
	a, _ := New(2, 2)
	if _, err := a.Compute([]float64{1, 1}); err == nil {
		t.Fatal("Compute before Program succeeded")
	}
}

func TestProgramTooLarge(t *testing.T) {
	a, _ := New(2, 2)
	if err := a.Program(tensor.NewMatrix(3, 1)); err == nil {
		t.Error("oversized rows accepted")
	}
	if err := a.Program(tensor.NewMatrix(1, 3)); err == nil {
		t.Error("oversized cols accepted")
	}
}

func TestComputeInputLength(t *testing.T) {
	a, _ := New(4, 4)
	if err := a.Program(tile(2, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Compute([]float64{1}); err == nil {
		t.Error("short input accepted")
	}
	if _, err := a.Compute([]float64{1, 2, 3}); err == nil {
		t.Error("long input accepted")
	}
}

func TestReprogramClearsOldTile(t *testing.T) {
	a, _ := New(4, 4)
	if err := a.Program(tile(3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Program(tile(2, 2, 1, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	out, err := a.Compute([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stale cells from the 3x3 tile must not leak into the sums.
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("out = %v, want [1 1]", out)
	}
	if got := a.Stats().ProgramOps; got != 2 {
		t.Fatalf("ProgramOps = %d, want 2", got)
	}
}

func TestUsedCellTracking(t *testing.T) {
	a, _ := New(4, 4)
	// 3x2 tile with 4 nonzeros.
	if err := a.Program(tile(3, 2, 1, 0, 2, 3, 0, 4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := a.Compute([]float64{1, 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	s := a.Stats()
	if s.UsedCellCycles != 20 {
		t.Fatalf("UsedCellCycles = %d, want 20", s.UsedCellCycles)
	}
	want := 100 * float64(20) / float64(5*16)
	if got := a.Utilization(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Utilization = %v, want %v", got, want)
	}
}

func TestUtilizationBeforeAnyCycle(t *testing.T) {
	a, _ := New(2, 2)
	if a.Utilization() != 0 {
		t.Fatal("utilization before cycles should be 0")
	}
}

func TestStatsAdd(t *testing.T) {
	s := Stats{Cycles: 1, DACConversions: 2, ADCConversions: 3, CellWrites: 4, ProgramOps: 5, UsedCellCycles: 6}
	s.Add(Stats{Cycles: 10, DACConversions: 20, ADCConversions: 30, CellWrites: 40, ProgramOps: 50, UsedCellCycles: 60})
	want := Stats{Cycles: 11, DACConversions: 22, ADCConversions: 33, CellWrites: 44, ProgramOps: 55, UsedCellCycles: 66}
	if s != want {
		t.Fatalf("Add = %+v, want %+v", s, want)
	}
}

func TestQuantization(t *testing.T) {
	// 2 bits over [-3,3]: step = 3/2 = 1.5, grid {-3,-1.5,0,1.5,3}.
	a, err := New(2, 2, WithQuantization(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Program(tile(2, 1, 0.6, 10)); err != nil {
		t.Fatal(err)
	}
	out, err := a.Compute([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 { // 0.6 rounds to 0 with step 1.5
		t.Fatalf("quantized 0.6 -> %v, want 0", out[0])
	}
	out, err = a.Compute([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 { // 10 clips to +3
		t.Fatalf("quantized 10 -> %v, want 3", out[0])
	}
}

func TestQuantizationIdentityOnGrid(t *testing.T) {
	// 8-bit quantization over [-4,4] keeps small integers exact.
	a, err := New(4, 1, WithQuantization(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Program(tile(4, 1, -4, -1, 2, 4)); err != nil {
		t.Fatal(err)
	}
	out, err := a.Compute([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 { // step 4/128 represents small integers exactly
		t.Fatalf("out = %v, want 1", out[0])
	}
}

func TestQuantizationOptionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { WithQuantization(0, 1) },
		func() { WithQuantization(17, 1) },
		func() { WithQuantization(4, 0) },
		func() { WithReadNoise(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestReadNoiseDeterministicAndScaled(t *testing.T) {
	mk := func(sigma float64, seed uint64) []float64 {
		a, err := New(4, 2, WithReadNoise(sigma, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Program(tile(1, 2, 1, 1)); err != nil {
			t.Fatal(err)
		}
		out, err := a.Compute([]float64{1})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a1 := mk(0.1, 42)
	a2 := mk(0.1, 42)
	if a1[0] != a2[0] || a1[1] != a2[1] {
		t.Fatal("noise not deterministic for equal seeds")
	}
	b := mk(0.1, 43)
	if a1[0] == b[0] && a1[1] == b[1] {
		t.Fatal("noise identical across seeds")
	}
	if a1[0] == 1.0 {
		t.Fatal("noise had no effect")
	}
}

func TestReadNoiseStatistics(t *testing.T) {
	a, err := New(1, 1, WithReadNoise(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Program(tile(1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		out, err := a.Compute([]float64{0})
		if err != nil {
			t.Fatal(err)
		}
		sum += out[0]
		sumSq += out[0] * out[0]
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("noise variance = %v, want ~1", variance)
	}
}

// Property: an ideal array computes exactly the matrix-vector product of the
// programmed tile for random small-integer tiles and inputs.
func TestComputeMatchesMulVec(t *testing.T) {
	f := func(seed uint64, rows, cols uint8) bool {
		r := int(rows%6) + 1
		c := int(cols%6) + 1
		rng := tensor.NewRNG(seed)
		w := tensor.NewMatrix(r, c)
		rng.FillSmallInts(w.Data, -4, 4)
		in := make([]float64, r)
		rng.FillSmallInts(in, -4, 4)
		a, err := New(8, 8)
		if err != nil {
			return false
		}
		if err := a.Program(w); err != nil {
			return false
		}
		got, err := a.Compute(in)
		if err != nil {
			return false
		}
		want := w.MulVec(in)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStuckCellsLoseWrites(t *testing.T) {
	// With every cell stuck, all outputs collapse to zero.
	a, err := New(4, 4, WithStuckCells(1, 11))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Program(tile(2, 2, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	out, err := a.Compute([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("fully stuck array produced %v", out)
	}
	if a.Stats().UsedCellCycles != 0 {
		t.Error("stuck cells counted as used")
	}
}

func TestStuckCellsDeterministic(t *testing.T) {
	run := func(seed uint64) []float64 {
		a, err := New(8, 8, WithStuckCells(0.3, seed))
		if err != nil {
			t.Fatal(err)
		}
		w := tensor.NewMatrix(8, 8)
		for i := range w.Data {
			w.Data[i] = 1
		}
		if err := a.Program(w); err != nil {
			t.Fatal(err)
		}
		in := make([]float64, 8)
		for i := range in {
			in[i] = 1
		}
		out, err := a.Compute(in)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a1, a2 := run(5), run(5)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("stuck set not deterministic")
		}
	}
	var total float64
	for _, v := range a1 {
		total += v
	}
	// 30% of 64 cells stuck: the all-ones MVM loses exactly that many units.
	frac := 0.3
	stuck := int(frac * 64)
	if total != float64(64-stuck) {
		t.Fatalf("stuck loss = %v, want %v", 64-total, stuck)
	}
}

func TestStuckCellsZeroFractionHarmless(t *testing.T) {
	a, err := New(2, 2, WithStuckCells(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Program(tile(1, 1, 5)); err != nil {
		t.Fatal(err)
	}
	out, err := a.Compute([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 {
		t.Fatalf("out = %v, want 5", out[0])
	}
}

func TestStuckCellsOptionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fraction > 1 did not panic")
		}
	}()
	WithStuckCells(1.5, 0)
}
