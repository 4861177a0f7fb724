// Package pimarray simulates a processing-in-memory crossbar array: a grid
// of Rows×Cols memory cells holding weights, with DACs driving inputs onto
// the rows and ADCs reading the accumulated products off the columns.
//
// One Compute call models one of the paper's computing cycles: the cells
// stay programmed while the input vector changes, which is exactly the
// weight-stationary reuse the mapping schemes exploit. The simulator keeps
// per-run statistics — computing cycles, DAC/ADC conversions and programming
// operations — that the energy model consumes; the paper (Section II-B,
// citing [3]) motivates cycle minimization by noting conversions cost more
// than 98% of PIM energy.
//
// By default computation is exact, so mapped convolutions can be verified
// bit-for-bit against the reference model. Optional weight quantization and
// deterministic read noise model analog non-idealities for robustness
// experiments.
package pimarray

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Stats accumulates the observable work a crossbar has performed.
type Stats struct {
	// Cycles is the number of Compute calls (the paper's computing cycles).
	Cycles int64

	// DACConversions counts digital-to-analog row activations: one per
	// driven row per cycle.
	DACConversions int64

	// ADCConversions counts analog-to-digital column reads: one per read
	// column per cycle.
	ADCConversions int64

	// CellWrites counts programmed cells across all Program calls.
	CellWrites int64

	// ProgramOps counts Program calls (tile reconfigurations).
	ProgramOps int64

	// UsedCellCycles sums, over cycles, the number of weight-holding cells
	// engaged per cycle; UsedCellCycles/(Cycles·Rows·Cols) is the paper's
	// eq. 9 utilization of the executed schedule.
	UsedCellCycles int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Cycles += other.Cycles
	s.DACConversions += other.DACConversions
	s.ADCConversions += other.ADCConversions
	s.CellWrites += other.CellWrites
	s.ProgramOps += other.ProgramOps
	s.UsedCellCycles += other.UsedCellCycles
}

// Option configures non-ideal behaviour of a simulated array.
type Option func(*Array)

// WithQuantization programs weights rounded to the mid-tread grid of step
// maxAbs/2^(bits-1) and clipped to [-maxAbs, +maxAbs], modelling limited
// cell precision. The power-of-two step keeps integer weights within range
// exactly representable. bits must be in [1, 16] and maxAbs positive or the
// option panics (configuration bug).
func WithQuantization(bits int, maxAbs float64) Option {
	if bits < 1 || bits > 16 || !(maxAbs > 0) {
		panic(fmt.Sprintf("pimarray: invalid quantization bits=%d maxAbs=%v", bits, maxAbs))
	}
	return func(a *Array) {
		a.quantBits = bits
		a.quantMax = maxAbs
	}
}

// WithReadNoise adds zero-mean Gaussian noise with the given standard
// deviation to every column readout, using a deterministic generator so runs
// are reproducible. sigma must be non-negative.
func WithReadNoise(sigma float64, seed uint64) Option {
	if sigma < 0 {
		panic(fmt.Sprintf("pimarray: negative noise sigma %v", sigma))
	}
	return func(a *Array) {
		a.noiseSigma = sigma
		a.rng = tensor.NewRNG(seed)
	}
}

// WithStuckCells marks the given fraction of cells as stuck-at-zero
// (deterministically chosen by seed): programming writes to a stuck cell
// are silently lost, modelling RRAM endurance faults. fraction must be in
// [0, 1]. Functional verification against the reference convolution detects
// such faults whenever a weight lands on a stuck cell.
func WithStuckCells(fraction float64, seed uint64) Option {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("pimarray: stuck-cell fraction %v outside [0,1]", fraction))
	}
	return func(a *Array) {
		a.stuckFraction = fraction
		a.stuckSeed = seed
	}
}

// Array is a simulated crossbar. Create one with New; the zero value is not
// usable.
type Array struct {
	rows, cols int
	cells      *tensor.Matrix

	// Programmed tile extent and its non-zero (weight-holding) cell count.
	progRows, progCols int
	progUsed           int64

	quantBits  int
	quantMax   float64
	noiseSigma float64
	rng        *tensor.RNG

	stuckFraction float64
	stuckSeed     uint64
	stuck         map[int]bool // lazily built cell-index set

	stats Stats
}

// New returns a crossbar with the given physical dimensions.
func New(rows, cols int, opts ...Option) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("pimarray: invalid array size %dx%d", rows, cols)
	}
	a := &Array{rows: rows, cols: cols, cells: tensor.NewMatrix(rows, cols)}
	for _, opt := range opts {
		opt(a)
	}
	return a, nil
}

// Rows returns the physical row count (DAC ports).
func (a *Array) Rows() int { return a.rows }

// Cols returns the physical column count (ADC ports).
func (a *Array) Cols() int { return a.cols }

// Stats returns a copy of the accumulated statistics.
func (a *Array) Stats() Stats { return a.stats }

// Program loads the weight tile w into the top-left corner of the array and
// clears any previous contents. It fails if the tile exceeds the physical
// dimensions. Programming counts one ProgramOp and w.Rows·w.Cols CellWrites
// (analog arrays rewrite the full tile region).
func (a *Array) Program(w *tensor.Matrix) error {
	if w.Rows > a.rows || w.Cols > a.cols {
		return fmt.Errorf("pimarray: tile %dx%d exceeds array %dx%d",
			w.Rows, w.Cols, a.rows, a.cols)
	}
	for i := range a.cells.Data {
		a.cells.Data[i] = 0
	}
	a.progUsed = 0
	a.buildStuckSet()
	for r := 0; r < w.Rows; r++ {
		for c := 0; c < w.Cols; c++ {
			v := a.quantize(w.At(r, c))
			if a.stuck[r*a.cols+c] {
				v = 0 // stuck-at-zero cell loses the write
			}
			a.cells.Set(r, c, v)
			if v != 0 {
				a.progUsed++
			}
		}
	}
	a.progRows, a.progCols = w.Rows, w.Cols
	a.stats.ProgramOps++
	a.stats.CellWrites += int64(w.Rows) * int64(w.Cols)
	return nil
}

// buildStuckSet lazily samples the stuck cell set on first programming.
func (a *Array) buildStuckSet() {
	if a.stuckFraction == 0 || a.stuck != nil {
		return
	}
	a.stuck = make(map[int]bool)
	n := int(a.stuckFraction * float64(a.rows) * float64(a.cols))
	rng := tensor.NewRNG(a.stuckSeed)
	for len(a.stuck) < n {
		a.stuck[rng.IntN(a.rows*a.cols)] = true
	}
}

// quantize rounds v to the configured precision; identity when quantization
// is disabled. Values beyond ±quantMax clip.
func (a *Array) quantize(v float64) float64 {
	if a.quantBits == 0 {
		return v
	}
	step := a.quantMax / float64(int64(1)<<uint(a.quantBits-1))
	q := math.Round(v/step) * step
	return math.Max(-a.quantMax, math.Min(a.quantMax, q))
}

// Compute performs one computing cycle: input drives the programmed rows and
// the programmed columns are read back. len(input) must equal the programmed
// tile's row count. The result has one entry per programmed column.
func (a *Array) Compute(input []float64) ([]float64, error) {
	if a.progRows == 0 {
		return nil, fmt.Errorf("pimarray: Compute before Program")
	}
	if len(input) != a.progRows {
		return nil, fmt.Errorf("pimarray: input length %d, programmed rows %d",
			len(input), a.progRows)
	}
	out := make([]float64, a.progCols)
	for r, v := range input {
		if v == 0 {
			continue
		}
		base := r * a.cols
		row := a.cells.Data[base : base+a.progCols]
		for c, w := range row {
			out[c] += v * w
		}
	}
	if a.noiseSigma > 0 {
		for c := range out {
			out[c] += a.noiseSigma * a.gaussian()
		}
	}
	a.stats.Cycles++
	a.stats.DACConversions += int64(a.progRows)
	a.stats.ADCConversions += int64(a.progCols)
	a.stats.UsedCellCycles += a.progUsed
	return out, nil
}

// gaussian returns a standard normal sample via Box–Muller from the
// deterministic generator.
func (a *Array) gaussian() float64 {
	u1 := a.rng.Float64()
	for u1 == 0 {
		u1 = a.rng.Float64()
	}
	u2 := a.rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Utilization returns eq. 9 for the executed schedule: the mean fraction of
// array cells holding weights per computing cycle, in percent. It returns 0
// before any cycle has run.
func (a *Array) Utilization() float64 {
	if a.stats.Cycles == 0 {
		return 0
	}
	total := float64(a.stats.Cycles) * float64(a.rows) * float64(a.cols)
	return 100 * float64(a.stats.UsedCellCycles) / total
}
