// Package energy estimates latency and energy for a mapped convolutional
// layer from its computing-cycle schedule.
//
// The paper motivates cycle minimization by the cost of the analog/digital
// conversions every cycle requires: per its Section II-B (citing Xia et al.,
// DAC'16), conversions account for more than 98% of PIM energy. This model
// makes that relationship explicit: each computing cycle converts DAC
// samples on the rows and ADC samples on the columns, plus a much smaller
// per-cell MAC energy inside the array.
//
// Two peripheral models are provided:
//
//   - Full-array (default, GatePeripherals = false): the DAC and ADC banks
//     of the whole array convert every cycle, as the paper's "more cycles ⇒
//     more conversions ⇒ more energy" argument implicitly assumes. Energy is
//     then proportional to computing cycles.
//   - Gated (GatePeripherals = true): only the programmed tile's rows and
//     columns convert. Under this refinement a mapping that trades fewer
//     cycles for a wider per-cycle footprint (exactly what VW-SDK does) can
//     spend *more* conversions than im2col even while being faster — an
//     observation recorded in EXPERIMENTS.md.
//
// Weight programming is a one-time cost (PIM arrays are weight-stationary
// across inferences) and is therefore reported separately, never added to
// the per-inference EnergyTotal.
//
// The default constants are synthetic, chosen at ISAAC-era magnitudes so
// that conversions dominate (>98%) exactly as the paper assumes; absolute
// joules are not a reproduced claim (DESIGN.md §3).
package energy

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// Model holds the technology constants of the estimate.
type Model struct {
	// TCycle is the duration of one computing cycle (input DAC, array
	// settle, column ADC).
	TCycle time.Duration

	// EnergyDAC is the energy per row digital-to-analog conversion, in
	// joules.
	EnergyDAC float64

	// EnergyADC is the energy per column analog-to-digital conversion, in
	// joules.
	EnergyADC float64

	// EnergyCellMAC is the in-array energy per weight-holding cell per
	// cycle, in joules.
	EnergyCellMAC float64

	// EnergyCellWrite is the programming energy per cell write, in joules
	// (one-time cost, reported separately).
	EnergyCellWrite float64

	// GatePeripherals selects the gated peripheral model: conversions are
	// counted on the programmed tile footprint instead of the whole array.
	GatePeripherals bool
}

// Default returns the synthetic reference model: 100 ns cycles, 2 pJ per ADC
// conversion, 0.1 pJ per DAC conversion, 0.1 fJ per cell MAC, 10 pJ per cell
// write, full-array peripherals.
func Default() Model {
	return Model{
		TCycle:          100 * time.Nanosecond,
		EnergyDAC:       0.1e-12,
		EnergyADC:       2e-12,
		EnergyCellMAC:   0.1e-15,
		EnergyCellWrite: 10e-12,
	}
}

// Validate reports whether all constants are positive and finite. A NaN
// or infinite constant would make every estimate, and so every plan
// compiled under the model, unserializable.
func (m Model) Validate() error {
	if m.TCycle <= 0 || !finitePositive(m.EnergyDAC) || !finitePositive(m.EnergyADC) ||
		!finitePositive(m.EnergyCellMAC) || !finitePositive(m.EnergyCellWrite) {
		return fmt.Errorf("energy: non-positive or non-finite model constant: %+v", m)
	}
	return nil
}

// finitePositive reports whether x is positive and finite; NaN is not.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Report is the latency/energy estimate for one mapping (or a sum of
// mappings; see Add).
type Report struct {
	// Cycles is the total computing cycles.
	Cycles int64

	// DACConversions and ADCConversions are the total conversion counts.
	DACConversions int64
	ADCConversions int64

	// CellMACCycles is the total weight-cell engagements (used cells
	// summed over cycles).
	CellMACCycles int64

	// CellWrites counts programmed cells (each AR×AC tile written once;
	// one-time cost).
	CellWrites int64

	// Latency is Cycles × TCycle.
	Latency time.Duration

	// EnergyDAC, EnergyADC and EnergyCompute are the per-inference energy
	// components in joules; EnergyTotal is their sum. EnergyProgram is the
	// one-time programming energy, excluded from EnergyTotal.
	EnergyDAC     float64
	EnergyADC     float64
	EnergyCompute float64
	EnergyProgram float64
	EnergyTotal   float64
}

// ConversionFraction returns the share of per-inference energy spent on
// DAC+ADC conversions — the quantity the paper cites as >98%.
func (r Report) ConversionFraction() float64 {
	if r.EnergyTotal == 0 {
		return 0
	}
	return (r.EnergyDAC + r.EnergyADC) / r.EnergyTotal
}

// Add accumulates other into r (component-wise; latency adds serially).
func (r *Report) Add(other Report) {
	r.Cycles += other.Cycles
	r.DACConversions += other.DACConversions
	r.ADCConversions += other.ADCConversions
	r.CellMACCycles += other.CellMACCycles
	r.CellWrites += other.CellWrites
	r.Latency += other.Latency
	r.EnergyDAC += other.EnergyDAC
	r.EnergyADC += other.EnergyADC
	r.EnergyCompute += other.EnergyCompute
	r.EnergyProgram += other.EnergyProgram
	r.EnergyTotal += other.EnergyTotal
}

// Estimate computes the report for one costed mapping under a model it
// validates: it is EstimateInto a new Report.
func (m Model) Estimate(mp core.Mapping) (Report, error) {
	var r Report
	if err := m.Validate(); err != nil {
		return r, err
	}
	err := m.EstimateInto(&r, &mp)
	return r, err
}

// EstimateInto writes the report for one costed mapping into dst, reading
// the model and the mapping in place. It trusts the model: the caller has
// validated it (see Validate), as a compile does once for all its layers.
// Each of the AR×AC tiles runs NPW cycles; conversions follow the
// peripheral model, used (weight-holding) cells consume MAC energy, and
// each tile is programmed once. Tiles that share a shape
// (core.Mapping.EachTileClass) are counted together: the counts are
// integers, so a class's shape times its size is exactly the sum over its
// tiles. It overwrites every field of dst, with the zero Report on an
// error, so a report reused from another layer keeps nothing of it.
func (m *Model) EstimateInto(dst *Report, mp *core.Mapping) error {
	*dst = Report{}
	if mp.Cycles <= 0 || mp.AR <= 0 || mp.AC <= 0 {
		return fmt.Errorf("energy: mapping not costed: %v", *mp)
	}
	npw := int64(mp.NPW)
	mp.EachTileClass(func(tile core.TileShape, n int64) {
		rows, cols := mp.Array.Rows, mp.Array.Cols
		if m.GatePeripherals {
			rows, cols = tile.Rows, tile.Cols
		}
		dst.DACConversions += n * npw * int64(rows)
		dst.ADCConversions += n * npw * int64(cols)
		dst.CellMACCycles += n * npw * tile.UsedCells
		dst.CellWrites += n * int64(tile.Rows) * int64(tile.Cols)
	})
	// The classes above cover one convolution group's AR×AC grid; the
	// divisibility constraint makes every group's grid identical, so the
	// remaining groups scale the counts.
	if g := int64(mp.Layer.NumGroups()); g > 1 {
		dst.DACConversions *= g
		dst.ADCConversions *= g
		dst.CellMACCycles *= g
		dst.CellWrites *= g
	}
	dst.Cycles = mp.Cycles
	dst.Latency = time.Duration(dst.Cycles) * m.TCycle
	dst.EnergyDAC = float64(dst.DACConversions) * m.EnergyDAC
	dst.EnergyADC = float64(dst.ADCConversions) * m.EnergyADC
	dst.EnergyCompute = float64(dst.CellMACCycles) * m.EnergyCellMAC
	dst.EnergyProgram = float64(dst.CellWrites) * m.EnergyCellWrite
	dst.EnergyTotal = dst.EnergyDAC + dst.EnergyADC + dst.EnergyCompute
	return nil
}
