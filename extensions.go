package vwsdk

// This file re-exports the extension subsystems that go beyond the paper's
// evaluation: finite-precision bit slicing, multi-array chip scheduling,
// and network-level inference (DESIGN.md §7).

import (
	"repro/internal/bitslice"
	"repro/internal/chip"
	"repro/internal/nn"
	"repro/internal/pimarray"
)

// Precision describes finite cell/DAC precision for bit-sliced arithmetic.
// See bitslice.Precision.
type Precision = bitslice.Precision

// FullPrecision returns the degenerate 1-slice/1-pass precision, under
// which bit-sliced costs equal the paper's.
func FullPrecision() Precision { return bitslice.Full() }

// SearchVWSDKWithPrecision runs Algorithm 1 under finite precision: weight
// slices shrink the column budget and input passes multiply the cycles.
func SearchVWSDKWithPrecision(l Layer, a Array, p Precision) (SearchResult, error) {
	return bitslice.Search(l, a, p)
}

// CostWithPrecision costs one window under finite precision (the spatial,
// column-expanded realization).
func CostWithPrecision(l Layer, a Array, pw Window, p Precision) (Mapping, error) {
	return bitslice.Cost(l, a, pw, p)
}

// RunBitSliced executes mapping m with bit-sliced weights and bit-serial
// inputs on a simulated crossbar, recombining digitally; exact for integer
// tensors within the precision's range.
func RunBitSliced(m Mapping, p Precision, ifm *FeatureMap, w *Weights) (*FeatureMap, CrossbarStats, error) {
	return bitslice.Run(m, p, ifm, w)
}

// QuantizeValues clamps and rounds a tensor's backing slice into the signed
// range of the given bit width.
func QuantizeValues(data []float64, bits int) { bitslice.Quantize(data, bits) }

// LayerSchedule is the placement of one mapped layer on a multi-array chip.
// See chip.LayerSchedule.
type LayerSchedule = chip.LayerSchedule

// ScheduleLayer places a mapped layer on a chip with nArrays crossbars.
func ScheduleLayer(m Mapping, nArrays int) (LayerSchedule, error) {
	return chip.ScheduleLayer(m, nArrays)
}

// Model is a feed-forward CNN (conv stages with ReLU/pooling) whose conv
// executor is pluggable. See nn.Model.
type Model = nn.Model

// ReferenceConv is the golden convolution executor for Model.Infer (direct
// convolution).
func ReferenceConv(l Layer, ifm *FeatureMap, w *Weights) (*FeatureMap, error) {
	return nn.Reference(l, ifm, w)
}

// TinyCNN builds the deterministic three-stage demo CNN.
func TinyCNN(seed uint64) *Model { return nn.TinyCNN(seed) }

// ReLU applies the rectifier element-wise (new tensor).
func ReLU(t *FeatureMap) *FeatureMap { return nn.ReLU(t) }

// MaxPool applies k×k max pooling with stride k.
func MaxPool(t *FeatureMap, k int) *FeatureMap { return nn.MaxPool(t, k) }

// AvgPool applies k×k average pooling with stride k.
func AvgPool(t *FeatureMap, k int) *FeatureMap { return nn.AvgPool(t, k) }

// GlobalAvgPool averages each channel to a single score.
func GlobalAvgPool(t *FeatureMap) []float64 { return nn.GlobalAvgPool(t) }

// WithStuckCells marks a fraction of cells stuck-at-zero (fault injection).
// See pimarray.WithStuckCells.
func WithStuckCells(fraction float64, seed uint64) CrossbarOption {
	return pimarray.WithStuckCells(fraction, seed)
}
