// Package tensor provides the dense tensor and matrix substrate used by the
// convolution reference model and the PIM crossbar simulator.
//
// Feature maps are CHW Tensor3 values and convolution weights are OIHW
// Tensor4 values, matching the layouts the paper's figures assume. Values
// are float64; the deterministic integer fills used for functional
// verification keep every intermediate exactly representable, so simulator
// outputs can be compared with == rather than a tolerance.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor3 is a dense rank-3 tensor in C×H×W layout (one feature map).
// The zero value is empty; use NewTensor3.
type Tensor3 struct {
	C, H, W int
	// Data is the backing slice in C-major, then H, then W order.
	Data []float64
}

// NewTensor3 allocates a zeroed C×H×W tensor. It panics on non-positive
// dimensions, which always indicate a programming error in this codebase.
func NewTensor3(c, h, w int) *Tensor3 {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid Tensor3 dims %dx%dx%d", c, h, w))
	}
	return &Tensor3{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// At returns the element at channel c, row y, column x.
func (t *Tensor3) At(c, y, x int) float64 {
	return t.Data[(c*t.H+y)*t.W+x]
}

// Set assigns the element at channel c, row y, column x.
func (t *Tensor3) Set(c, y, x int, v float64) {
	t.Data[(c*t.H+y)*t.W+x] = v
}

// Len returns the number of elements.
func (t *Tensor3) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor3) Clone() *Tensor3 {
	out := NewTensor3(t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// Pad returns a copy of t zero-padded by padH rows on top/bottom and padW
// columns on left/right of every channel. Zero paddings return a clone.
func (t *Tensor3) Pad(padH, padW int) *Tensor3 {
	if padH < 0 || padW < 0 {
		panic(fmt.Sprintf("tensor: negative padding %d,%d", padH, padW))
	}
	if padH == 0 && padW == 0 {
		return t.Clone()
	}
	out := NewTensor3(t.C, t.H+2*padH, t.W+2*padW)
	for c := 0; c < t.C; c++ {
		for y := 0; y < t.H; y++ {
			srcBase := (c*t.H + y) * t.W
			dstBase := (c*out.H+y+padH)*out.W + padW
			copy(out.Data[dstBase:dstBase+t.W], t.Data[srcBase:srcBase+t.W])
		}
	}
	return out
}

// Equal reports exact element-wise equality of shape and contents.
func (t *Tensor3) Equal(o *Tensor3) bool {
	if t.C != o.C || t.H != o.H || t.W != o.W {
		return false
	}
	for i, v := range t.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports element-wise equality within absolute tolerance tol.
func (t *Tensor3) AlmostEqual(o *Tensor3, tol float64) bool {
	if t.C != o.C || t.H != o.H || t.W != o.W {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element difference, or +Inf when
// shapes differ.
func (t *Tensor3) MaxAbsDiff(o *Tensor3) float64 {
	if t.C != o.C || t.H != o.H || t.W != o.W {
		return math.Inf(1)
	}
	var worst float64
	for i, v := range t.Data {
		if d := math.Abs(v - o.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// String renders a compact shape description.
func (t *Tensor3) String() string {
	return fmt.Sprintf("Tensor3(%dx%dx%d)", t.C, t.H, t.W)
}

// Tensor4 is a dense rank-4 tensor in O×C×H×W layout (convolution weights:
// O output channels, each a C×H×W kernel).
type Tensor4 struct {
	O, C, H, W int
	// Data is the backing slice in O-major order.
	Data []float64
}

// NewTensor4 allocates a zeroed O×C×H×W tensor, panicking on non-positive
// dimensions.
func NewTensor4(o, c, h, w int) *Tensor4 {
	if o <= 0 || c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid Tensor4 dims %dx%dx%dx%d", o, c, h, w))
	}
	return &Tensor4{O: o, C: c, H: h, W: w, Data: make([]float64, o*c*h*w)}
}

// At returns the element for output channel o, input channel c, position y,x.
func (t *Tensor4) At(o, c, y, x int) float64 {
	return t.Data[((o*t.C+c)*t.H+y)*t.W+x]
}

// Set assigns the element for output channel o, input channel c, position y,x.
func (t *Tensor4) Set(o, c, y, x int, v float64) {
	t.Data[((o*t.C+c)*t.H+y)*t.W+x] = v
}

// Len returns the number of elements.
func (t *Tensor4) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor4) Clone() *Tensor4 {
	out := NewTensor4(t.O, t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// Equal reports exact element-wise equality of shape and contents.
func (t *Tensor4) Equal(o *Tensor4) bool {
	if t.O != o.O || t.C != o.C || t.H != o.H || t.W != o.W {
		return false
	}
	for i, v := range t.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// String renders a compact shape description.
func (t *Tensor4) String() string {
	return fmt.Sprintf("Tensor4(%dx%dx%dx%d)", t.O, t.C, t.H, t.W)
}

// Matrix is a dense row-major matrix: a crossbar's cell contents, or a
// weight tile programmed into them.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix, panicking on non-positive
// dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid Matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes mᵀ·in — the crossbar operation: in drives the rows and the
// result accumulates down each column — returning a vector of length Cols.
// It panics when len(in) != Rows.
func (m *Matrix) MulVec(in []float64) []float64 {
	if len(in) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVec input %d, matrix rows %d", len(in), m.Rows))
	}
	out := make([]float64, m.Cols)
	for r, v := range in {
		if v == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, w := range row {
			out[c] += v * w
		}
	}
	return out
}

// NonZero returns the number of non-zero cells.
func (m *Matrix) NonZero() int64 {
	var n int64
	for _, v := range m.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Equal reports exact equality of shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// String renders the full matrix; intended for small test matrices.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 256 {
		for r := 0; r < m.Rows; r++ {
			b.WriteString("\n ")
			for c := 0; c < m.Cols; c++ {
				fmt.Fprintf(&b, " %g", m.At(r, c))
			}
		}
	}
	return b.String()
}
