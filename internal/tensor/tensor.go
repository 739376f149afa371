// Package tensor provides a small dense float32 tensor library used by all
// higher layers of PIM-DL: the LUT-NN kernels, the autograd engine, the
// transformer stack, and the simulators.
//
// Tensors are row-major and contiguous. The package favours predictable
// memory behaviour over generality: there are no views with non-unit
// strides, and every op either writes into a caller-supplied destination or
// allocates a fresh tensor.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 array with a shape.
type Tensor struct {
	Data  []float32
	shape []int
}

// New creates a zero-filled tensor with the given shape. It panics on
// non-positive dimensions.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data (not copied) in a tensor with the given shape. It
// panics if the shape's element count does not equal len(data); loaders
// validating external input must check sizes first (see internal/serial).
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
//
//pimdl:hotpath
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
//
//pimdl:hotpath
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
//
//pimdl:hotpath
func (t *Tensor) Size() int { return len(t.Data) }

// At returns the element at the given indices.
//
//pimdl:lint-ignore deadexport indexed read the tensor, autograd and lutnn tests share
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set writes v at the given indices.
//
//pimdl:lint-ignore deadexport indexed write the tensor, autograd and lutnn tests share
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

// offset panics when idx has the wrong arity or indexes out of range,
// giving At/Set Go's slice-indexing contract.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. The total
// element count must match or Reshape panics.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}
}

// Row returns a slice aliasing row r of a rank-2 tensor; it panics on
// other ranks.
func (t *Tensor) Row(r int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires rank-2 tensor")
	}
	c := t.shape[1]
	return t.Data[r*c : (r+1)*c]
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// RandN creates a tensor with values drawn from N(0, std²) using rng.
func RandN(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// RandU creates a tensor with values drawn uniformly from [lo, hi).
func RandU(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return t
}

// XavierInit creates a tensor initialized with Xavier/Glorot uniform scaling
// for a layer with the given fan-in and fan-out.
func XavierInit(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandU(rng, -limit, limit, shape...)
}

// Equal reports whether a and b have identical shapes and bit-identical
// elements. This is the bit-exactness oracle the LUT-vs-GEMM equivalence
// tests rely on; use MaxAbsDiff for tolerance comparisons.
func Equal(a, b *Tensor) bool {
	if !sameShape(a.shape, b.shape) {
		return false
	}
	for i := range a.Data {
		//pimdl:lint-ignore float-compare bit-exact identity is this oracle's documented contract
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, which must have the same shape (it panics otherwise).
func MaxAbsDiff(a, b *Tensor) float64 {
	if !sameShape(a.shape, b.shape) {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}
