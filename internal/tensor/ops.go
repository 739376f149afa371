package tensor

import "math"

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame("Add", a, b)
	c := a.Clone()
	for i, v := range b.Data {
		c.Data[i] += v
	}
	return c
}

// Sub returns a − b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSame("Sub", a, b)
	c := a.Clone()
	for i, v := range b.Data {
		c.Data[i] -= v
	}
	return c
}

// Scale returns s·a.
func Scale(a *Tensor, s float32) *Tensor {
	c := a.Clone()
	for i := range c.Data {
		c.Data[i] *= s
	}
	return c
}

// AddInPlace computes a += b and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	checkSame("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
	return a
}

// AXPY computes a += s·b and returns a.
func AXPY(a *Tensor, s float32, b *Tensor) *Tensor {
	checkSame("AXPY", a, b)
	for i, v := range b.Data {
		a.Data[i] += s * v
	}
	return a
}

// checkSame panics unless a and b share a shape — the in-place
// elementwise ops above document this contract.
func checkSame(op string, a, b *Tensor) {
	if !sameShape(a.shape, b.shape) {
		panic("tensor: " + op + " shape mismatch")
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of a rank-2
// tensor, returning a new tensor. It panics on other ranks.
func SoftmaxRows(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: SoftmaxRows requires rank-2 tensor")
	}
	m, n := a.Dim(0), a.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		SoftmaxRowInto(out.Data[i*n:(i+1)*n], a.Data[i*n:(i+1)*n])
	}
	return out
}

// SoftmaxRowInto writes softmax(src) into dst (same length, may alias).
// SoftmaxRows and the plain attention core (in place, one score row at
// a time) share it.
//
//pimdl:hotpath
func SoftmaxRowInto(dst, src []float32) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for j, v := range src {
		e := float32(math.Exp(float64(v - maxv)))
		dst[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range dst {
		dst[j] *= inv
	}
}

// LayerNormRows normalizes each row to zero mean and unit variance, then
// applies the elementwise affine transform gamma, beta (length = row width).
// It panics if a is not rank-2.
func LayerNormRows(a, gamma, beta *Tensor, eps float32) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: LayerNormRows requires rank-2 tensor")
	}
	out := New(a.Dim(0), a.Dim(1))
	LayerNormRowsInto(out, a, gamma, beta, eps)
	return out
}

// LayerNormRowsInto is LayerNormRows into caller-owned dst, which may
// alias a. The decode fastpath reuses its dst across steps. It panics
// if a is not rank-2 or dst does not have a's shape.
func LayerNormRowsInto(dst, a, gamma, beta *Tensor, eps float32) {
	if a.Rank() != 2 || dst.Rank() != 2 || dst.Dim(0) != a.Dim(0) || dst.Dim(1) != a.Dim(1) {
		panic("tensor: LayerNormRowsInto shape mismatch")
	}
	m, n := a.Dim(0), a.Dim(1)
	for i := 0; i < m; i++ {
		layerNormRowInto(dst.Data[i*n:(i+1)*n], a.Data[i*n:(i+1)*n], gamma.Data, beta.Data, eps)
	}
}

// layerNormRowInto layer-normalizes one row into dst (same length as
// src; may alias).
func layerNormRowInto(dst, src, gamma, beta []float32, eps float32) {
	n := len(src)
	var mean float32
	for _, v := range src {
		mean += v
	}
	mean /= float32(n)
	var varSum float32
	for _, v := range src {
		d := v - mean
		varSum += d * d
	}
	inv := 1 / float32(math.Sqrt(float64(varSum/float32(n)+eps)))
	for j, v := range src {
		dst[j] = (v-mean)*inv*gamma[j] + beta[j]
	}
}

// geluOps is the approximate scalar-op cost of one GELU element (a
// float64 tanh and a few multiplies) that sizes GELU's pool split.
const geluOps = 32

// GELU applies the tanh-approximated Gaussian error linear unit into a
// new tensor (see GELUInto).
func GELU(a *Tensor) *Tensor {
	return GELUInto(New(a.shape...), a)
}

// GELUInto applies GELU from src into dst, which must have src's shape
// and may alias it, and returns dst. It splits the rows (last-dimension
// slices) over the shared worker pool. The work is elementwise, so the
// result is the same at any worker count. It panics on a shape
// mismatch.
func GELUInto(dst, src *Tensor) *Tensor {
	checkSame("GELUInto", dst, src)
	cols := len(src.Data)
	if r := src.Rank(); r > 0 {
		cols = src.shape[r-1]
	}
	parallelRows(len(src.Data)/cols, geluOps*len(src.Data), func(lo, hi int) {
		GELURowInto(dst.Data[lo*cols:hi*cols], src.Data[lo*cols:hi*cols])
	})
	return dst
}

// GELURowInto applies GELU elementwise from src into dst (same length,
// may alias). Shared by GELU and the decode fastpath.
func GELURowInto(dst, src []float32) {
	for i, v := range src {
		dst[i] = geluScalar(v)
	}
}

func geluScalar(x float32) float32 {
	const c0 = 0.7978845608028654 // sqrt(2/pi)
	xf := float64(x)
	return float32(0.5 * xf * (1 + math.Tanh(c0*(xf+0.044715*xf*xf*xf))))
}

// ArgMaxRows returns, for each row of a rank-2 tensor, the column index of
// its largest element.
func ArgMaxRows(a *Tensor) []int {
	m, n := a.Dim(0), a.Dim(1)
	out := make([]int, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// RelativeError returns ‖a−b‖₂ / ‖b‖₂, a scale-free approximation error.
func RelativeError(a, b *Tensor) float64 {
	checkSame("RelativeError", a, b)
	var num, den float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		num += d * d
		den += float64(b.Data[i]) * float64(b.Data[i])
	}
	//pimdl:lint-ignore float-compare exact-zero norm is the degenerate case, not a tolerance test
	if den == 0 {
		//pimdl:lint-ignore float-compare exact-zero numerator distinguishes 0/0 from x/0
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// ConcatRows stacks rank-2 tensors with identical column counts
// vertically. It panics given no tensors or mismatched columns.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	cols := ts[0].Dim(1)
	rows := 0
	for _, t := range ts {
		if t.Rank() != 2 || t.Dim(1) != cols {
			panic("tensor: ConcatRows column mismatch")
		}
		rows += t.Dim(0)
	}
	out := New(rows, cols)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += len(t.Data)
	}
	return out
}

// SliceRows returns a copy of rows [lo, hi) of a rank-2 tensor. It panics
// if a is not rank-2 or the range is out of bounds.
func SliceRows(a *Tensor, lo, hi int) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: SliceRows requires rank-2 tensor")
	}
	n := a.Dim(1)
	out := New(hi-lo, n)
	copy(out.Data, a.Data[lo*n:hi*n])
	return out
}
