package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// MatMul computes C = A·B for A (m×k) and B (k×n). It panics if the
// operands are not rank-2 or the inner dimensions disagree — shape bugs
// at this level are programmer errors, caught by the shape-guarded entry
// points above.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic("tensor: MatMul inner dimension mismatch")
	}
	n := b.Dim(1)
	c := New(m, n)
	matmulInto(c.Data, a.Data, b.Data, m, k, n)
	return c
}

// MatMulT computes C = A·Bᵀ for A (m×k) and B (n×k). This is the layout
// used throughout PIM-DL: weights are stored (F×H) and activations (N×H),
// matching the paper's LUT construction convention. It panics on rank or
// inner-dimension mismatch.
func MatMulT(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	if b.Dim(1) != k {
		panic("tensor: MatMulT inner dimension mismatch")
	}
	n := b.Dim(0)
	c := New(m, n)
	MatMulTInto(c, a, b)
	return c
}

// MatMulTInto computes C = A·Bᵀ into a caller-owned tensor (no
// allocation), sharing the row kernel with MatMulT. It panics on rank or
// shape mismatch.
func MatMulTInto(c, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 {
		panic("tensor: MatMulTInto requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	if b.Dim(1) != k {
		panic("tensor: MatMulTInto inner dimension mismatch")
	}
	n := b.Dim(0)
	if c.Dim(0) != m || c.Dim(1) != n {
		panic("tensor: MatMulTInto output shape mismatch")
	}
	parallelRows(m, 2*m*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			MatVecTInto(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n, k)
		}
	})
}

// MatVecTInto computes one row of A·Bᵀ: dst[j] = Σ_p a[p]·B[j][p] for B
// an n×k row-major matrix given as a flat slice. This is the exact inner
// kernel of MatMulT, exported so the decode fastpath's single-row
// projections are bit-identical to the batched path. It panics on a
// shape mismatch.
//
// The kernel is register-tiled four outputs wide: each pass over a loads
// a[p] once and feeds it to four B rows, so four independent add chains
// are in flight instead of one. Tiling changes no arithmetic. Every
// output still keeps its own float32 accumulator, starting at zero and
// summing a[p]·B[j][p] in ascending p, exactly as the one-output loop
// that remains for the n%4 tail does, so each result is bit-identical
// to the untiled kernel's.
//
//pimdl:hotpath
func MatVecTInto(dst, a, b []float32, n, k int) {
	if len(dst) != n || len(a) != k || len(b) != n*k {
		panic(fmt.Sprintf("tensor: MatVecTInto shapes dst=%d a=%d b=%d want n=%d k=%d n*k=%d",
			len(dst), len(a), len(b), n, k, n*k))
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		// Reslicing each row to len(a) lets the compiler drop the
		// inner-loop bounds checks.
		b0 := b[j*k:][:len(a)]
		b1 := b[(j+1)*k:][:len(a)]
		b2 := b[(j+2)*k:][:len(a)]
		b3 := b[(j+3)*k:][:len(a)]
		var s0, s1, s2, s3 float32
		for p, av := range a {
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		d := dst[j : j+4]
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		br := b[j*k:][:len(a)]
		var s float32
		for p, av := range a {
			s += av * br[p]
		}
		dst[j] = s
	}
}

// matmulInto computes c += a·b with c pre-zeroed, using an ikj loop order
// that streams b rows and accumulates into c rows (cache friendly for
// row-major data).
func matmulInto(c, a, b []float32, m, k, n int) {
	parallelRows(m, 2*m*k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cr := c[i*n : (i+1)*n]
			ar := a[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				av := ar[p]
				//pimdl:lint-ignore float-compare exact-zero sparsity fast path; any nonzero value must multiply
				if av == 0 {
					continue
				}
				br := b[p*n : (p+1)*n]
				for j := range cr {
					cr[j] += av * br[j]
				}
			}
		}
	})
}

// parallelRows splits [0, m) into deterministic chunks on the shared
// worker pool (internal/parallel). work is the approximate FLOP count
// used to decide whether parallelism is worthwhile.
func parallelRows(m int, work int, f func(lo, hi int)) {
	parallel.For(m, work, f)
}

// Transpose returns Aᵀ for a rank-2 tensor. It panics on other ranks.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank-2 tensor")
	}
	m, n := a.Dim(0), a.Dim(1)
	t := New(n, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			t.Data[j*m+i] = v
		}
	}
	return t
}

// AddBias adds a length-n bias vector to every row of an m×n matrix, in
// place, and returns the matrix. It panics on rank or length mismatch.
func AddBias(a *Tensor, bias *Tensor) *Tensor {
	if a.Rank() != 2 || bias.Rank() != 1 {
		panic("tensor: AddBias wants matrix and vector")
	}
	n := a.Dim(1)
	if bias.Dim(0) != n {
		panic("tensor: AddBias length mismatch")
	}
	m := a.Dim(0)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] += bias.Data[j]
		}
	}
	return a
}
