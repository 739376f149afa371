package tensor

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
	"repro/internal/vec"
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
	matmulInto(c.Data, a.Data, b.Data, m, k, n, k, 1)
	return c
}

// MatMulTN computes C = Aᵀ·B for A (k×m) and B (k×n) without forming
// Aᵀ: the MatMul kernel reads A column by column, in the same ascending
// order MatMul reads the rows of a transposed copy, so the result equals
// MatMul(Aᵀ, B) bit for bit. Weight and attention gradients (Gᵀ·X) use
// it. It panics on rank or inner-dimension mismatch.
func MatMulTN(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || b.Dim(0) != a.Dim(0) {
		panic("tensor: MatMulTN wants rank-2 A (k×m) and B (k×n)")
	}
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	matmulInto(c.Data, a.Data, b.Data, m, k, n, 1, m)
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

// matmulJob is one matmulInto call's operands, pooled so the dispatch
// does not allocate.
type matmulJob struct {
	c, a, b      []float32
	k, n, rs, ps int
}

var matmulJobPool = sync.Pool{New: func() any { return new(matmulJob) }}

// matmulInto computes c += A·b with c (m×n) pre-zeroed and b (k×n)
// row-major, where A (m×k) is read at a[i·rs + p·ps]: rs = k, ps = 1 is
// a row-major A (MatMul), rs = 1, ps = m its transpose (MatMulTN). Rows
// of c are split over the shared worker pool; each row is one chunk's
// alone, so the result does not depend on the worker count.
func matmulInto(c, a, b []float32, m, k, n, rs, ps int) {
	j := matmulJobPool.Get().(*matmulJob)
	j.c, j.a, j.b = c, a, b
	j.k, j.n, j.rs, j.ps = k, n, rs, ps
	parallel.ForCtx(m, 2*m*k*n, j, matmulChunk)
	j.c, j.a, j.b = nil, nil, nil
	matmulJobPool.Put(j)
}

// matmulChunk computes rows [lo, hi) of a matmulInto call. The ikj
// order streams b rows into a c row; each pass over the c row consumes
// four consecutive p, loading c[j] once, adding a[p]·b[p][j] for the
// four p in ascending order in a register and storing once. Every
// output thus receives the same float32-rounded products in the same
// order as the one-p-at-a-time loop, starting from the zeroed c, and is
// bit-identical to it; vec.AddScaled4F32 runs that four-p pass with one
// output per vector lane. An exactly-zero a[p] is skipped, not
// multiplied (skipping differs from adding 0·Inf, 0·NaN, or 0·x onto a
// −0 sum), so a group holding one falls back to the per-p loop, as does
// the k%4 tail. Each product is converted to float32 before the add so
// that no architecture fuses it into a multiply-add, which rounds once
// instead of twice.
//
//pimdl:hotpath
func matmulChunk(ctx any, lo, hi int) {
	job := ctx.(*matmulJob)
	a, b := job.a, job.b
	k, n, rs, ps := job.k, job.n, job.rs, job.ps
	for i := lo; i < hi; i++ {
		cr := job.c[i*n:][:n]
		p := 0
		for ; p+4 <= k; p += 4 {
			q := i*rs + p*ps
			a0, a1, a2, a3 := a[q], a[q+ps], a[q+2*ps], a[q+3*ps]
			b0, b1, b2, b3 := b[p*n:][:n], b[(p+1)*n:][:n], b[(p+2)*n:][:n], b[(p+3)*n:][:n]
			//pimdl:lint-ignore float-compare exact-zero sparsity fast path; a zero a[p] must be skipped, not multiplied, for bit-exactness
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				addScaledRow(cr, a0, b0)
				addScaledRow(cr, a1, b1)
				addScaledRow(cr, a2, b2)
				addScaledRow(cr, a3, b3)
				continue
			}
			vec.AddScaled4F32(cr, a0, a1, a2, a3, b0, b1, b2, b3)
		}
		for ; p < k; p++ {
			addScaledRow(cr, a[i*rs+p*ps], b[p*n:][:n])
		}
	}
}

// addScaledRow computes cr += av·br (same length), skipping an exactly
// zero av: matmulChunk's per-p loop.
//
//pimdl:hotpath
func addScaledRow(cr []float32, av float32, br []float32) {
	//pimdl:lint-ignore float-compare exact-zero sparsity fast path; any nonzero value must multiply
	if av == 0 {
		return
	}
	br = br[:len(cr)]
	for j := range cr {
		cr[j] += float32(av * br[j])
	}
}

// parallelRows splits [0, m) into deterministic chunks on the shared
// worker pool (internal/parallel). work is the approximate FLOP count
// used to decide whether parallelism is worthwhile.
func parallelRows(m int, work int, f func(lo, hi int)) {
	parallel.For(m, work, f)
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
