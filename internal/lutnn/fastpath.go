package lutnn

// Fused, blocked, zero-allocation host kernels for the LUT-NN hot path
// (DESIGN.md §9). The reference kernels (searchSerial, lookupSerial) are
// row-at-a-time and allocation-heavy; the kernels here are:
//
//   - parallel over row chunks on the shared bounded pool
//     (internal/parallel), with a chunk grid that is a pure function of
//     the problem size, so outputs are bit-identical at any GOMAXPROCS;
//   - blocked: lookup/accumulate walks feature tiles of fTile floats with
//     the codebook loop outside the row loop, keeping one codebook's
//     CT×fTile table slab L1-resident across a row block instead of
//     re-streaming the whole CB×CT×F table per row;
//   - specialised for the paper's V=2/V=4 sub-vector widths in CCS, with
//     the dot product unrolled in the same association order as the
//     generic loop (bit-exact);
//   - zero-allocation: the *Into variants write into caller storage and
//     draw all scratch (centroid norms, INT8 accumulators, fused index
//     tiles) from a sync.Pool arena, so steady-state inference performs
//     no heap allocations per layer.
//
// Every kernel accumulates each output element over codebooks in
// ascending cb order — exactly the order of the serial references — so
// the golden tests in fastpath_test.go can require bit-identical results.
//
// The row kernels take idx-tile row offsets (idxRow0/dstRow0) so the
// fused forward can run them against an rBlock-row scratch tile while
// still addressing activations and outputs by global row.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/vec"
)

const (
	// fTile is the feature-tile width in elements. 256 float32s = 1 KiB
	// per row slice; a CT=16 codebook's tile slab is ≤16 KiB, which stays
	// L1-resident across a row block.
	fTile = 256
	// rBlock is the row-block height for the INT8 accumulator tile and
	// the fused forward's index tile (rBlock·fTile int32s = 16 KiB).
	rBlock = 16
)

// arena is the recycled scratch for one kernel chunk. Slices grow to the
// high-water mark and are reused; Get/Put through a sync.Pool makes the
// steady state allocation-free.
type arena struct {
	i32 []int32
	u8  []uint8
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

//pimdl:hotpath
func (a *arena) int32s(n int) []int32 {
	if cap(a.i32) < n {
		//pimdl:lint-ignore hotpath grow-to-high-water: amortised to zero by the sync.Pool arena
		a.i32 = make([]int32, n)
	}
	return a.i32[:n]
}

//pimdl:hotpath
func (a *arena) uint8s(n int) []uint8 {
	if cap(a.u8) < n {
		//pimdl:lint-ignore hotpath grow-to-high-water: amortised to zero by the sync.Pool arena
		a.u8 = make([]uint8, n)
	}
	return a.u8[:n]
}

// --- CCS (closest-centroid search) ----------------------------------------

// searchJob is the pooled dispatch context for SearchInto.
type searchJob struct {
	c     *Codebooks
	acts  []float32
	h     int
	dst   []uint8
	norms []float32 // ‖centroid‖² scratch, reused across calls
}

var searchJobPool = sync.Pool{New: func() any { return new(searchJob) }}

// SearchInto runs closest-centroid search over acts (N×H) into dst, the
// caller-owned N×CB row-major index matrix. It is the zero-allocation,
// parallel form of Search: results are bit-identical to searchSerial at
// any GOMAXPROCS. It panics on a shape mismatch.
//
//pimdl:hotpath
func (c *Codebooks) SearchInto(dst []uint8, acts *tensor.Tensor) {
	n, h := acts.Dim(0), acts.Dim(1)
	if h != c.CB*c.V {
		panic(fmt.Sprintf("lutnn: activation width %d != CB·V = %d", h, c.CB*c.V))
	}
	if len(dst) != n*c.CB {
		panic(fmt.Sprintf("lutnn: index buffer length %d != N·CB = %d", len(dst), n*c.CB))
	}
	j := searchJobPool.Get().(*searchJob)
	j.c, j.acts, j.h, j.dst = c, acts.Data, h, dst
	j.norms = normsInto(j.norms, c)
	parallel.ForCtx(n, n*c.CB*c.CT*2*c.V, j, searchChunk)
	j.c, j.acts, j.dst = nil, nil, nil
	searchJobPool.Put(j)
}

// normsInto computes ‖c‖² for every centroid into buf (grown as needed).
//
//pimdl:hotpath
func normsInto(buf []float32, c *Codebooks) []float32 {
	n := c.CB * c.CT
	if cap(buf) < n {
		//pimdl:lint-ignore hotpath grow-to-high-water: pooled job keeps the buffer across calls
		buf = make([]float32, n)
	}
	buf = buf[:n]
	for i := range buf {
		v := c.Data[i*c.V : (i+1)*c.V]
		var s float32
		for _, x := range v {
			s += x * x
		}
		buf[i] = s
	}
	return buf
}

//pimdl:hotpath
func searchChunk(ctx any, lo, hi int) {
	j := ctx.(*searchJob)
	searchRows(j.c, j.norms, j.acts, j.h, j.dst, 0, lo, hi)
}

// searchRows dispatches to the V-specialised CCS row kernel. dst holds
// (at least) hi-dstRow0 index rows: global row i lands at tile row
// i-dstRow0, so callers pass dstRow0=0 for a full N×CB matrix or
// dstRow0=lo for a chunk-local tile.
//
//pimdl:hotpath
func searchRows(c *Codebooks, norms, acts []float32, h int, dst []uint8, dstRow0, lo, hi int) {
	switch c.V {
	case 4:
		searchRows4(c, norms, acts, h, dst, dstRow0, lo, hi)
	case 2:
		searchRows2(c, norms, acts, h, dst, dstRow0, lo, hi)
	default:
		searchRowsGeneric(c, norms, acts, h, dst, dstRow0, lo, hi)
	}
}

// searchRows4 is CCS specialised for V=4 (the paper's main setting): the
// sub-vector is held in registers and the dot product unrolled in the
// same association order as the generic loop, so results stay bit-exact.
// Rows are processed in pairs so each centroid load serves two dot
// products, halving load-port pressure on the inner loop.
//
//pimdl:hotpath
func searchRows4(c *Codebooks, norms, acts []float32, h int, dst []uint8, dstRow0, lo, hi int) {
	cbs, ct := c.CB, c.CT
	data := c.Data
	i := lo
	for ; i+1 < hi; i += 2 {
		rowA := acts[i*h : i*h+h]
		rowB := acts[(i+1)*h : (i+1)*h+h]
		diA := (i - dstRow0) * cbs
		diB := diA + cbs
		for cb := 0; cb < cbs; cb++ {
			ta := rowA[cb*4 : cb*4+4 : cb*4+4]
			a0, a1, a2, a3 := ta[0], ta[1], ta[2], ta[3]
			tb := rowB[cb*4 : cb*4+4 : cb*4+4]
			b0, b1, b2, b3 := tb[0], tb[1], tb[2], tb[3]
			base := cb * ct
			nb := norms[base : base+ct]
			cents := data[base*4 : (base+ct)*4]
			bestA, bestB := 0, 0
			bdA := float32(math.MaxFloat32)
			bdB := float32(math.MaxFloat32)
			k := 0
			// Four centroids per iteration × two rows: eight independent
			// dot-product chains for ILP, each centroid load shared by both
			// rows, one bounds check per group, and compares kept in
			// ascending order so ties resolve exactly like the reference.
			for ; k+3 < ct; k += 4 {
				c16 := cents[:16:16]
				cents = cents[16:]
				dA0 := nb[k] - 2*(a0*c16[0]+a1*c16[1]+a2*c16[2]+a3*c16[3])
				dB0 := nb[k] - 2*(b0*c16[0]+b1*c16[1]+b2*c16[2]+b3*c16[3])
				dA1 := nb[k+1] - 2*(a0*c16[4]+a1*c16[5]+a2*c16[6]+a3*c16[7])
				dB1 := nb[k+1] - 2*(b0*c16[4]+b1*c16[5]+b2*c16[6]+b3*c16[7])
				dA2 := nb[k+2] - 2*(a0*c16[8]+a1*c16[9]+a2*c16[10]+a3*c16[11])
				dB2 := nb[k+2] - 2*(b0*c16[8]+b1*c16[9]+b2*c16[10]+b3*c16[11])
				dA3 := nb[k+3] - 2*(a0*c16[12]+a1*c16[13]+a2*c16[14]+a3*c16[15])
				dB3 := nb[k+3] - 2*(b0*c16[12]+b1*c16[13]+b2*c16[14]+b3*c16[15])
				if dA0 < bdA {
					bdA, bestA = dA0, k
				}
				if dA1 < bdA {
					bdA, bestA = dA1, k+1
				}
				if dA2 < bdA {
					bdA, bestA = dA2, k+2
				}
				if dA3 < bdA {
					bdA, bestA = dA3, k+3
				}
				if dB0 < bdB {
					bdB, bestB = dB0, k
				}
				if dB1 < bdB {
					bdB, bestB = dB1, k+1
				}
				if dB2 < bdB {
					bdB, bestB = dB2, k+2
				}
				if dB3 < bdB {
					bdB, bestB = dB3, k+3
				}
			}
			for ; k < ct; k++ {
				c4 := cents[:4:4]
				cents = cents[4:]
				dA := nb[k] - 2*(a0*c4[0]+a1*c4[1]+a2*c4[2]+a3*c4[3])
				dB := nb[k] - 2*(b0*c4[0]+b1*c4[1]+b2*c4[2]+b3*c4[3])
				if dA < bdA {
					bdA, bestA = dA, k
				}
				if dB < bdB {
					bdB, bestB = dB, k
				}
			}
			dst[diA+cb] = uint8(bestA)
			dst[diB+cb] = uint8(bestB)
		}
	}
	for ; i < hi; i++ {
		row := acts[i*h : i*h+h]
		di := (i - dstRow0) * cbs
		for cb := 0; cb < cbs; cb++ {
			t := row[cb*4 : cb*4+4 : cb*4+4]
			t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
			base := cb * ct
			nb := norms[base : base+ct]
			cents := data[base*4 : (base+ct)*4]
			best := 0
			bd := float32(math.MaxFloat32)
			for k := range nb {
				c4 := cents[:4:4]
				cents = cents[4:]
				dot := t0*c4[0] + t1*c4[1] + t2*c4[2] + t3*c4[3]
				if d := nb[k] - 2*dot; d < bd {
					bd, best = d, k
				}
			}
			dst[di+cb] = uint8(best)
		}
	}
}

// searchRows2 is CCS specialised for V=2.
//
//pimdl:hotpath
func searchRows2(c *Codebooks, norms, acts []float32, h int, dst []uint8, dstRow0, lo, hi int) {
	cbs, ct := c.CB, c.CT
	data := c.Data
	for i := lo; i < hi; i++ {
		row := acts[i*h : i*h+h]
		di := (i - dstRow0) * cbs
		for cb := 0; cb < cbs; cb++ {
			t := row[cb*2 : cb*2+2 : cb*2+2]
			t0, t1 := t[0], t[1]
			base := cb * ct
			nb := norms[base : base+ct]
			cents := data[base*2 : (base+ct)*2]
			best := 0
			bd := float32(math.MaxFloat32)
			for k := range nb {
				c2 := cents[:2:2]
				cents = cents[2:]
				dot := t0*c2[0] + t1*c2[1]
				if d := nb[k] - 2*dot; d < bd {
					bd, best = d, k
				}
			}
			dst[di+cb] = uint8(best)
		}
	}
}

// searchRowsGeneric handles arbitrary V with the same inner loop as the
// serial reference.
//
//pimdl:hotpath
func searchRowsGeneric(c *Codebooks, norms, acts []float32, h int, dst []uint8, dstRow0, lo, hi int) {
	cbs, ct, v := c.CB, c.CT, c.V
	data := c.Data
	for i := lo; i < hi; i++ {
		row := acts[i*h : i*h+h]
		di := (i - dstRow0) * cbs
		for cb := 0; cb < cbs; cb++ {
			tile := row[cb*v : (cb+1)*v]
			base := cb * ct
			best := 0
			bd := float32(math.MaxFloat32)
			for k := 0; k < ct; k++ {
				cent := data[(base+k)*v : (base+k+1)*v]
				var dot float32
				for x := range tile {
					dot += tile[x] * cent[x]
				}
				if d := norms[base+k] - 2*dot; d < bd {
					bd, best = d, k
				}
			}
			dst[di+cb] = uint8(best)
		}
	}
}

// --- FP32 table lookup -----------------------------------------------------

// lookupJob is the pooled dispatch context for LUT.LookupInto.
type lookupJob struct {
	l   *LUT
	idx []uint8
	out []float32
}

var lookupJobPool = sync.Pool{New: func() any { return new(lookupJob) }}

// LookupInto executes the blocked table-lookup/accumulate kernel into the
// caller-owned N×F tensor out (overwritten), performing no heap
// allocations. Results are bit-identical to lookupSerial at any
// GOMAXPROCS. It panics on a shape mismatch.
//
//pimdl:hotpath
func (l *LUT) LookupInto(out *tensor.Tensor, idx []uint8, n int) {
	if len(idx) != n*l.CB {
		panic(fmt.Sprintf("lutnn: index matrix length %d != N·CB = %d", len(idx), n*l.CB))
	}
	if out.Rank() != 2 || out.Dim(0) != n || out.Dim(1) != l.F {
		panic(fmt.Sprintf("lutnn: lookup output shape %v != (%d,%d)", out.Shape(), n, l.F))
	}
	j := lookupJobPool.Get().(*lookupJob)
	j.l, j.idx, j.out = l, idx, out.Data
	parallel.ForCtx(n, n*l.CB*l.F, j, lookupChunk)
	j.l, j.idx, j.out = nil, nil, nil
	lookupJobPool.Put(j)
}

//pimdl:hotpath
func lookupChunk(ctx any, lo, hi int) {
	j := ctx.(*lookupJob)
	lookupRowsBlocked(j.l, j.idx, 0, j.out, lo, hi)
}

// lookupRowsBlocked accumulates rows [lo, hi) in row blocks small enough
// that the destination block stays L1-resident across the whole codebook
// loop (lookupRBlock×F floats), with the codebook loop outside the row
// loop so rows in a block share each codebook's centroid slices. The
// innermost accumulate is a vec leaf, one output element per vector
// lane, so per output element the codebooks still add in ascending
// order, matching the serial reference bit for bit. idx rows
// are addressed relative to idxRow0 (0 for a full N×CB matrix, lo for a
// chunk-local tile).
//
//pimdl:hotpath
func lookupRowsBlocked(l *LUT, idx []uint8, idxRow0 int, out []float32, lo, hi int) {
	cbs, ct, f := l.CB, l.CT, l.F
	data := l.Data
	if cbs < 4 {
		for i := lo; i < hi; i++ {
			clear(out[i*f : (i+1)*f])
		}
	}
	for i0 := lo; i0 < hi; i0 += lookupRBlock {
		i1 := i0 + lookupRBlock
		if i1 > hi {
			i1 = hi
		}
		cb := 0
		if cbs >= 4 {
			// The first codebook group initialises the output instead of
			// accumulating into a cleared buffer: one pass of stores
			// replaces the clear pass plus the first group's dst reload.
			for i := i0; i < i1; i++ {
				ir := (i - idxRow0) * cbs
				s0 := int(idx[ir]) * f
				s1 := (ct + int(idx[ir+1])) * f
				s2 := (2*ct + int(idx[ir+2])) * f
				s3 := (3*ct + int(idx[ir+3])) * f
				vec.Init4F32(out[i*f:(i+1)*f:(i+1)*f],
					data[s0:s0+f:s0+f], data[s1:s1+f:s1+f],
					data[s2:s2+f:s2+f], data[s3:s3+f:s3+f])
			}
			cb = 4
		}
		for ; cb+3 < cbs; cb += 4 {
			for i := i0; i < i1; i++ {
				ir := (i - idxRow0) * cbs
				s0 := (cb*ct + int(idx[ir+cb])) * f
				s1 := ((cb+1)*ct + int(idx[ir+cb+1])) * f
				s2 := ((cb+2)*ct + int(idx[ir+cb+2])) * f
				s3 := ((cb+3)*ct + int(idx[ir+cb+3])) * f
				vec.Add4F32(out[i*f:(i+1)*f:(i+1)*f],
					data[s0:s0+f:s0+f], data[s1:s1+f:s1+f],
					data[s2:s2+f:s2+f], data[s3:s3+f:s3+f])
			}
		}
		for ; cb < cbs; cb++ {
			base := cb * ct
			for i := i0; i < i1; i++ {
				so := (base + int(idx[(i-idxRow0)*cbs+cb])) * f
				vec.AddF32(out[i*f:(i+1)*f:(i+1)*f], data[so:so+f:so+f])
			}
		}
	}
}

// lookupRBlock is the row-block height for the FP32 lookup: 8 rows × 3
// KiB (F=768) keeps the destination block L1-resident across all
// codebooks while rows in the block share centroid slices.
const lookupRBlock = 8

// --- INT8 table lookup -----------------------------------------------------

// qlookupJob is the pooled dispatch context for QuantizedLUT.LookupInto.
type qlookupJob struct {
	q   *QuantizedLUT
	idx []uint8
	out []float32
}

var qlookupJobPool = sync.Pool{New: func() any { return new(qlookupJob) }}

// LookupInto is the blocked, zero-allocation INT8 lookup kernel: entries
// accumulate in an int32 tile drawn from the scratch arena and are
// rescaled once per feature tile. Integer accumulation is exact, so the
// result is bit-identical to lookupSerial regardless of blocking. It
// panics on a shape mismatch.
//
//pimdl:hotpath
func (q *QuantizedLUT) LookupInto(out *tensor.Tensor, idx []uint8, n int) {
	if len(idx) != n*q.CB {
		panic("lutnn: index matrix length mismatch")
	}
	if out.Rank() != 2 || out.Dim(0) != n || out.Dim(1) != q.F {
		panic(fmt.Sprintf("lutnn: lookup output shape %v != (%d,%d)", out.Shape(), n, q.F))
	}
	j := qlookupJobPool.Get().(*qlookupJob)
	j.q, j.idx, j.out = q, idx, out.Data
	parallel.ForCtx(n, n*q.CB*q.F, j, qlookupChunk)
	j.q, j.idx, j.out = nil, nil, nil
	qlookupJobPool.Put(j)
}

//pimdl:hotpath
func qlookupChunk(ctx any, lo, hi int) {
	j := ctx.(*qlookupJob)
	a := arenaPool.Get().(*arena)
	qlookupRowsBlocked(j.q, j.idx, 0, j.out, a, lo, hi)
	arenaPool.Put(a)
}

// qlookupRowsBlocked processes rows [lo, hi) in rBlock×fTile int32
// accumulator tiles (16 KiB, L1-resident), codebook loop outside the row
// loop inside each tile. idx rows are addressed relative to idxRow0.
//
//pimdl:hotpath
func qlookupRowsBlocked(q *QuantizedLUT, idx []uint8, idxRow0 int, out []float32, a *arena, lo, hi int) {
	cbs, ct, f := q.CB, q.CT, q.F
	data := q.Data
	scale := q.Scale
	acc := a.int32s(rBlock * fTile)
	for i0 := lo; i0 < hi; i0 += rBlock {
		i1 := i0 + rBlock
		if i1 > hi {
			i1 = hi
		}
		for f0 := 0; f0 < f; f0 += fTile {
			f1 := f0 + fTile
			if f1 > f {
				f1 = f
			}
			w := f1 - f0
			clear(acc[:(i1-i0)*w])
			cb := 0
			for ; cb+3 < cbs; cb += 4 {
				for i := i0; i < i1; i++ {
					ir := (i - idxRow0) * cbs
					s0 := (cb*ct+int(idx[ir+cb]))*f + f0
					s1 := ((cb+1)*ct+int(idx[ir+cb+1]))*f + f0
					s2 := ((cb+2)*ct+int(idx[ir+cb+2]))*f + f0
					s3 := ((cb+3)*ct+int(idx[ir+cb+3]))*f + f0
					vec.Add4I8(acc[(i-i0)*w:(i-i0+1)*w:(i-i0+1)*w],
						data[s0:s0+w:s0+w], data[s1:s1+w:s1+w],
						data[s2:s2+w:s2+w], data[s3:s3+w:s3+w])
				}
			}
			for ; cb < cbs; cb++ {
				base := cb * ct
				for i := i0; i < i1; i++ {
					so := (base+int(idx[(i-idxRow0)*cbs+cb]))*f + f0
					vec.AddI8(acc[(i-i0)*w:(i-i0+1)*w:(i-i0+1)*w], data[so:so+w:so+w])
				}
			}
			for i := i0; i < i1; i++ {
				src := acc[(i-i0)*w : (i-i0+1)*w]
				dst := out[i*f+f0 : i*f+f1 : i*f+f1]
				for k, v := range src {
					dst[k] = float32(v) * scale
				}
			}
		}
	}
}

// --- Fused forward ---------------------------------------------------------

// forwardJob is the pooled dispatch context for Layer.ForwardInto.
type forwardJob struct {
	ly    *Layer
	acts  []float32
	h     int
	out   []float32
	norms []float32
	bias  []float32 // nil when the layer has no bias
}

var forwardJobPool = sync.Pool{New: func() any { return new(forwardJob) }}

// ForwardInto runs the fused LUT-NN inference path (CCS + table lookup +
// bias) into the caller-owned N×F tensor out, performing no heap
// allocations in steady state. CCS indices live only in an rBlock×CB
// scratch tile per worker — they never round-trip through a full N×CB
// buffer. Results are bit-identical to searchSerial + lookupSerial +
// AddBias at any GOMAXPROCS. It panics on a shape mismatch.
//
//pimdl:hotpath
func (ly *Layer) ForwardInto(out *tensor.Tensor, acts *tensor.Tensor) {
	c := ly.Codebooks
	n, h := acts.Dim(0), acts.Dim(1)
	if h != c.CB*c.V {
		panic(fmt.Sprintf("lutnn: activation width %d != CB·V = %d", h, c.CB*c.V))
	}
	f := ly.Table.F
	if ly.QTable != nil {
		f = ly.QTable.F
	}
	if out.Rank() != 2 || out.Dim(0) != n || out.Dim(1) != f {
		panic(fmt.Sprintf("lutnn: forward output shape %v != (%d,%d)", out.Shape(), n, f))
	}
	if ly.Bias != nil && ly.Bias.Size() != f {
		panic(fmt.Sprintf("lutnn: bias length %d != F = %d", ly.Bias.Size(), f))
	}
	j := forwardJobPool.Get().(*forwardJob)
	j.ly, j.acts, j.h, j.out = ly, acts.Data, h, out.Data
	j.norms = normsInto(j.norms, c)
	j.bias = nil
	if ly.Bias != nil {
		j.bias = ly.Bias.Data
	}
	work := n*c.CB*c.CT*2*c.V + n*c.CB*f
	parallel.ForCtx(n, work, j, forwardChunk)
	j.ly, j.acts, j.out, j.bias = nil, nil, nil, nil
	forwardJobPool.Put(j)
}

// forwardChunk fuses CCS and lookup per rBlock-row tile: indices are
// written to a worker-local scratch tile and consumed immediately while
// the activation rows are still cache-hot.
//
//pimdl:hotpath
func forwardChunk(ctx any, lo, hi int) {
	j := ctx.(*forwardJob)
	ly := j.ly
	c := ly.Codebooks
	a := arenaPool.Get().(*arena)
	idxTile := a.uint8s(rBlock * c.CB)
	for i0 := lo; i0 < hi; i0 += rBlock {
		i1 := i0 + rBlock
		if i1 > hi {
			i1 = hi
		}
		tile := idxTile[:(i1-i0)*c.CB]
		searchRows(c, j.norms, j.acts, j.h, tile, i0, i0, i1)
		if ly.QTable != nil {
			qlookupRowsBlocked(ly.QTable, tile, i0, j.out, a, i0, i1)
		} else {
			lookupRowsBlocked(ly.Table, tile, i0, j.out, i0, i1)
		}
		if j.bias != nil {
			f := len(j.bias)
			for i := i0; i < i1; i++ {
				dst := j.out[i*f : (i+1)*f : (i+1)*f]
				for k, b := range j.bias {
					dst[k] += b
				}
			}
		}
	}
	arenaPool.Put(a)
}
