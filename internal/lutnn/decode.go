package lutnn

// Decode-specialized single-row kernels (DESIGN.md §14). Autoregressive
// generation runs the LUT-NN operators at N=1 — one activation row per
// step — where the batch kernels in fastpath.go degenerate: their row
// blocking amortizes centroid and table streaming across rows that a
// decode step does not have. The kernels here are tuned for the one-row
// case instead:
//
//   - SearchRowInto is CCS for a single row, V=4/V=2 specialised like
//     the batch kernels, plus centroid pruning: with cached ‖c‖² (the
//     same float32 norms the batch kernels use) and ‖c‖ in float64, the
//     Cauchy–Schwarz bound d ≥ ‖c‖² − 2‖a‖‖c‖ skips the V-wide dot
//     product for centroids that provably cannot beat the current best.
//     The bound is evaluated in float64 with a conservative guard so a
//     skipped centroid can never be one the float32 reference would
//     have picked — results stay bit-identical to searchSerial,
//     tie-breaks included.
//   - DecodeLUT/DecodeQLUT are tile-major relayouts of the tables,
//     Data[tile][cb][ct][w] instead of Data[cb][ct][f]: a one-row gather
//     walks codebooks within a feature tile, so consecutively accessed
//     slices sit CT·w floats apart instead of CT·F, and the destination
//     tile stays register/L1-resident across all CB accumulations.
//     Accumulation reuses vec.Init4F32/Add4F32/AddF32 (ascending-cb
//     association), so results are bit-identical to lookupSerial.
//   - Layer.ForwardRowInto fuses row CCS + row gather + bias with all
//     scratch from the shared arena pool — no allocations per token in
//     steady state. The decode layouts are built lazily on first use
//     and rebuilt if the tables change (RebuildTable/EnableINT8).

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/vec"
)

// decodeFTile is the feature-tile width of the decode gather layout.
// 128 float32s = 512 B per (cb, ct) slice — two cache lines streamed per
// codebook — while the destination tile stays L1-resident across all CB.
const decodeFTile = 128

// pruneSlackRel is the relative guard on the centroid pruning bound. The
// true float32 rounding error of d = norms[k] − 2·dot is below
// (V+2)·2⁻²⁴ ≈ 4e-7 of the operand magnitudes for the V ≤ 64 used here;
// 1e-5 leaves a ≥25× margin, so pruning can never skip a centroid the
// float32 reference would have selected.
const pruneSlackRel = 1e-5

// --- single-row CCS --------------------------------------------------------

// RowSearcher caches per-centroid norms for single-row CCS: ‖c‖² as
// float32 (bit-identical to the values searchSerial derives) and ‖c‖ as
// float64 for the pruning bound. Build once per codebook set and reuse
// across decode steps; the searcher is read-only after construction and
// safe for concurrent use.
type RowSearcher struct {
	c      *Codebooks
	norms  []float32
	cnorms []float64
}

// NewRowSearcher precomputes the norm caches for c.
func NewRowSearcher(c *Codebooks) *RowSearcher {
	s := &RowSearcher{c: c, norms: normsInto(nil, c)}
	s.cnorms = make([]float64, len(s.norms))
	for i := range s.cnorms {
		v := c.Data[i*c.V : (i+1)*c.V]
		var sq float64
		for _, x := range v {
			sq += float64(x) * float64(x)
		}
		s.cnorms[i] = math.Sqrt(sq)
	}
	return s
}

// SearchRowInto runs closest-centroid search for one activation row
// (length CB·V) into dst (length CB), returning the number of centroids
// whose dot product the pruning bound skipped. Results are bit-identical
// to searchSerial on the same row. It panics on a length mismatch.
//
//pimdl:hotpath
func (s *RowSearcher) SearchRowInto(dst []uint8, row []float32) int {
	c := s.c
	if len(row) != c.CB*c.V {
		panic(fmt.Sprintf("lutnn: activation row length %d != CB·V = %d", len(row), c.CB*c.V))
	}
	if len(dst) != c.CB {
		panic(fmt.Sprintf("lutnn: index row length %d != CB = %d", len(dst), c.CB))
	}
	switch c.V {
	case 4:
		return s.searchRow4(dst, row)
	case 2:
		return s.searchRow2(dst, row)
	default:
		return s.searchRowGeneric(dst, row)
	}
}

// prunable reports whether centroid k (flat index) provably cannot beat
// the current best distance bd, given the row tile's float64 norm na.
// The bound is d ≥ ‖c‖² − 2‖a‖‖c‖ with a conservative guard for float32
// rounding in the reference kernel — see pruneSlackRel.
//
//pimdl:hotpath
func (s *RowSearcher) prunable(k int, na float64, bd float32) bool {
	nc := s.cnorms[k]
	cross := 2 * na * nc
	lb := float64(s.norms[k]) - cross
	guard := pruneSlackRel * (math.Abs(float64(s.norms[k])) + cross)
	return lb-guard >= float64(bd)
}

//pimdl:hotpath
func (s *RowSearcher) searchRow4(dst []uint8, row []float32) int {
	c := s.c
	cbs, ct := c.CB, c.CT
	data := c.Data
	pruned := 0
	for cb := 0; cb < cbs; cb++ {
		t := row[cb*4 : cb*4+4 : cb*4+4]
		t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
		na := math.Sqrt(float64(t0)*float64(t0) + float64(t1)*float64(t1) +
			float64(t2)*float64(t2) + float64(t3)*float64(t3))
		base := cb * ct
		nb := s.norms[base : base+ct]
		best := 0
		bd := float32(math.MaxFloat32)
		for k := range nb {
			if s.prunable(base+k, na, bd) {
				pruned++
				continue
			}
			c4 := data[(base+k)*4 : (base+k)*4+4 : (base+k)*4+4]
			dot := t0*c4[0] + t1*c4[1] + t2*c4[2] + t3*c4[3]
			if d := nb[k] - 2*dot; d < bd {
				bd, best = d, k
			}
		}
		dst[cb] = uint8(best)
	}
	return pruned
}

//pimdl:hotpath
func (s *RowSearcher) searchRow2(dst []uint8, row []float32) int {
	c := s.c
	cbs, ct := c.CB, c.CT
	data := c.Data
	pruned := 0
	for cb := 0; cb < cbs; cb++ {
		t := row[cb*2 : cb*2+2 : cb*2+2]
		t0, t1 := t[0], t[1]
		na := math.Sqrt(float64(t0)*float64(t0) + float64(t1)*float64(t1))
		base := cb * ct
		nb := s.norms[base : base+ct]
		best := 0
		bd := float32(math.MaxFloat32)
		for k := range nb {
			if s.prunable(base+k, na, bd) {
				pruned++
				continue
			}
			c2 := data[(base+k)*2 : (base+k)*2+2 : (base+k)*2+2]
			dot := t0*c2[0] + t1*c2[1]
			if d := nb[k] - 2*dot; d < bd {
				bd, best = d, k
			}
		}
		dst[cb] = uint8(best)
	}
	return pruned
}

//pimdl:hotpath
func (s *RowSearcher) searchRowGeneric(dst []uint8, row []float32) int {
	c := s.c
	cbs, ct, v := c.CB, c.CT, c.V
	data := c.Data
	pruned := 0
	for cb := 0; cb < cbs; cb++ {
		tile := row[cb*v : (cb+1)*v]
		var sq float64
		for _, x := range tile {
			sq += float64(x) * float64(x)
		}
		na := math.Sqrt(sq)
		base := cb * ct
		best := 0
		bd := float32(math.MaxFloat32)
		for k := 0; k < ct; k++ {
			if s.prunable(base+k, na, bd) {
				pruned++
				continue
			}
			cent := data[(base+k)*v : (base+k+1)*v]
			var dot float32
			for x := range tile {
				dot += tile[x] * cent[x]
			}
			if d := s.norms[base+k] - 2*dot; d < bd {
				bd, best = d, k
			}
		}
		dst[cb] = uint8(best)
	}
	return pruned
}

// --- decode gather layouts -------------------------------------------------

// DecodeLUT is a tile-major relayout of a LUT for one-row gathers:
// Data groups each decodeFTile-wide feature tile's CB·CT slices together
// ([tile][cb][ct][w]), so a row gather streams codebooks at stride CT·w
// instead of CT·F and the destination tile stays hot across all CB.
type DecodeLUT struct {
	CB, CT, F int
	tile      int
	data      []float32
	offs      []int // per-tile base offset into data
	widths    []int // per-tile width (last tile may be narrower)
}

// NewDecodeLUT builds the decode layout from l. The table contents are
// copied; l is not retained.
func NewDecodeLUT(l *LUT) *DecodeLUT {
	d := &DecodeLUT{CB: l.CB, CT: l.CT, F: l.F, tile: decodeFTile,
		data: make([]float32, l.CB*l.CT*l.F)}
	off := 0
	for f0 := 0; f0 < l.F; f0 += d.tile {
		w := d.tile
		if f0+w > l.F {
			w = l.F - f0
		}
		d.offs = append(d.offs, off)
		d.widths = append(d.widths, w)
		for cb := 0; cb < l.CB; cb++ {
			for ct := 0; ct < l.CT; ct++ {
				copy(d.data[off:off+w], l.Slice(cb, ct)[f0:f0+w])
				off += w
			}
		}
	}
	return d
}

// LookupRowInto accumulates one output row (length F) from the index row
// idx (length CB): dst[f] = Σ_cb table[cb][idx[cb]][f], ascending cb —
// bit-identical to lookupSerial on the same indices. It panics on a
// length mismatch.
//
//pimdl:hotpath
func (d *DecodeLUT) LookupRowInto(dst []float32, idx []uint8) {
	if len(idx) != d.CB {
		panic(fmt.Sprintf("lutnn: index row length %d != CB = %d", len(idx), d.CB))
	}
	if len(dst) != d.F {
		panic(fmt.Sprintf("lutnn: output row length %d != F = %d", len(dst), d.F))
	}
	cbs, ct := d.CB, d.CT
	data := d.data
	f0 := 0
	for t, base := range d.offs {
		w := d.widths[t]
		o := dst[f0 : f0+w : f0+w]
		cb := 0
		if cbs >= 4 {
			s0 := base + int(idx[0])*w
			s1 := base + (ct+int(idx[1]))*w
			s2 := base + (2*ct+int(idx[2]))*w
			s3 := base + (3*ct+int(idx[3]))*w
			vec.Init4F32(o, data[s0:s0+w:s0+w], data[s1:s1+w:s1+w],
				data[s2:s2+w:s2+w], data[s3:s3+w:s3+w])
			cb = 4
		} else {
			clear(o)
		}
		for ; cb+3 < cbs; cb += 4 {
			s0 := base + (cb*ct+int(idx[cb]))*w
			s1 := base + ((cb+1)*ct+int(idx[cb+1]))*w
			s2 := base + ((cb+2)*ct+int(idx[cb+2]))*w
			s3 := base + ((cb+3)*ct+int(idx[cb+3]))*w
			vec.Add4F32(o, data[s0:s0+w:s0+w], data[s1:s1+w:s1+w],
				data[s2:s2+w:s2+w], data[s3:s3+w:s3+w])
		}
		for ; cb < cbs; cb++ {
			so := base + (cb*ct+int(idx[cb]))*w
			vec.AddF32(o, data[so:so+w:so+w])
		}
		f0 += w
	}
}

// DecodeQLUT is the INT8 decode layout: same tile-major grouping, int32
// accumulation, one rescale per element — exact, like the batch kernel.
type DecodeQLUT struct {
	CB, CT, F int
	tile      int
	Scale     float32
	data      []int8
	offs      []int
	widths    []int
}

// NewDecodeQLUT builds the INT8 decode layout from q.
func NewDecodeQLUT(q *QuantizedLUT) *DecodeQLUT {
	d := &DecodeQLUT{CB: q.CB, CT: q.CT, F: q.F, tile: decodeFTile,
		Scale: q.Scale, data: make([]int8, q.CB*q.CT*q.F)}
	off := 0
	for f0 := 0; f0 < q.F; f0 += d.tile {
		w := d.tile
		if f0+w > q.F {
			w = q.F - f0
		}
		d.offs = append(d.offs, off)
		d.widths = append(d.widths, w)
		for cb := 0; cb < q.CB; cb++ {
			for ct := 0; ct < q.CT; ct++ {
				copy(d.data[off:off+w], q.Slice(cb, ct)[f0:f0+w])
				off += w
			}
		}
	}
	return d
}

// LookupRowInto accumulates one INT8 output row into dst, drawing the
// int32 accumulator tile from a. Integer accumulation is exact, so the
// result is bit-identical to lookupSerial. It panics on a length
// mismatch.
//
//pimdl:hotpath
func (d *DecodeQLUT) LookupRowInto(dst []float32, idx []uint8, a *arena) {
	if len(idx) != d.CB {
		panic(fmt.Sprintf("lutnn: index row length %d != CB = %d", len(idx), d.CB))
	}
	if len(dst) != d.F {
		panic(fmt.Sprintf("lutnn: output row length %d != F = %d", len(dst), d.F))
	}
	cbs, ct := d.CB, d.CT
	data := d.data
	scale := d.Scale
	acc := a.int32s(d.tile)
	f0 := 0
	for t, base := range d.offs {
		w := d.widths[t]
		av := acc[:w:w]
		clear(av)
		cb := 0
		for ; cb+3 < cbs; cb += 4 {
			s0 := base + (cb*ct+int(idx[cb]))*w
			s1 := base + ((cb+1)*ct+int(idx[cb+1]))*w
			s2 := base + ((cb+2)*ct+int(idx[cb+2]))*w
			s3 := base + ((cb+3)*ct+int(idx[cb+3]))*w
			vec.Add4I8(av, data[s0:s0+w:s0+w], data[s1:s1+w:s1+w],
				data[s2:s2+w:s2+w], data[s3:s3+w:s3+w])
		}
		for ; cb < cbs; cb++ {
			so := base + (cb*ct+int(idx[cb]))*w
			vec.AddI8(av, data[so:so+w:so+w])
		}
		o := dst[f0 : f0+w : f0+w]
		for k, v := range av {
			o[k] = float32(v) * scale
		}
		f0 += w
	}
}

// --- fused per-row forward -------------------------------------------------

// decodeState bundles the lazily built decode artifacts for a layer. The
// table pointers identify the build inputs so a RebuildTable/EnableINT8
// invalidates the state on the next access (codebook calibration always
// ends in RebuildTable, so a stale norm cache cannot leak into decode).
type decodeState struct {
	table  *LUT
	qtable *QuantizedLUT
	rs     *RowSearcher
	lut    *DecodeLUT
	qlut   *DecodeQLUT
}

// decState returns the layer's decode state, building it on first use or
// after the tables changed. Concurrent first calls may build twice; both
// builds are identical, so whichever Store wins is correct. The steady
// state is one atomic load + two pointer compares.
//
//pimdl:hotpath
func (ly *Layer) decState() *decodeState {
	if st := ly.decode.Load(); st != nil && st.table == ly.Table && st.qtable == ly.QTable {
		return st
	}
	//pimdl:lint-ignore hotpath cold branch: builds run once per table swap, steady state returns above
	st := &decodeState{table: ly.Table, qtable: ly.QTable, rs: NewRowSearcher(ly.Codebooks)}
	if ly.QTable != nil {
		//pimdl:lint-ignore hotpath cold branch: builds run once per table swap, steady state returns above
		st.qlut = NewDecodeQLUT(ly.QTable)
	} else {
		//pimdl:lint-ignore hotpath cold branch: builds run once per table swap, steady state returns above
		st.lut = NewDecodeLUT(ly.Table)
	}
	ly.decode.Store(st)
	return st
}

// EnableDecode eagerly builds the decode-specialized layouts (row
// searcher norm caches plus the tile-major gather tables) so the first
// decode step does not pay the relayout cost. Safe to call more than
// once.
func (ly *Layer) EnableDecode() { ly.decState() }

// ForwardRowInto runs one LUT-NN layer for a single activation row
// (length CB·V) into dst (length F): single-row CCS with centroid
// pruning, tile-major table gather, bias. Scratch comes from the shared
// arena pool — no steady-state allocations. The result is bit-identical
// to forwardSerial on a 1×H batch of the same row. It panics on a length
// mismatch.
//
//pimdl:hotpath
func (ly *Layer) ForwardRowInto(dst, act []float32) {
	st := ly.decState()
	c := ly.Codebooks
	a := arenaPool.Get().(*arena)
	idx := a.uint8s(c.CB)
	pruned := st.rs.SearchRowInto(idx, act)
	if st.qlut != nil {
		st.qlut.LookupRowInto(dst, idx, a)
	} else {
		st.lut.LookupRowInto(dst, idx)
	}
	arenaPool.Put(a)
	if ly.Bias != nil {
		bias := ly.Bias.Data
		if len(bias) != len(dst) {
			panic(fmt.Sprintf("lutnn: bias length %d != F = %d", len(bias), len(dst)))
		}
		for k, b := range bias {
			dst[k] += b
		}
	}
	if metrics.Enabled() {
		decodeCCSRows.Inc()
		decodeRowGathers.Inc()
		if pruned > 0 {
			decodeCCSPruned.Add(int64(pruned))
		}
	}
}

// decode metrics: row-kernel invocation counts and the pruning hit rate
// (pruned centroids over rows·CB·CT candidates).
var (
	decodeCCSRows    *metrics.Counter
	decodeCCSPruned  *metrics.Counter
	decodeRowGathers *metrics.Counter
)

func init() {
	r := metrics.Default()
	decodeCCSRows = r.NewCounter("pimdl_decode_ccs_rows_total",
		"single-row CCS invocations on the decode fastpath")
	decodeCCSPruned = r.NewCounter("pimdl_decode_ccs_pruned_total",
		"centroid dot products skipped by the decode CCS pruning bound")
	decodeRowGathers = r.NewCounter("pimdl_decode_row_gathers_total",
		"one-row LUT gathers on the decode fastpath")
}

// decodePtr is the atomic holder embedded in Layer (kept in this file so
// the Layer struct in lut.go stays focused on the batch path).
type decodePtr = atomic.Pointer[decodeState]
