package lutnn

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// LUT is the pre-computed lookup-table form of a weight matrix: for each
// codebook cb and centroid ct it stores the F partial sums
// W[:, cb·V:(cb+1)·V] · centroid (paper §3.1 steps ❷–❸).
//
// Layout: Data[cb][ct][f] flattened row-major (CB×CT×F). This is the
// transposed layout from Fig. 8-(a): one (cb, index) pair fetches a
// contiguous F-length slice, which is exactly what a PIM PE streams.
type LUT struct {
	CB, CT, F int
	Data      []float32
}

// BuildLUT constructs the lookup tables for weight w (F×H) against the
// given codebooks (CB = H/V).
func BuildLUT(c *Codebooks, w *tensor.Tensor) (*LUT, error) {
	if w.Rank() != 2 {
		return nil, fmt.Errorf("lutnn: weight must be rank-2")
	}
	f, h := w.Dim(0), w.Dim(1)
	if h != c.CB*c.V {
		return nil, fmt.Errorf("lutnn: weight width %d != CB·V = %d", h, c.CB*c.V)
	}
	if len(c.Data) != c.CB*c.CT*c.V {
		return nil, fmt.Errorf("lutnn: codebook data length %d != CB·CT·V = %d", len(c.Data), c.CB*c.CT*c.V)
	}
	l := &LUT{CB: c.CB, CT: c.CT, F: f, Data: make([]float32, c.CB*c.CT*f)}
	// Codebooks fan out on the shared pool; codebook cb writes only its
	// own CT×F block of rows, so the table is independent of the worker
	// count.
	parallel.For(c.CB, c.CB*c.CT*f*c.V*2, func(lo, hi int) {
		for cb := lo; cb < hi; cb++ {
			for ct := 0; ct < c.CT; ct++ {
				cent := c.Centroid(cb, ct)
				dst := l.Slice(cb, ct)
				for fi := 0; fi < f; fi++ {
					wrow := w.Row(fi)[cb*c.V : (cb+1)*c.V]
					var s float32
					for v := range cent {
						s += cent[v] * wrow[v]
					}
					dst[fi] = s
				}
			}
		}
	})
	return l, nil
}

// Slice returns the F-length partial-sum vector for (cb, ct), aliasing the
// table storage.
//
//pimdl:lint-ignore shape-guard hot-path accessor with Go's slice-bounds contract; callers validate cb/ct
func (l *LUT) Slice(cb, ct int) []float32 {
	off := (cb*l.CT + ct) * l.F
	return l.Data[off : off+l.F]
}

// SizeBytes returns the table footprint at the given bytes-per-element
// (4 for FP32, 1 for INT8).
func (l *LUT) SizeBytes(bytesPerElem int) int {
	return len(l.Data) * bytesPerElem
}

// Lookup executes the table-lookup/accumulate kernel on the host:
// out[n][f] = Σ_cb LUT[cb][idx[n][cb]][f] (paper §3.2 steps ❻–❼).
// idx is the N×CB index matrix from Codebooks.Search. It runs the
// blocked parallel kernel (see fastpath.go); results are bit-identical
// to lookupSerial. It panics if len(idx) is not n·CB.
func (l *LUT) Lookup(idx []uint8, n int) *tensor.Tensor {
	out := tensor.New(n, l.F)
	l.LookupInto(out, idx, n)
	return out
}

// lookupSerial is the retained row-at-a-time reference kernel the golden
// tests compare the blocked implementation against. Like Lookup, it
// panics if len(idx) is not n·CB.
func (l *LUT) lookupSerial(idx []uint8, n int) *tensor.Tensor {
	if len(idx) != n*l.CB {
		panic(fmt.Sprintf("lutnn: index matrix length %d != N·CB = %d", len(idx), n*l.CB))
	}
	out := tensor.New(n, l.F)
	for i := 0; i < n; i++ {
		dst := out.Row(i)
		for cb := 0; cb < l.CB; cb++ {
			src := l.Slice(cb, int(idx[i*l.CB+cb]))
			for f := range dst {
				dst[f] += src[f]
			}
		}
	}
	return out
}

// QuantizedLUT is the INT8 form used on UPMEM, where FP32 throughput is
// poor. Each codebook slice shares one symmetric scale so accumulation can
// stay in int32 and be rescaled once (paper §6.3 reports ≤0.1% accuracy
// drop from this).
type QuantizedLUT struct {
	CB, CT, F int
	Data      []int8
	Scale     float32
}

// Quantize converts l to INT8 with a single per-table symmetric scale.
func (l *LUT) Quantize() *QuantizedLUT {
	q := tensor.QuantizeINT8(tensor.FromSlice(l.Data, len(l.Data)))
	return &QuantizedLUT{CB: l.CB, CT: l.CT, F: l.F, Data: q.Data, Scale: q.Scale}
}

// Slice returns the int8 F-length vector for (cb, ct).
//
//pimdl:lint-ignore shape-guard hot-path accessor with Go's slice-bounds contract; callers validate cb/ct
func (q *QuantizedLUT) Slice(cb, ct int) []int8 {
	off := (cb*q.CT + ct) * q.F
	return q.Data[off : off+q.F]
}

// SizeBytes returns the INT8 table footprint.
func (q *QuantizedLUT) SizeBytes() int { return len(q.Data) }

// Lookup accumulates int8 entries in int32 and rescales to float once at
// the end, mirroring the UPMEM integer pipeline. It runs the blocked
// parallel kernel with pooled accumulator scratch (see fastpath.go);
// results are bit-identical to lookupSerial. It panics if len(idx) is
// not n·CB.
func (q *QuantizedLUT) Lookup(idx []uint8, n int) *tensor.Tensor {
	out := tensor.New(n, q.F)
	q.LookupInto(out, idx, n)
	return out
}

// lookupSerial is the retained reference kernel (per-call accumulator
// allocation and all) the golden tests compare the blocked
// implementation against. Like Lookup, it panics if len(idx) is not
// n·CB.
func (q *QuantizedLUT) lookupSerial(idx []uint8, n int) *tensor.Tensor {
	if len(idx) != n*q.CB {
		panic("lutnn: index matrix length mismatch")
	}
	out := tensor.New(n, q.F)
	acc := make([]int32, q.F)
	for i := 0; i < n; i++ {
		for f := range acc {
			acc[f] = 0
		}
		for cb := 0; cb < q.CB; cb++ {
			src := q.Slice(cb, int(idx[i*q.CB+cb]))
			for f, v := range src {
				acc[f] += int32(v)
			}
		}
		dst := out.Row(i)
		for f, v := range acc {
			dst[f] = float32(v) * q.Scale
		}
	}
	return out
}

// Layer bundles everything needed to run one linear layer as LUT-NN on the
// host: codebooks for CCS, tables for lookup, and an optional bias. The
// decode field caches the single-row decode layouts (see decode.go); it
// is rebuilt automatically when the tables change, so Layer values must
// be shared by pointer (as all call sites already do).
type Layer struct {
	Codebooks *Codebooks
	Table     *LUT
	QTable    *QuantizedLUT // non-nil when INT8 inference is enabled
	Bias      *tensor.Tensor

	decode decodePtr
}

// Convert builds a LUT-NN layer from a weight matrix (F×H), an optional
// bias (length F), and calibration activations (N×H). This is the
// *baseline* LUT-NN conversion: clustering only, no calibration training.
// eLUT-NN calibration refines the codebooks afterwards (see calibrate.go
// and the nn package).
func Convert(w *tensor.Tensor, bias *tensor.Tensor, acts *tensor.Tensor, p Params, seed int64) (*Layer, error) {
	cbs, err := BuildCodebooks(acts, p, seed)
	if err != nil {
		return nil, err
	}
	lut, err := BuildLUT(cbs, w)
	if err != nil {
		return nil, err
	}
	return &Layer{Codebooks: cbs, Table: lut, Bias: bias}, nil
}

// RebuildTable regenerates the lookup tables after the codebooks or weight
// changed (eLUT-NN calibration updates centroids, so tables must be
// re-derived before deployment).
func (ly *Layer) RebuildTable(w *tensor.Tensor) error {
	lut, err := BuildLUT(ly.Codebooks, w)
	if err != nil {
		return err
	}
	ly.Table = lut
	if ly.QTable != nil {
		ly.QTable = lut.Quantize()
	}
	return nil
}

// EnableINT8 quantizes the tables for integer inference.
func (ly *Layer) EnableINT8() {
	ly.QTable = ly.Table.Quantize()
}

// Forward runs the full LUT-NN inference path on the host: CCS fused
// with table lookup (+bias) per row tile, so indices never materialise
// as a full N×CB matrix (see ForwardInto in fastpath.go). If INT8 is
// enabled the quantized tables are used. Results are bit-identical to
// forwardSerial.
func (ly *Layer) Forward(acts *tensor.Tensor) *tensor.Tensor {
	f := ly.Table.F
	if ly.QTable != nil {
		f = ly.QTable.F
	}
	out := tensor.New(acts.Dim(0), f)
	ly.ForwardInto(out, acts)
	return out
}

// forwardSerial is the retained unfused reference path (serial CCS, then
// serial lookup over the full index matrix, then bias) the golden tests
// compare the fused implementation against.
func (ly *Layer) forwardSerial(acts *tensor.Tensor) *tensor.Tensor {
	idx := ly.Codebooks.searchSerial(acts)
	var out *tensor.Tensor
	if ly.QTable != nil {
		out = ly.QTable.lookupSerial(idx, acts.Dim(0))
	} else {
		out = ly.Table.lookupSerial(idx, acts.Dim(0))
	}
	if ly.Bias != nil {
		tensor.AddBias(out, ly.Bias)
	}
	return out
}

// ForwardExact computes the exact GEMM result A·Wᵀ(+bias) for comparison.
func ForwardExact(acts, w, bias *tensor.Tensor) *tensor.Tensor {
	out := tensor.MatMulT(acts, w)
	if bias != nil {
		tensor.AddBias(out, bias)
	}
	return out
}
