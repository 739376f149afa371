// Package lutnn implements the LUT-NN deep-learning paradigm at the heart
// of PIM-DL (paper §3): codebook construction by K-means over activation
// sub-vectors, closest-centroid search (CCS), lookup-table construction
// from codebooks and weights, the table-lookup/accumulate inference kernel,
// INT8 LUT quantization, the FLOP/byte cost model, and the autograd hooks
// used by eLUT-NN calibration (reconstruction loss + straight-through
// estimator).
package lutnn

import (
	"fmt"
	"math"

	"repro/internal/kmeans"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Params are the two LUT-NN hyper-parameters: the sub-vector length V and
// the number of centroids per codebook CT. The paper's main settings are
// V=2 or 4 with CT=16.
type Params struct {
	V  int // sub-vector length (tiles along the hidden dim)
	CT int // centroids per codebook (≤ 256 so indices fit in uint8)
}

// Validate checks that p can tile a hidden dimension of size h.
func (p Params) Validate(h int) error {
	if p.V <= 0 || p.CT <= 0 {
		return fmt.Errorf("lutnn: non-positive V=%d or CT=%d", p.V, p.CT)
	}
	if p.CT > 256 {
		return fmt.Errorf("lutnn: CT=%d exceeds uint8 index range", p.CT)
	}
	if h%p.V != 0 {
		return fmt.Errorf("lutnn: V=%d does not divide hidden dim %d", p.V, h)
	}
	return nil
}

// Codebooks holds CB codebooks of CT centroids, each a length-V vector.
// Layout: Data[cb][ct][v] flattened row-major, i.e. CB×CT×V.
type Codebooks struct {
	CB, CT, V int
	Data      []float32
}

// NewCodebooks allocates zeroed codebooks. It panics on non-positive
// dimensions — a zero or negative CB/CT/V always means a caller bug, and
// catching it here beats a corrupted flat index later.
func NewCodebooks(cb, ct, v int) *Codebooks {
	if cb <= 0 || ct <= 0 || v <= 0 {
		panic(fmt.Sprintf("lutnn: non-positive codebook shape (%d,%d,%d)", cb, ct, v))
	}
	return &Codebooks{CB: cb, CT: ct, V: v, Data: make([]float32, cb*ct*v)}
}

// Centroid returns a slice aliasing centroid ct of codebook cb.
//
//pimdl:lint-ignore shape-guard hot-path accessor with Go's slice-bounds contract; callers validate cb/ct
func (c *Codebooks) Centroid(cb, ct int) []float32 {
	off := (cb*c.CT + ct) * c.V
	return c.Data[off : off+c.V]
}

// BuildCodebooks derives codebooks from a calibration activation matrix
// acts (N×H) by clustering the 1×V sub-vectors of each column position
// (paper §3.1 step ❶). Column cb clusters the sub-vectors
// acts[:, cb·V:(cb+1)·V] across all N rows.
//
// Codebooks are clustered in parallel on the shared worker pool. Codebook
// c always uses seed+c and writes only its own block of Data, so the
// result is bit-identical at any worker count. Each kmeans.Run keeps its
// own inner parallel.For, which runs inline when the pool is busy.
func BuildCodebooks(acts *tensor.Tensor, p Params, seed int64) (*Codebooks, error) {
	if acts.Rank() != 2 {
		return nil, fmt.Errorf("lutnn: activations must be rank-2, got %v", acts.Shape())
	}
	h := acts.Dim(1)
	if err := p.Validate(h); err != nil {
		return nil, err
	}
	n := acts.Dim(0)
	// kmeans.Run panics on an empty input, and a panic on a pool worker
	// crashes the process, so reject it here before fanning out.
	if n == 0 {
		return nil, fmt.Errorf("lutnn: no calibration rows")
	}
	cb := h / p.V
	out := NewCodebooks(cb, p.CT, p.V)
	parallel.For(cb, cb*n*p.CT*p.V*3, func(lo, hi int) {
		sub := make([]float32, n*p.V)
		for c := lo; c < hi; c++ {
			for i := 0; i < n; i++ {
				copy(sub[i*p.V:(i+1)*p.V], acts.Row(i)[c*p.V:(c+1)*p.V])
			}
			res := kmeans.Run(sub, n, p.V, kmeans.Config{K: p.CT, Seed: seed + int64(c), Restarts: 1})
			copy(out.Data[c*p.CT*p.V:(c+1)*p.CT*p.V], res.Centroids)
		}
	})
	return out, nil
}

// centroidSqNorms precomputes ‖c‖² for every centroid, enabling the
// inner-product form of CCS: argmin‖a−c‖² = argmin(‖c‖² − 2a·c), since
// ‖a‖² is constant per tile (paper §3.2 steps ❹–❺).
func (c *Codebooks) centroidSqNorms() []float32 {
	norms := make([]float32, c.CB*c.CT)
	for i := range norms {
		v := c.Data[i*c.V : (i+1)*c.V]
		var s float32
		for _, x := range v {
			s += x * x
		}
		norms[i] = s
	}
	return norms
}

// Search runs closest-centroid search over acts (N×H), returning the N×CB
// index matrix (row-major uint8). This is the CCS operator that PIM-DL
// executes on the host. It runs the blocked, V-specialised kernel in
// parallel on the shared worker pool (see fastpath.go); results are
// bit-identical to searchSerial at any GOMAXPROCS. It panics if the
// activation width is not CB·V.
func (c *Codebooks) Search(acts *tensor.Tensor) []uint8 {
	idx := make([]uint8, acts.Dim(0)*c.CB)
	c.SearchInto(idx, acts)
	return idx
}

// searchSerial is the retained row-at-a-time reference implementation of
// Search. The golden tests in fastpath_test.go compare every optimized
// kernel against it bit for bit; it is not used on the inference path.
// Like Search, it panics if the activation width is not CB·V.
func (c *Codebooks) searchSerial(acts *tensor.Tensor) []uint8 {
	n, h := acts.Dim(0), acts.Dim(1)
	if h != c.CB*c.V {
		panic(fmt.Sprintf("lutnn: activation width %d != CB·V = %d", h, c.CB*c.V))
	}
	norms := c.centroidSqNorms()
	idx := make([]uint8, n*c.CB)
	for i := 0; i < n; i++ {
		row := acts.Row(i)
		for cb := 0; cb < c.CB; cb++ {
			tile := row[cb*c.V : (cb+1)*c.V]
			best := 0
			bd := float32(math.MaxFloat32)
			base := cb * c.CT
			for ct := 0; ct < c.CT; ct++ {
				cent := c.Data[(base+ct)*c.V : (base+ct+1)*c.V]
				var dot float32
				for v := range tile {
					dot += tile[v] * cent[v]
				}
				d := norms[base+ct] - 2*dot
				if d < bd {
					bd = d
					best = ct
				}
			}
			idx[i*c.CB+cb] = uint8(best)
		}
	}
	return idx
}

// Approximate returns Â: acts with every sub-vector replaced by its
// closest centroid (the H(·) operator in Eq. 1). If idx is nil it is
// computed with Search.
func (c *Codebooks) Approximate(acts *tensor.Tensor, idx []uint8) *tensor.Tensor {
	n := acts.Dim(0)
	if idx == nil {
		idx = c.Search(acts)
	}
	out := tensor.New(n, c.CB*c.V)
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for cb := 0; cb < c.CB; cb++ {
			copy(row[cb*c.V:(cb+1)*c.V], c.Centroid(cb, int(idx[i*c.CB+cb])))
		}
	}
	return out
}

// ApproximationError returns ‖A−Â‖_F / ‖A‖_F for the given activations.
func (c *Codebooks) ApproximationError(acts *tensor.Tensor) float64 {
	return tensor.RelativeError(c.Approximate(acts, nil), acts)
}
