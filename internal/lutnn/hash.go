package lutnn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// HashEncoder is a MADDNESS-style encoder (Blalock & Guttag, the paper's
// reference [9] and the ancestor of LUT-NN): instead of an exact
// closest-centroid search, each activation sub-vector descends a balanced
// binary hash tree — log2(CT) scalar comparisons — to a leaf whose mean is
// its prototype. Encoding is multiplication-free, trading approximation
// quality for a much cheaper host-side CCS; the trade-off experiment lives
// in the experiments package.
//
// Tree structure (per codebook): every level l splits on one feature
// dimension SplitDim[l] shared by all 2^l nodes of that level, with a
// per-node threshold — exactly MADDNESS's "hash function family".
type HashEncoder struct {
	CB, CT, V int
	Levels    int
	// SplitDim[cb][l] is the feature index compared at level l.
	SplitDim [][]int
	// Threshold[cb][l][node] is the split point of node `node` at level l
	// (2^l nodes per level).
	Threshold [][][]float32
	// Protos holds the leaf prototypes as codebooks, so table construction
	// and approximation reuse the standard paths.
	Protos *Codebooks
}

// TrainHashEncoder learns the hash trees and leaf prototypes from
// calibration activations (N×H). CT must be a power of two.
func TrainHashEncoder(acts *tensor.Tensor, p Params, _ int64) (*HashEncoder, error) {
	if err := p.Validate(acts.Dim(1)); err != nil {
		return nil, err
	}
	levels := 0
	for 1<<levels < p.CT {
		levels++
	}
	if 1<<levels != p.CT {
		return nil, fmt.Errorf("lutnn: hash encoder needs power-of-two CT, got %d", p.CT)
	}
	n, h := acts.Dim(0), acts.Dim(1)
	cb := h / p.V
	e := &HashEncoder{
		CB: cb, CT: p.CT, V: p.V, Levels: levels,
		SplitDim:  make([][]int, cb),
		Threshold: make([][][]float32, cb),
		Protos:    NewCodebooks(cb, p.CT, p.V),
	}

	sub := make([][]float32, n)
	for c := 0; c < cb; c++ {
		for i := 0; i < n; i++ {
			sub[i] = acts.Row(i)[c*p.V : (c+1)*p.V]
		}
		e.SplitDim[c] = make([]int, levels)
		e.Threshold[c] = make([][]float32, levels)

		// bucket[i] is the current node of point i.
		bucket := make([]int, n)
		for l := 0; l < levels; l++ {
			dim := bestSplitDim(sub, bucket, 1<<l, p.V)
			e.SplitDim[c][l] = dim
			ths := make([]float32, 1<<l)
			for node := 0; node < 1<<l; node++ {
				ths[node] = medianOfBucket(sub, bucket, node, dim)
			}
			e.Threshold[c][l] = ths
			for i := range bucket {
				b := bucket[i]
				bucket[i] = b << 1
				if sub[i][dim] > ths[b] {
					bucket[i]++
				}
			}
		}
		// Leaf prototypes: bucket means (empty leaves keep zero vectors).
		counts := make([]int, p.CT)
		for i, b := range bucket {
			counts[b]++
			dst := e.Protos.Centroid(c, b)
			for d, v := range sub[i] {
				dst[d] += v
			}
		}
		for b, cnt := range counts {
			if cnt == 0 {
				continue
			}
			dst := e.Protos.Centroid(c, b)
			inv := 1 / float32(cnt)
			for d := range dst {
				dst[d] *= inv
			}
		}
	}
	return e, nil
}

// bestSplitDim picks the dimension with the largest summed within-bucket
// variance (a simplification of MADDNESS's SSE-reduction heuristic).
func bestSplitDim(sub [][]float32, bucket []int, nBuckets, v int) int {
	best, bestScore := 0, math.Inf(-1)
	for d := 0; d < v; d++ {
		var score float64
		for b := 0; b < nBuckets; b++ {
			var sum, sumSq float64
			var cnt int
			for i := range sub {
				if bucket[i] != b {
					continue
				}
				x := float64(sub[i][d])
				sum += x
				sumSq += x * x
				cnt++
			}
			if cnt > 0 {
				score += sumSq - sum*sum/float64(cnt)
			}
		}
		if score > bestScore {
			bestScore = score
			best = d
		}
	}
	return best
}

// medianOfBucket returns the median of dimension dim over points in the
// bucket (0 for empty buckets).
func medianOfBucket(sub [][]float32, bucket []int, node, dim int) float32 {
	var vals []float32
	for i := range sub {
		if bucket[i] == node {
			vals = append(vals, sub[i][dim])
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	return vals[len(vals)/2]
}

// Encode maps activations to leaf indices with log2(CT) comparisons per
// tile — no multiplications. It panics if the activation width is not
// CB·V.
func (e *HashEncoder) Encode(acts *tensor.Tensor) []uint8 {
	n, h := acts.Dim(0), acts.Dim(1)
	if h != e.CB*e.V {
		panic(fmt.Sprintf("lutnn: activation width %d != CB·V = %d", h, e.CB*e.V))
	}
	idx := make([]uint8, n*e.CB)
	for i := 0; i < n; i++ {
		row := acts.Row(i)
		for c := 0; c < e.CB; c++ {
			tile := row[c*e.V : (c+1)*e.V]
			b := 0
			for l := 0; l < e.Levels; l++ {
				b <<= 1
				if tile[e.SplitDim[c][l]] > e.Threshold[c][l][b>>1] {
					b++
				}
			}
			idx[i*e.CB+c] = uint8(b)
		}
	}
	return idx
}

// EncodeOps returns the host-side operation count of hash encoding:
// log2(CT) comparisons per tile, versus 3·N·H·CT for exact CCS.
func (e *HashEncoder) EncodeOps(n int) OpCount {
	return OpCount{Adds: uint64(n) * uint64(e.CB) * uint64(e.Levels)}
}

// ApproximationError returns ‖A−Â‖_F/‖A‖_F under hash encoding with leaf
// prototypes.
func (e *HashEncoder) ApproximationError(acts *tensor.Tensor) float64 {
	idx := e.Encode(acts)
	return tensor.RelativeError(e.Protos.Approximate(acts, idx), acts)
}
