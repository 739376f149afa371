// Package kmeans implements Lloyd's algorithm with k-means++ seeding.
//
// PIM-DL's LUT-NN conversion derives each codebook by K-means clustering
// of activation sub-vectors within one column position across the
// calibration set (paper §3.1, step ❶). The clustering quality bounds the
// approximation error of the whole LUT-NN layer, so the implementation
// uses k-means++ initialization and runs to assignment convergence.
//
// Seeding is incremental: each point keeps its running minimum distance
// to the centroids chosen so far and is compared only against the newest
// one, so k-means++ costs O(n·k·dim) rather than O(n·k²·dim). Seeding
// centroids never move, so the running minimum makes the same
// comparisons in the same order as a full rescan and the D² weights —
// and with them the seeded RNG draws — are bit-identical to it.
package kmeans

import (
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/parallel"
)

// Result holds the clustering output.
type Result struct {
	// Centroids is k rows of dim-length centres, flattened row-major.
	Centroids []float32
	// Assign maps each input point to its centroid index.
	Assign []int
	// Inertia is the summed squared distance of points to their centroids.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
	K, Dim     int
}

// Config controls the clustering run.
type Config struct {
	K        int
	MaxIter  int // default 50
	Restarts int // independent k-means++ restarts; best inertia wins (default 1)
	Seed     int64
}

// Run clusters n points of dimension dim (points is n×dim flattened).
// If n < K the surplus centroids are duplicated from sampled points so the
// result always has exactly K centroids. It panics if K or n is
// non-positive or len(points) ≠ n·dim; every check runs before the first
// RNG draw or pool dispatch, so a bad input panics on the caller's
// goroutine.
func Run(points []float32, n, dim int, cfg Config) *Result {
	if cfg.K <= 0 {
		panic("kmeans: K must be positive")
	}
	if n <= 0 {
		panic("kmeans: n must be positive")
	}
	if n*dim != len(points) {
		panic("kmeans: points length does not match n×dim")
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 50
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var best *Result
	for r := 0; r < cfg.Restarts; r++ {
		res := runOnce(points, n, dim, cfg.K, cfg.MaxIter, rng)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

func runOnce(points []float32, n, dim, k, maxIter int, rng *rand.Rand) *Result {
	cent := seedPlusPlus(points, n, dim, k, rng)
	assign := make([]int, n)
	counts := make([]int, k)
	for i := range assign {
		assign[i] = -1
	}

	var iter int
	for iter = 0; iter < maxIter; iter++ {
		// Assignment step, fanned out on the shared worker pool: each
		// point's nearest centroid is independent and chunks write
		// disjoint ranges of assign, so the result is bit-identical at
		// any worker count. The changed flag is a commutative OR, which
		// is order-free. Reductions (update step) stay serial below so
		// centroid sums keep a fixed accumulation order.
		var changedFlag atomic.Bool
		parallel.For(n, n*k*dim*3, func(lo, hi int) {
			localChanged := false
			for i := lo; i < hi; i++ {
				p := points[i*dim : (i+1)*dim]
				bi, _ := nearest(p, cent, k, dim)
				if assign[i] != bi {
					assign[i] = bi
					localChanged = true
				}
			}
			if localChanged {
				changedFlag.Store(true)
			}
		})
		if !changedFlag.Load() && iter > 0 {
			break
		}
		// Update step.
		for j := range cent {
			cent[j] = 0
		}
		for j := range counts {
			counts[j] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			dst := cent[c*dim : (c+1)*dim]
			src := points[i*dim : (i+1)*dim]
			for d := range dst {
				dst[d] += src[d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random point.
				i := rng.Intn(n)
				copy(cent[c*dim:(c+1)*dim], points[i*dim:(i+1)*dim])
				continue
			}
			inv := 1 / float32(counts[c])
			dst := cent[c*dim : (c+1)*dim]
			for d := range dst {
				dst[d] *= inv
			}
		}
	}

	// Final assignment + per-point distances in parallel (disjoint
	// writes), then a serial sum so the float64 inertia accumulates in a
	// fixed order regardless of worker count.
	d2 := make([]float64, n)
	parallel.For(n, n*k*dim*3, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := points[i*dim : (i+1)*dim]
			bi, d := nearest(p, cent, k, dim)
			assign[i] = bi
			d2[i] = float64(d)
		}
	})
	var inertia float64
	for _, d := range d2 {
		inertia += d
	}
	return &Result{Centroids: cent, Assign: assign, Inertia: inertia, Iterations: iter, K: k, Dim: dim}
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting.
func seedPlusPlus(points []float32, n, dim, k int, rng *rand.Rand) []float32 {
	cent := make([]float32, k*dim)
	first := rng.Intn(n)
	copy(cent[:dim], points[first*dim:(first+1)*dim])
	// minD[i] is point i's squared distance to its nearest centroid so
	// far. It starts at nearest's initial best and uses its strict
	// compare, so NaN and ±Inf distances never win here either.
	minD := make([]float32, n)
	for i := range minD {
		minD[i] = math.MaxFloat32
	}
	for c := 1; c < k; c++ {
		// Fold centroid c-1 into each point's minimum in parallel
		// (disjoint writes); the total is summed serially so the
		// sampling distribution — and thus the seeded RNG draws — is
		// identical at any worker count.
		newest := cent[(c-1)*dim : c*dim]
		parallel.For(n, n*dim*3, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p := points[i*dim : (i+1)*dim]
				q := newest[:len(p)]
				var d float32
				for j := range p {
					diff := p[j] - q[j]
					d += diff * diff
				}
				if d < minD[i] {
					minD[i] = d
				}
			}
		})
		var total float64
		for i := 0; i < n; i++ {
			total += float64(minD[i])
		}
		var idx int
		//pimdl:lint-ignore float-compare D² mass exactly zero means all points coincide with a centroid; fall back to uniform sampling
		if total == 0 {
			idx = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var acc float64
			for i := 0; i < n; i++ {
				acc += float64(minD[i])
				if acc >= target {
					idx = i
					break
				}
			}
		}
		copy(cent[c*dim:(c+1)*dim], points[idx*dim:(idx+1)*dim])
	}
	return cent
}

// nearest returns the index of and squared distance to the closest of the
// first k centroids. It does not reuse lutnn's CCS kernel
// (Codebooks.SearchInto): CCS minimises ‖c‖² − 2a·c, which rounds
// differently from ‖a − c‖², so swapping it in would change assignments
// and every codebook downstream.
func nearest(p []float32, cent []float32, k, dim int) (int, float32) {
	best := 0
	bd := float32(math.MaxFloat32)
	if dim == 4 {
		// The conversion's common shape, written out so each centroid
		// costs no inner loop. Same d += x·x order as the general loop.
		p = p[:4]
		p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
		cent = cent[:k*4]
		for c := 0; len(cent) >= 4; c++ {
			cr := cent[:4:4]
			cent = cent[4:]
			d0, d1, d2, d3 := p0-cr[0], p1-cr[1], p2-cr[2], p3-cr[3]
			var d float32
			d += d0 * d0
			d += d1 * d1
			d += d2 * d2
			d += d3 * d3
			if d < bd {
				bd = d
				best = c
			}
		}
		return best, bd
	}
	for c := 0; c < k; c++ {
		cr := cent[c*dim : (c+1)*dim]
		var d float32
		for j := range p {
			diff := p[j] - cr[j]
			d += diff * diff
		}
		if d < bd {
			bd = d
			best = c
		}
	}
	return best, bd
}
