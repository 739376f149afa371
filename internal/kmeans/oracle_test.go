package kmeans

import (
	"math"
	"math/rand"
	"testing"
)

// seedPlusPlusOracle is the full-rescan k-means++ seeding: at every step
// it recomputes each point's distance to all earlier centroids with
// nearestOracle. seedPlusPlus keeps a running minimum instead and must
// match it bit for bit, RNG draws included.
func seedPlusPlusOracle(points []float32, n, dim, k int, rng *rand.Rand) []float32 {
	cent := make([]float32, k*dim)
	first := rng.Intn(n)
	copy(cent[:dim], points[first*dim:(first+1)*dim])
	d2 := make([]float64, n)
	for c := 1; c < k; c++ {
		for i := 0; i < n; i++ {
			_, d := nearestOracle(points[i*dim:(i+1)*dim], cent, c, dim)
			d2[i] = float64(d)
		}
		var total float64
		for i := 0; i < n; i++ {
			total += d2[i]
		}
		var idx int
		//pimdl:lint-ignore float-compare mirrors seedPlusPlus's exact zero-mass fallback
		if total == 0 {
			idx = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var acc float64
			for i := 0; i < n; i++ {
				acc += d2[i]
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

// nearestOracle is nearest's general loop, with no per-dim branch.
func nearestOracle(p []float32, cent []float32, k, dim int) (int, float32) {
	best := 0
	bd := float32(math.MaxFloat32)
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

type namedPoints struct {
	name   string
	points []float32
}

// seedingInputs returns named point sets of n points in dim dimensions
// covering the branches of k-means++ seeding.
func seedingInputs(rng *rand.Rand, n, dim int) []namedPoints {
	normal := make([]float32, n*dim)
	for i := range normal {
		normal[i] = float32(rng.NormFloat64())
	}
	// Three distinct points, each repeated: once they are all seeded the
	// D² mass is exactly zero and seeding falls back to uniform draws.
	dups := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			dups[i*dim+d] = float32(i%3) * 2
		}
	}
	nonFinite := append([]float32(nil), normal...)
	nonFinite[0] = float32(math.Inf(1))
	nonFinite[dim] = float32(math.Inf(-1))
	nonFinite[2*dim] = float32(math.NaN())
	nonFinite[(n/2)*dim+dim-1] = float32(math.NaN())
	return []namedPoints{
		{"normal", normal},
		{"zeros", make([]float32, n*dim)},
		{"duplicates", dups},
		{"nonfinite", nonFinite},
	}
}

// firstDiff returns the first index at which a and b differ bitwise, or
// -1 if they are identical.
func firstDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSeedPlusPlusMatchesOracle holds the incremental seeding to the
// full-rescan oracle: same centroids bit for bit, and the RNG left in the
// same state, on normal, all-zero, duplicate and non-finite inputs and
// with fewer points than centroids.
func TestSeedPlusPlusMatchesOracle(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 8} {
		for _, k := range []int{1, 4, 16} {
			for _, n := range []int{3, 200} {
				rng := rand.New(rand.NewSource(int64(dim*1000 + k*10 + n)))
				for _, in := range seedingInputs(rng, n, dim) {
					name, points := in.name, in.points
					for _, seed := range []int64{1, 2, 3} {
						gotRNG := rand.New(rand.NewSource(seed))
						wantRNG := rand.New(rand.NewSource(seed))
						got := seedPlusPlus(points, n, dim, k, gotRNG)
						want := seedPlusPlusOracle(points, n, dim, k, wantRNG)
						if i := firstDiff(got, want); i >= 0 {
							t.Fatalf("dim=%d k=%d n=%d %s seed=%d: centroid value %d differs: %v vs oracle %v",
								dim, k, n, name, seed, i, got, want)
						}
						if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
							t.Fatalf("dim=%d k=%d n=%d %s seed=%d: RNG state diverged from the oracle",
								dim, k, n, name, seed)
						}
					}
				}
			}
		}
	}
}

// TestNearestDim4MatchesOracle checks nearest's unrolled dim == 4 branch
// against the general loop: same index and the same distance bits,
// including ties (first centroid wins) and non-finite coordinates.
func TestNearestDim4MatchesOracle(t *testing.T) {
	const dim = 4
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 3, 16} {
		cent := make([]float32, k*dim)
		for i := range cent {
			cent[i] = float32(rng.NormFloat64())
		}
		if k > 1 {
			copy(cent[dim:2*dim], cent[:dim]) // a tie between centroids 0 and 1
		}
		points := make([]float32, 0, 64*dim)
		for i := 0; i < 60*dim; i++ {
			points = append(points, float32(rng.NormFloat64()*2))
		}
		points = append(points, cent[:dim]...)
		points = append(points, float32(math.NaN()), 0, 0, 0)
		points = append(points, float32(math.Inf(1)), 0, 0, 0)
		points = append(points, 0, float32(math.Inf(-1)), 1, 2)
		for i := 0; i < len(points)/dim; i++ {
			p := points[i*dim : (i+1)*dim]
			gi, gd := nearest(p, cent, k, dim)
			wi, wd := nearestOracle(p, cent, k, dim)
			if gi != wi || math.Float32bits(gd) != math.Float32bits(wd) {
				t.Fatalf("k=%d point %v: nearest = (%d, %v), oracle (%d, %v)", k, p, gi, gd, wi, wd)
			}
		}
	}
}
