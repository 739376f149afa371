package kmeans

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// gaussianBlobs makes n points around k well-separated centres.
func gaussianBlobs(rng *rand.Rand, n, dim, k int, sep, noise float64) ([]float32, []int) {
	centres := make([]float32, k*dim)
	for i := range centres {
		centres[i] = float32(rng.NormFloat64() * sep)
	}
	points := make([]float32, n*dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		labels[i] = c
		for d := 0; d < dim; d++ {
			points[i*dim+d] = centres[c*dim+d] + float32(rng.NormFloat64()*noise)
		}
	}
	return points, labels
}

func TestRecoverWellSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points, labels := gaussianBlobs(rng, 300, 4, 3, 10, 0.1)
	res := Run(points, 300, 4, Config{K: 3, Seed: 2, Restarts: 3})
	// All points with the same true label must share an assignment.
	rep := map[int]int{}
	for i, l := range labels {
		if r, ok := rep[l]; !ok {
			rep[l] = res.Assign[i]
		} else if r != res.Assign[i] {
			t.Fatalf("point %d (label %d) assigned %d, expected cluster %d", i, l, res.Assign[i], r)
		}
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points, _ := gaussianBlobs(rng, 200, 3, 5, 5, 0.5)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		res := Run(points, 200, 3, Config{K: k, Seed: 4, Restarts: 2})
		if res.Inertia > prev+1e-6 {
			t.Fatalf("inertia increased from %g to %g at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestSinglePointPerCluster(t *testing.T) {
	points := []float32{0, 0, 10, 10, 20, 20}
	res := Run(points, 3, 2, Config{K: 3, Seed: 1})
	if res.Inertia > 1e-9 {
		t.Fatalf("k=n should reach zero inertia, got %g", res.Inertia)
	}
}

func TestAssignMatchesNearestCentroid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, dim, k := 50, 3, 4
		points := make([]float32, n*dim)
		for i := range points {
			points[i] = float32(rng.NormFloat64())
		}
		res := Run(points, n, dim, Config{K: k, Seed: seed})
		for i := 0; i < n; i++ {
			want, _ := nearest(points[i*dim:(i+1)*dim], res.Centroids, k, dim)
			if res.Assign[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCentroidIsMeanOfCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, dim, k := 120, 2, 3
	points, _ := gaussianBlobs(rng, n, dim, k, 8, 0.2)
	res := Run(points, n, dim, Config{K: k, Seed: 6})
	sums := make([]float64, k*dim)
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		c := res.Assign[i]
		counts[c]++
		for d := 0; d < dim; d++ {
			sums[c*dim+d] += float64(points[i*dim+d])
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		for d := 0; d < dim; d++ {
			mean := sums[c*dim+d] / float64(counts[c])
			got := float64(res.Centroids[c*dim+d])
			if math.Abs(mean-got) > 1e-3 {
				t.Fatalf("centroid %d dim %d: got %g, cluster mean %g", c, d, got, mean)
			}
		}
	}
}

func TestIdenticalPointsDontCrash(t *testing.T) {
	points := make([]float32, 40) // 20 identical 2-D points at origin
	res := Run(points, 20, 2, Config{K: 4, Seed: 7})
	if res.Inertia != 0 {
		t.Fatalf("identical points must have zero inertia, got %g", res.Inertia)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	for _, tc := range []func(){
		func() { Run([]float32{1, 2}, 1, 2, Config{K: 0}) },
		func() { Run([]float32{1, 2, 3}, 2, 2, Config{K: 1}) },
		// n = 0 passes the length check; it must panic on its own
		// check, not inside the RNG.
		func() { Run(nil, 0, 2, Config{K: 1}) },
		func() { Run(nil, -1, 0, Config{K: 4}) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic")
				}
				if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "kmeans: ") {
					t.Fatalf("panic %v did not come from kmeans' input checks", r)
				}
			}()
			tc()
		}()
	}
}

func TestRestartsImproveOrMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	points, _ := gaussianBlobs(rng, 150, 3, 6, 4, 0.8)
	one := Run(points, 150, 3, Config{K: 6, Seed: 9, Restarts: 1})
	many := Run(points, 150, 3, Config{K: 6, Seed: 9, Restarts: 8})
	if many.Inertia > one.Inertia+1e-6 {
		t.Fatalf("restarts made inertia worse: %g vs %g", many.Inertia, one.Inertia)
	}
}
