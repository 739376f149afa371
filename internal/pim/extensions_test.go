package pim

import (
	"math"
	"testing"
)

func TestAdderOnlyFasterReduce(t *testing.T) {
	base := UPMEM()
	adder := AdderOnly(base, 4)
	if adder.ReduceCycles >= base.ReduceCycles {
		t.Fatal("adder-only variant must reduce faster")
	}
	if adder.GEMMMACsPerCycle != 0 {
		t.Fatal("adder-only variant must drop multipliers")
	}
	if base.ReduceCycles != UPMEM().ReduceCycles {
		t.Fatal("AdderOnly must not mutate the base platform")
	}
	w := Workload{N: 1024, CB: 128, CT: 16, F: 1024, ElemBytes: 1}
	m := Mapping{NsTile: 256, FsTile: 128, NmTile: 16, FmTile: 32, CBmTile: 32,
		Traversal: [3]Loop{LoopF, LoopCB, LoopN},
		Scheme:    CoarseLoad, CBLoadTile: 1, FLoadTile: 32}
	if err := m.Validate(adder, w); err != nil {
		t.Fatal(err)
	}
	tb := SimTiming(base, w, m)
	ta := SimTiming(adder, w, m)
	if ta.KernelRed >= tb.KernelRed {
		t.Fatalf("adder-only reduce not faster: %g vs %g", ta.KernelRed, tb.KernelRed)
	}
}

func TestHotCacheHitRateUniform(t *testing.T) {
	// Uniform histogram: hit rate equals capacity fraction.
	hist := ZipfIndexHistogram(4, 16, 1000, 0) // s=0 is uniform
	c := HotCache{Capacity: 16}                // a quarter of 64 entries
	got := c.HitRate(hist)
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("uniform hit rate %.3f, want 0.25", got)
	}
}

func TestHotCacheHitRateSkewed(t *testing.T) {
	// Zipf(1.2) skew: a quarter-size cache should absorb well over half
	// the lookups.
	hist := ZipfIndexHistogram(4, 16, 100000, 1.2)
	c := HotCache{Capacity: 16}
	got := c.HitRate(hist)
	if got < 0.6 {
		t.Fatalf("skewed hit rate %.3f, want > 0.6", got)
	}
	// More capacity never hurts.
	if bigger := (HotCache{Capacity: 32}).HitRate(hist); bigger < got {
		t.Fatal("hit rate decreased with capacity")
	}
}

func TestHotCacheEmptyHistogram(t *testing.T) {
	if r := (HotCache{Capacity: 4}).HitRate([][]int64{{0, 0}}); r != 0 {
		t.Fatalf("empty histogram hit rate %v", r)
	}
}

func TestCachedKernelFasterWithHits(t *testing.T) {
	p := UPMEM()
	w := Workload{N: 1024, CB: 128, CT: 16, F: 1024, ElemBytes: 1}
	m := Mapping{NsTile: 256, FsTile: 128, NmTile: 16, FmTile: 32, CBmTile: 32,
		Traversal: [3]Loop{LoopN, LoopF, LoopCB},
		Scheme:    FineLoad, FLoadTile: 32}
	if err := m.Validate(p, w); err != nil {
		t.Fatal(err)
	}
	base := SimTiming(p, w, m)
	cached := CachedKernelTiming(p, w, m, 0.7)
	if cached.KernelXfer >= base.KernelXfer {
		t.Fatalf("cache did not reduce transfer time: %g vs %g", cached.KernelXfer, base.KernelXfer)
	}
	// Reduce work unchanged.
	if cached.KernelRed != base.KernelRed {
		t.Fatal("cache must not change reduce work")
	}
	// Zero hit rate: identical.
	same := CachedKernelTiming(p, w, m, 0)
	if same.KernelXfer != base.KernelXfer {
		t.Fatal("zero hit rate should be a no-op")
	}
}

func TestCBSplitPenalized(t *testing.T) {
	// Splitting the codebook dimension forces partial-sum merging through
	// the host; for any realistic shape the merged-gather traffic dwarfs
	// what the per-PE reduce saves (limitation L2, design decision #3).
	p := UPMEM()
	w := Workload{N: 32768, CB: 192, CT: 16, F: 2304, ElemBytes: 1}
	m := Mapping{NsTile: 4096, FsTile: 288, NmTile: 64, FmTile: 32, CBmTile: 192,
		Traversal: [3]Loop{LoopF, LoopCB, LoopN},
		Scheme:    CoarseLoad, CBLoadTile: 1, FLoadTile: 32}
	if err := m.Validate(p, w); err != nil {
		t.Fatal(err)
	}
	for _, ways := range []int{2, 4, 8} {
		pen := CBSplitPenalty(p, w, m, ways)
		t.Logf("CB split %d ways: %.2fx slowdown", ways, pen)
		if pen <= 1 {
			t.Fatalf("CB split %d ways should be slower, got %.2fx", ways, pen)
		}
	}
	// More ways → strictly more host gather traffic.
	if CBSplitTiming(p, w, m, 8).HostOutput <= CBSplitTiming(p, w, m, 2).HostOutput {
		t.Fatal("gather traffic should grow with split ways")
	}
	// ways = 1 is the identity.
	if CBSplitTiming(p, w, m, 1).Total() != SimTiming(p, w, m).Total() {
		t.Fatal("ways=1 should equal baseline")
	}
}
