package pim

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the two architecture extensions the paper proposes
// as future work (§7): adder-only PE designs and on-chip buffer management
// that exploits hot LUT entries.

// AdderOnly derives the paper's proposed adder-only variant of a platform:
// since LUT-NN removes every multiplication from the PIM-side operator,
// the multiplier area can be spent on more adders. Adders cost roughly an
// order of magnitude less area than same-width multipliers (the paper
// cites the TPUv4i lesson [46]), so the variant packs `densityGain` times
// the reduce throughput into the same envelope and drops GEMM capability
// entirely.
func AdderOnly(p *Platform, densityGain float64) *Platform {
	v := *p
	v.Name = p.Name + "-AdderOnly"
	v.ReduceCycles = p.ReduceCycles / densityGain
	v.FineGrainExtraCycles = p.FineGrainExtraCycles / densityGain
	v.GEMMMACsPerCycle = 0 // no multipliers: GEMM offload impossible
	return &v
}

// HotCache models the §7 on-chip buffer-management proposal: a per-PE
// cache holding the hottest (cb, ct) LUT entries. Because index
// distributions skew toward a few "hot" centroids, even a small cache
// absorbs a large fraction of table traffic.
type HotCache struct {
	// EntryBytes is the size of one cached F-slice.
	EntryBytes int
	// Capacity is the number of (cb, ct) slices the cache holds.
	Capacity int
}

// HitRate returns the fraction of lookups served from the cache under an
// optimal (hottest-entries-resident) policy, given the observed index
// histogram hist[cb][ct] (counts per table entry).
func (c HotCache) HitRate(hist [][]int64) float64 {
	var all []int64
	var total int64
	for _, row := range hist {
		for _, v := range row {
			all = append(all, v)
			total += v
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	var hit int64
	for i := 0; i < c.Capacity && i < len(all); i++ {
		hit += all[i]
	}
	return float64(hit) / float64(total)
}

// ZipfIndexHistogram builds a synthetic skewed histogram: within each
// codebook the k-th most popular centroid receives weight k^(−s). This is
// the "hot items" distribution the paper's §7 discussion anticipates. It
// panics on non-positive cb or ct.
func ZipfIndexHistogram(cb, ct int, n int64, s float64) [][]int64 {
	if cb <= 0 || ct <= 0 {
		panic(fmt.Sprintf("pim: ZipfIndexHistogram shape (cb=%d, ct=%d)", cb, ct))
	}
	hist := make([][]int64, cb)
	var norm float64
	for k := 1; k <= ct; k++ {
		norm += math.Pow(float64(k), -s)
	}
	for c := range hist {
		hist[c] = make([]int64, ct)
		for k := 1; k <= ct; k++ {
			hist[c][k-1] = int64(float64(n) * math.Pow(float64(k), -s) / norm)
		}
	}
	return hist
}

// CachedKernelTiming recomputes the micro-kernel time of mapping m when a
// hot-entry cache with the given hit rate absorbs that fraction of LUT
// bank traffic. Host transfers and reduce work are unchanged — only the
// bank↔buffer LUT bytes shrink.
func CachedKernelTiming(p *Platform, w Workload, m Mapping, hitRate float64) Timing {
	ev := countEvents(p, w, m)
	ev.LUTLoadBytes = int64(float64(ev.LUTLoadBytes) * (1 - hitRate))
	ev.LUTLoadOps = int(float64(ev.LUTLoadOps) * (1 - hitRate))
	return timing(p, w, m, ev)
}
