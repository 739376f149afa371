// Package autotuner implements PIM-DL's Algorithm 1: it searches the
// sub-LUT partitions and their micro-kernel spaces with the analytical
// cost model and keeps the mapping with the smallest total predicted
// latency. The search is an exact branch-and-bound: sub-trees whose
// cost-model lower bound exceeds the best mapping found so far are
// skipped, so the answer is the one an exhaustive sweep would return.
package autotuner

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/mapping"
	"repro/internal/pim"
)

// Result is the tuner's output for one LUT operator.
type Result struct {
	Mapping   pim.Mapping
	Predicted pim.Timing // cost-model estimate for the chosen mapping
	Simulated pim.Timing // simulator timing for the chosen mapping
	// Evaluated is the number of legal mappings the search scored with
	// the cost model (the rest were excluded by their bound).
	Evaluated int
}

// ErrNoLegalMapping is returned when the workload cannot be placed on the
// platform at all (e.g. tiles never fit the on-chip buffer).
var ErrNoLegalMapping = errors.New("autotuner: no legal mapping")

// search is the state of one Tune call: the incumbent and the partition
// whose micro kernels are being scored.
type search struct {
	p *pim.Platform
	w pim.Workload

	part  int // index of the current partition in enumeration order
	terms mapping.Partition

	best      pim.Mapping
	bestT     pim.Timing
	bestCost  float64
	bestPart  int
	evaluated int
}

// prunes reports whether no mapping under a sub-tree of the current
// partition with the given lower bound can replace the incumbent. The
// winner is the first mapping in enumeration order (partition, then
// MicroKernels order) with the strictly smallest cost, so a sub-tree
// whose bound only equals the incumbent is still skipped when all of it
// enumerates later: a later partition, or — micro kernels being scored in
// enumeration order — the rest of the incumbent's own partition.
func (s *search) prunes(bound float64) bool {
	return bound > s.bestCost || (bound >= s.bestCost && s.part >= s.bestPart)
}

// score is the per-candidate step: cost one legal mapping of the current
// partition and keep it if it beats the incumbent.
//
//pimdl:hotpath
func (s *search) score(m pim.Mapping) {
	// An MTile is indexed by two of the three loops and visited once per
	// iteration of the deeper one, so swapping a traversal's two outer
	// loops changes no visit count: the pair costs exactly the same, and
	// only the one mapping.Orders lists first can win.
	if m.Traversal[0] > m.Traversal[1] {
		return
	}
	s.evaluated++
	t := s.terms.Kernel(s.p, m.Scheme, mapping.KernelTraffic(s.w, m))
	//pimdl:lint-ignore hotpath pim.Timing.Total is allocation-free arithmetic
	c := t.Total()
	if c < s.bestCost || (c <= s.bestCost && s.part < s.bestPart) {
		s.best, s.bestT, s.bestCost, s.bestPart = m, t, c, s.part
	}
}

// Tune searches the mapping space of w on p (Algorithm 1) and returns the
// best mapping by predicted cost: of the mappings with the smallest
// mapping.Cost total, the first in mapping.Enumerate order.
func Tune(p *pim.Platform, w pim.Workload, cfg mapping.SpaceConfig) (*Result, error) {
	if w.CB <= 0 {
		return nil, ErrNoLegalMapping // no codebook to tile, and nothing to bound
	}
	type bounded struct {
		part  int
		terms mapping.Partition
		bound float64
	}
	parts := mapping.SubLUTPartitions(p, w, cfg)
	queue := make([]bounded, len(parts))
	for i, sf := range parts {
		terms := mapping.PartitionCost(p, w, sf[0], sf[1])
		whole := pim.Mapping{NsTile: sf[0], FsTile: sf[1], NmTile: sf[0], FmTile: sf[1], CBmTile: w.CB}
		queue[i] = bounded{i, terms, terms.LowerBound(p, w, whole)}
	}
	// Best first: the cheapest-looking partition sets a strong incumbent
	// early. The stable sort keeps equal bounds in enumeration order.
	slices.SortStableFunc(queue, func(a, b bounded) int { return cmp.Compare(a.bound, b.bound) })

	s := &search{p: p, w: w, bestCost: math.Inf(1), bestPart: -1}
	keep := func(base pim.Mapping) bool { return !s.prunes(s.terms.LowerBound(p, w, base)) }
	for _, q := range queue {
		if q.bound > s.bestCost {
			break // bounds ascend: no later partition can win either
		}
		s.part, s.terms = q.part, q.terms
		if !s.prunes(q.bound) {
			mapping.MicroKernels(p, w, parts[q.part][0], parts[q.part][1], cfg, keep, s.score)
		}
	}
	if s.bestPart < 0 {
		return nil, ErrNoLegalMapping
	}
	if err := s.best.Validate(p, w); err != nil {
		return nil, fmt.Errorf("autotuner: search returned an illegal mapping: %w", err)
	}
	return &Result{Mapping: s.best, Predicted: s.bestT, Simulated: pim.SimTiming(p, w, s.best), Evaluated: s.evaluated}, nil
}

// ExhaustiveBest scores every legal mapping with the *simulator* timing
// and returns the best and worst (used by the Fig. 13 mapping-space
// visualization to quantify how close the tuner's pick is to the true
// optimum).
func ExhaustiveBest(p *pim.Platform, w pim.Workload, cfg mapping.SpaceConfig) (best, worst pim.Mapping, bestT, worstT float64, n int) {
	bestT = math.Inf(1)
	worstT = 0
	mapping.Enumerate(p, w, cfg, func(m pim.Mapping) {
		n++
		t := pim.SimTiming(p, w, m).Total()
		if t < bestT {
			bestT, best = t, m
		}
		if t > worstT {
			worstT, worst = t, m
		}
	})
	return best, worst, bestT, worstT, n
}
