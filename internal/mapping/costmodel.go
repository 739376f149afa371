// Package mapping implements the analytical performance model of the LUT
// operator on DRAM-PIMs (paper §5.2, Eqs. 3–10) and the enumeration of the
// auto-tuner's search space (§5.3, P1–P4).
//
// The model is a deliberate simplification of the simulator in the pim
// package: load and store counts come from closed-form reuse formulas
// (LCount/SCount in Table 2) with one DMA per logical tile load, whereas
// the simulator skips first-visit output loads and splits staging loads at
// the hardware DMA granularity. The residual disagreement is the cost-model
// error the paper quantifies in §6.6 (3.44% average, 13.73% max).
package mapping

import (
	"math"

	"repro/internal/pim"
)

// Cost evaluates Eqs. 3–10 for mapping m of workload w on platform p.
//
//pimdl:hotpath
func Cost(p *pim.Platform, w pim.Workload, m pim.Mapping) pim.Timing {
	return PartitionCost(p, w, m.NsTile, m.FsTile).Kernel(p, m.Scheme, KernelTraffic(w, m))
}

// Partition holds the terms of Cost that the sub-LUT partition
// (NsTile, FsTile) fixes for every micro kernel under it: the host
// transfers of Eqs. 3–5 and the reduce count of Eq. 10.
type Partition struct {
	Host   pim.Timing // HostIndex, HostLUT, HostOutput; kernel terms zero
	RCount float64    // accumulate elements per PE
}

// PartitionCost evaluates the partition terms of Cost for NsTile = ns,
// FsTile = fs.
//
//pimdl:hotpath
func PartitionCost(p *pim.Platform, w pim.Workload, ns, fs int) Partition {
	groups, perGroup := w.N/ns, w.F/fs
	// Shared-memory platforms write each tensor once into device memory
	// instead of per-PE copies.
	idxCopies, lutCopies := float64(groups*perGroup), float64(groups*perGroup)
	if p.SharedMemoryHost {
		idxCopies, lutCopies = float64(groups), float64(perGroup)
	}
	idxMode, lutMode := pim.Scatter, pim.Scatter
	if perGroup > 1 {
		idxMode = pim.Broadcast
	}
	if groups > 1 {
		lutMode = pim.Broadcast
	}
	var pt Partition
	//pimdl:lint-ignore hotpath pim.Platform timing methods are allocation-free arithmetic
	pt.Host.HostIndex = p.HostTransferTime(float64(ns*w.CB)*idxCopies, idxMode)
	//pimdl:lint-ignore hotpath pim.Platform timing methods are allocation-free arithmetic
	pt.Host.HostLUT = p.HostTransferTime(float64(w.CB*w.CT*fs*w.ElemBytes)*lutCopies, lutMode)
	//pimdl:lint-ignore hotpath pim.Platform timing methods are allocation-free arithmetic
	pt.Host.HostOutput = p.HostTransferTime(float64(w.OutputBytes()), pim.Gather)
	pt.RCount = float64(ns) * float64(w.CB) * float64(fs)
	return pt
}

// Traffic is one PE's bank↔buffer traffic under a micro kernel: the
// LCount/SCount × MTileSize leaves of Eqs. 7–9.
type Traffic struct {
	Bytes    float64 // index and output MTile bytes
	LUTBytes float64 // LUT bytes, before the LUTAccessEff derating
	Ops      int     // DMA operations
}

// Kernel completes the partition terms with the micro-kernel terms
// (Eqs. 6 and 10) of a PE that moves tr under the given load scheme.
//
//pimdl:hotpath
func (pt Partition) Kernel(p *pim.Platform, scheme pim.LoadScheme, tr Traffic) pim.Timing {
	t := pt.Host
	eff := p.LUTAccessEff
	if eff <= 0 {
		eff = 1
	}
	//pimdl:lint-ignore hotpath pim.Platform timing methods are allocation-free arithmetic
	t.KernelXfer = p.LocalTransferTime(tr.Bytes+tr.LUTBytes/eff, tr.Ops)
	// Reduce latency (Eq. 10): RCount × t_single-reduce.
	//pimdl:lint-ignore hotpath pim.Platform timing methods are allocation-free arithmetic
	t.KernelRed = p.ReduceTime(pt.RCount, scheme)
	if p.OverlapComputeTransfer {
		if t.KernelXfer >= t.KernelRed {
			t.KernelRed = 0
		} else {
			t.KernelXfer = 0
		}
	}
	return t
}

// KernelTraffic counts the traffic of mapping m's micro kernel under its
// traversal order: an MTile indexed by two of the three loops is visited
// once per iteration of the deeper one.
//
//pimdl:hotpath
func KernelTraffic(w pim.Workload, m pim.Mapping) Traffic {
	trips := [3]int{pim.LoopN: m.NsTile / m.NmTile, pim.LoopF: m.FsTile / m.FmTile, pim.LoopCB: w.CB / m.CBmTile}
	// upTo[l] is the trip-count product from the outermost loop down to l.
	upTo := [3]int{1, 1, 1}
	prod := 1
	for _, l := range m.Traversal {
		if l < pim.LoopN || l > pim.LoopCB {
			continue // Validate does not range-check loops
		}
		prod *= trips[l]
		upTo[l] = prod
	}
	return traffic(w, m,
		max(upTo[pim.LoopN], upTo[pim.LoopCB]),
		max(upTo[pim.LoopN], upTo[pim.LoopF]),
		max(upTo[pim.LoopCB], upTo[pim.LoopF]))
}

// traffic counts the traffic of m's micro kernel when its index, output
// and LUT MTiles are visited iv, ov and lv times.
//
//pimdl:hotpath
func traffic(w pim.Workload, m pim.Mapping, iv, ov, lv int) Traffic {
	// Index MTiles (LCount_index × MTileSize_index, Eq. 8).
	tr := Traffic{Bytes: float64(iv) * float64(m.NmTile*m.CBmTile), Ops: iv}

	// Output MTiles (Eqs. 8–9): every visit stores; loads skip each tile's
	// first visit because accumulators start at zero on-chip.
	distinct := (m.NsTile / m.NmTile) * (m.FsTile / m.FmTile)
	tr.Bytes += float64(2*ov-distinct) * float64(m.NmTile*m.FmTile*4)
	tr.Ops += 2*ov - distinct

	// LUT traffic per load scheme (P4).
	switch m.Scheme {
	case pim.StaticLoad:
		tr.LUTBytes = float64(w.CB * w.CT * m.FsTile * w.ElemBytes)
		tr.Ops++
	case pim.CoarseLoad:
		per := (m.CBmTile / m.CBLoadTile) * (m.FmTile / m.FLoadTile)
		tr.LUTBytes = float64(lv) * float64(per) * float64(m.CBLoadTile*w.CT*m.FLoadTile*w.ElemBytes)
		tr.Ops += lv * per
	case pim.FineLoad:
		elems := float64(m.NsTile) * float64(w.CB) * float64(m.FsTile)
		tr.LUTBytes = elems * float64(w.ElemBytes)
		tr.Ops += int(elems) / m.FLoadTile
	}
	return tr
}

// LowerBound returns a value no mapping that shares base's sub-LUT
// partition and micro-kernel tiles can undercut, whatever its traversal,
// scheme and load tiles: Cost's own expressions evaluated at the minimal
// traffic (every MTile moved once, LUT loads as large as the MTile), the
// cheapest scheme taken. Passing NmTile = NsTile, FmTile = FsTile and
// CBmTile = CB bounds the whole partition. Every count is smaller than or
// equal to the real one and the expressions are monotone in each, so the
// bound holds in floating point with no tolerance.
func (pt Partition) LowerBound(p *pim.Platform, w pim.Workload, base pim.Mapping) float64 {
	base.CBLoadTile, base.FLoadTile = base.CBmTile, base.FmTile
	tn, tf, tcb := base.NsTile/base.NmTile, base.FsTile/base.FmTile, w.CB/base.CBmTile
	bound := math.Inf(1)
	for _, sc := range Schemes {
		base.Scheme = sc
		bound = min(bound, pt.Kernel(p, sc, traffic(w, base, tn*tcb, tn*tf, tcb*tf)).Total())
	}
	return bound
}

// ModelError returns |model − sim| / sim for total operator time, the
// quantity reported in §6.6.
func ModelError(p *pim.Platform, w pim.Workload, m pim.Mapping) float64 {
	model := Cost(p, w, m).Total()
	sim := pim.SimTiming(p, w, m).Total()
	d := model - sim
	if d < 0 {
		d = -d
	}
	return d / sim
}
