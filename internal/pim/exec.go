package pim

import (
	"fmt"

	"repro/internal/lutnn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Events counts, for one PE, the DMA operations and bytes moved between
// its local bank and on-chip buffer, plus reduce work. All PEs execute the
// same micro kernel on identically sized tiles (the load-balance property
// the partition scheme guarantees — paper L3), so one set of counts covers
// the whole array.
type Events struct {
	IndexLoadOps   int
	IndexLoadBytes int64
	LUTLoadOps     int
	LUTLoadBytes   int64
	OutLoadOps     int
	OutLoadBytes   int64
	OutStoreOps    int
	OutStoreBytes  int64
	ReduceElems    int64
}

// Timing decomposes the modelled execution time of one LUT operator
// (Eqs. 3–10).
type Timing struct {
	HostIndex  float64 // t_sub_index: index tiles to PEs
	HostLUT    float64 // t_sub_lut: table tiles to PEs
	HostOutput float64 // t_sub_output: results back to host
	KernelXfer float64 // t_transfer: bank↔buffer traffic, worst PE
	KernelRed  float64 // t_reduce: accumulate work, worst PE
}

// Sub returns the sub-LUT partition overhead t_sub-lut (Eq. 3).
func (t Timing) Sub() float64 { return t.HostIndex + t.HostLUT + t.HostOutput }

// Kernel returns the micro-kernel latency (Eq. 6).
func (t Timing) Kernel() float64 { return t.KernelXfer + t.KernelRed }

// Total returns end-to-end operator time.
func (t Timing) Total() float64 { return t.Sub() + t.Kernel() }

// Result is the outcome of a simulated LUT operator execution.
type Result struct {
	Output *tensor.Tensor
	Events Events
	Timing Timing
	PEs    int
	// Recovery reports the fault-tolerance activity of the run. It is nil
	// for executions without a fault plan (or with a zero plan).
	Recovery *Recovery
}

// countEvents derives the per-PE event counts for mapping m on workload w.
// The counting follows the actual kernel the simulator executes: output
// tiles skip the load on their first visit (fresh accumulators) and large
// staging loads split at the platform's DMA granularity. The analytical
// model in the mapping package intentionally simplifies both (that gap is
// the cost-model error quantified in Fig. 13).
func countEvents(p *Platform, w Workload, m Mapping) Events {
	tn := m.NsTile / m.NmTile
	tf := m.FsTile / m.FmTile
	tcb := w.CB / m.CBmTile
	trips := map[Loop]int{LoopN: tn, LoopF: tf, LoopCB: tcb}

	// visits(dims) = Π trips of loops from the outermost through the
	// deepest loop that indexes the tensor (classic reuse analysis).
	visits := func(dims ...Loop) int {
		in := func(l Loop) bool {
			for _, d := range dims {
				if d == l {
					return true
				}
			}
			return false
		}
		deepest := -1
		for i, l := range m.Traversal {
			if in(l) {
				deepest = i
			}
		}
		prod := 1
		for i := 0; i <= deepest; i++ {
			prod *= trips[m.Traversal[i]]
		}
		return prod
	}

	dmaOps := func(bytes int) int {
		if bytes <= 0 {
			return 0
		}
		return (bytes + p.MaxDMABytes - 1) / p.MaxDMABytes
	}

	var ev Events

	// Index MTiles: Nm×CBm one-byte entries per visit.
	idxVisits := visits(LoopN, LoopCB)
	idxBytes := m.NmTile * m.CBmTile
	ev.IndexLoadOps = idxVisits * dmaOps(idxBytes)
	ev.IndexLoadBytes = int64(idxVisits) * int64(idxBytes)

	// Output MTiles: Nm×Fm 4-byte accumulators. Every visit stores; loads
	// skip the first visit of each distinct tile (accumulators start at
	// zero on-chip).
	outVisits := visits(LoopN, LoopF)
	outBytes := m.NmTile * m.FmTile * 4
	distinctOut := tn * tf
	loadVisits := outVisits - distinctOut
	ev.OutLoadOps = loadVisits * dmaOps(outBytes)
	ev.OutLoadBytes = int64(loadVisits) * int64(outBytes)
	ev.OutStoreOps = outVisits * dmaOps(outBytes)
	ev.OutStoreBytes = int64(outVisits) * int64(outBytes)

	// LUT traffic by load scheme.
	switch m.Scheme {
	case StaticLoad:
		bytes := w.CB * w.CT * m.FsTile * w.ElemBytes
		ev.LUTLoadOps = dmaOps(bytes)
		ev.LUTLoadBytes = int64(bytes)
	case CoarseLoad:
		lutVisits := visits(LoopCB, LoopF)
		opsPerVisit := (m.CBmTile / m.CBLoadTile) * (m.FmTile / m.FLoadTile)
		blockBytes := m.CBLoadTile * w.CT * m.FLoadTile * w.ElemBytes
		ev.LUTLoadOps = lutVisits * opsPerVisit * dmaOps(blockBytes)
		ev.LUTLoadBytes = int64(lutVisits) * int64(opsPerVisit) * int64(blockBytes)
	case FineLoad:
		// Only the indexed rows are fetched, FLoadTile features at a time.
		elems := int64(m.NsTile) * int64(w.CB) * int64(m.FsTile)
		ev.LUTLoadOps = int(elems / int64(m.FLoadTile))
		ev.LUTLoadBytes = elems * int64(w.ElemBytes)
	}

	ev.ReduceElems = int64(m.NsTile) * int64(w.CB) * int64(m.FsTile)
	return ev
}

// HostTraffic is the Eq. 4 host↔PE transfer decomposition of one LUT
// operator: the bytes each sub-LUT partition phase moves and the bus
// mode it moves them in. The timing model and the metrics layer both
// read these — the byte counters exported per run are exactly the
// numbers the model converts into seconds, not a parallel estimate.
type HostTraffic struct {
	IndexBytes, LUTBytes, OutputBytes float64
	IndexMode, LUTMode                TransferMode
}

// BroadcastBytes returns the bytes that travel in broadcast mode.
func (h HostTraffic) BroadcastBytes() float64 {
	var b float64
	if h.IndexMode == Broadcast {
		b += h.IndexBytes
	}
	if h.LUTMode == Broadcast {
		b += h.LUTBytes
	}
	return b
}

// HostTrafficFor computes the host-transfer sizes and modes for mapping
// m on workload w (see HostTraffic).
func HostTrafficFor(p *Platform, w Workload, m Mapping) HostTraffic {
	npe := m.PEs(w)
	// Sub-LUT partition transfers (Eq. 4): each PE receives its index tile
	// and LUT tile; reuse across a group/row of PEs upgrades the transfer
	// to broadcast bandwidth (paper L1). On shared-memory platforms the
	// tensors are written once into device memory instead of copied per PE.
	idxCopies, lutCopies := float64(npe), float64(npe)
	if p.SharedMemoryHost {
		idxCopies = float64(m.Groups(w))
		lutCopies = float64(m.PEsPerGroup(w))
	}
	ht := HostTraffic{
		IndexBytes:  float64(m.NsTile*w.CB) * idxCopies,
		LUTBytes:    float64(w.CB*w.CT*m.FsTile*w.ElemBytes) * lutCopies,
		OutputBytes: float64(w.OutputBytes()),
		IndexMode:   Scatter,
		LUTMode:     Scatter,
	}
	if m.PEsPerGroup(w) > 1 {
		ht.IndexMode = Broadcast
	}
	if m.Groups(w) > 1 {
		ht.LUTMode = Broadcast
	}
	return ht
}

// timing converts event counts plus host-transfer sizes into seconds.
func timing(p *Platform, w Workload, m Mapping, ev Events) Timing {
	var t Timing
	ht := HostTrafficFor(p, w, m)
	t.HostIndex = p.HostTransferTime(ht.IndexBytes, ht.IndexMode)
	t.HostLUT = p.HostTransferTime(ht.LUTBytes, ht.LUTMode)
	t.HostOutput = p.HostTransferTime(ht.OutputBytes, Gather)

	// LUT traffic pays the index-driven access derating; the streaming
	// tensors (index, output) run at full bank bandwidth.
	eff := p.LUTAccessEff
	if eff <= 0 {
		eff = 1
	}
	lutBytesEff := float64(ev.LUTLoadBytes) / eff
	otherBytes := float64(ev.IndexLoadBytes + ev.OutLoadBytes + ev.OutStoreBytes)
	xferOps := ev.IndexLoadOps + ev.LUTLoadOps + ev.OutLoadOps + ev.OutStoreOps
	t.KernelXfer = p.LocalTransferTime(lutBytesEff+otherBytes, xferOps)
	t.KernelRed = p.ReduceTime(float64(ev.ReduceElems), m.Scheme)
	if p.OverlapComputeTransfer {
		// MAC engines reduce in-stream: the slower of the two paths sets
		// the kernel time. Report it all under KernelXfer/KernelRed by
		// scaling so the decomposition still sums to the total.
		if t.KernelXfer >= t.KernelRed {
			t.KernelRed = 0
		} else {
			t.KernelXfer = 0
		}
	}
	return t
}

// SimTiming returns the simulator's timing for mapping m without running
// the functional kernel: the same event counting the executor uses,
// converted to seconds. This is the "real performance" the auto-tuner's
// analytical model is validated against (Fig. 13).
func SimTiming(p *Platform, w Workload, m Mapping) Timing {
	return timing(p, w, m, countEvents(p, w, m))
}

// ExecuteLUT runs the LUT operator functionally across simulated PEs with
// FP32 tables and returns the output plus modelled timing. idx is the
// N×CB index matrix from CCS.
func ExecuteLUT(p *Platform, w Workload, m Mapping, idx []uint8, tbl *lutnn.LUT) (*Result, error) {
	return ExecuteLUTWithFaults(p, w, m, idx, tbl, FaultPlan{})
}

// ExecuteLUTWithFaults runs the FP32 operator under a fault plan: dead
// PEs hand their tiles to healthy ones, corrupted DMA transfers are
// retried against checksums, and surviving corruption really lands in the
// output data. A zero plan is byte-identical to ExecuteLUT.
func ExecuteLUTWithFaults(p *Platform, w Workload, m Mapping, idx []uint8, tbl *lutnn.LUT, plan FaultPlan) (*Result, error) {
	if err := checkShapes(w, m, idx, tbl.CB, tbl.CT, tbl.F); err != nil {
		return nil, err
	}
	return executeTiles(p, w, m, idx, plan, func(t tile, idxTile []uint8, out *tensor.Tensor) {
		for r := t.rowLo; r < t.rowHi; r++ {
			dst := out.Row(r)[t.colLo:t.colHi]
			row := idxTile[(r-t.rowLo)*w.CB:]
			for cb := 0; cb < w.CB; cb++ {
				src := tbl.Slice(cb, int(row[cb]))[t.colLo:t.colHi]
				for f, v := range src {
					dst[f] += v
				}
			}
		}
	})
}

// ExecuteLUTInt8 runs the operator with INT8 tables, accumulating in int32
// per PE exactly as the UPMEM kernel would, and rescaling once at the end.
func ExecuteLUTInt8(p *Platform, w Workload, m Mapping, idx []uint8, tbl *lutnn.QuantizedLUT) (*Result, error) {
	return ExecuteLUTInt8WithFaults(p, w, m, idx, tbl, FaultPlan{})
}

// ExecuteLUTInt8WithFaults is ExecuteLUTInt8 under a fault plan (see
// ExecuteLUTWithFaults).
func ExecuteLUTInt8WithFaults(p *Platform, w Workload, m Mapping, idx []uint8, tbl *lutnn.QuantizedLUT, plan FaultPlan) (*Result, error) {
	if err := checkShapes(w, m, idx, tbl.CB, tbl.CT, tbl.F); err != nil {
		return nil, err
	}
	return executeTiles(p, w, m, idx, plan, func(t tile, idxTile []uint8, out *tensor.Tensor) {
		acc := make([]int32, t.cols())
		for r := t.rowLo; r < t.rowHi; r++ {
			for f := range acc {
				acc[f] = 0
			}
			row := idxTile[(r-t.rowLo)*w.CB:]
			for cb := 0; cb < w.CB; cb++ {
				src := tbl.Slice(cb, int(row[cb]))[t.colLo:t.colHi]
				for f, v := range src {
					acc[f] += int32(v)
				}
			}
			dst := out.Row(r)[t.colLo:t.colHi]
			for f, v := range acc {
				dst[f] = float32(v) * tbl.Scale
			}
		}
	})
}

func checkShapes(w Workload, m Mapping, idx []uint8, cb, ct, f int) error {
	if cb != w.CB || ct != w.CT || f != w.F {
		return fmt.Errorf("pim: table shape (%d,%d,%d) != workload (%d,%d,%d)", cb, ct, f, w.CB, w.CT, w.F)
	}
	if len(idx) != w.N*w.CB {
		return fmt.Errorf("pim: index length %d != N·CB = %d", len(idx), w.N*w.CB)
	}
	if m.NsTile <= 0 || m.FsTile <= 0 || w.N%m.NsTile != 0 || w.F%m.FsTile != 0 {
		return fmt.Errorf("pim: illegal sub-LUT tiles (%d,%d) for N=%d F=%d", m.NsTile, m.FsTile, w.N, w.F)
	}
	return nil
}

// runPEs executes fn once per simulated PE over that PE's output tile,
// fanning out on the shared worker pool (internal/parallel). Each PE
// writes a disjoint output tile, so results are independent of the
// worker count.
func runPEs(w Workload, m Mapping, fn func(rowLo, rowHi, colLo, colHi int)) {
	groups := w.N / m.NsTile
	perGroup := w.F / m.FsTile
	pes := groups * perGroup
	work := w.N * w.F * w.CB / 4 // rough per-element op count across all PEs
	parallel.For(pes, work, func(lo, hi int) {
		for pe := lo; pe < hi; pe++ {
			g, j := pe/perGroup, pe%perGroup
			fn(g*m.NsTile, (g+1)*m.NsTile, j*m.FsTile, (j+1)*m.FsTile)
		}
	})
}
