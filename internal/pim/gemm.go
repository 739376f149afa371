package pim

import (
	"math"
)

// GEMMWorkload is one linear layer executed as a plain matrix multiply on
// the PIM array — the paper's "GEMM-based inference on DRAM-PIMs"
// baseline (offloading linear layers without LUT-NN conversion).
type GEMMWorkload struct {
	N, H, F int
	// Batch is the number of independent sequences inside N; the
	// GEMV-style dataflow of HBM-PIM/AiM pays a per-row command cost that
	// grows with batch (paper §6.7: "larger batch sizes are unfriendly").
	Batch     int
	ElemBytes int
}

// GEMMOnPIM models one GEMM executed across the platform's PEs with the
// output features partitioned evenly (each PE computes an N×(F/#PE)
// slice). Returns the modelled timing; the arithmetic itself is exact, so
// no functional simulation is needed for correctness experiments.
func GEMMOnPIM(p *Platform, w GEMMWorkload) Timing {
	var t Timing
	npe := p.NumPE
	fs := float64(w.F) / float64(npe)

	// Host side: activations broadcast to every PE (or written once into
	// shared device memory), outputs gathered. Weights are assumed
	// pre-loaded (serving steady state).
	actCopies := float64(npe)
	if p.SharedMemoryHost {
		actCopies = 1
	}
	actBytes := float64(w.N*w.H*w.ElemBytes) * actCopies
	t.HostIndex = p.HostTransferTime(actBytes, Broadcast)
	t.HostOutput = p.HostTransferTime(float64(w.N*w.F*4), Gather)

	// PE side.
	macs := float64(w.N) * float64(w.H) * fs
	compute := macs / (p.GEMMMACsPerCycle * p.FreqHz)

	var stream float64
	if p.GEMMWeightResident {
		// Weights live in the PE's bank; they stream into the on-chip
		// buffer once per block of activation rows that fits alongside
		// them.
		rowsPerPass := float64(p.WRAMBytes) / float64(2*w.H*w.ElemBytes)
		if rowsPerPass < 1 {
			rowsPerPass = 1
		}
		passes := math.Ceil(float64(w.N) / rowsPerPass)
		weightBytes := float64(w.H) * fs * float64(w.ElemBytes)
		stream = p.LocalTransferTime(passes*weightBytes, int(passes))
	} else {
		// GEMV-style dataflow: the full weight slice streams from the
		// banks for every activation row (no reuse), with a batch penalty
		// for per-row command overhead and bank-conflict loss.
		bytes := float64(w.N) * float64(w.H) * fs * float64(w.ElemBytes)
		penalty := 1 + p.GEMVBatchPenalty*math.Log2(math.Max(1, float64(w.Batch)))
		eff := p.GEMVEff
		if eff <= 0 {
			eff = 1
		}
		stream = bytes/(p.LocalBWPerPE*eff)*penalty + float64(w.N)*p.GEMVRowOverhead
	}

	// MAC engines overlap compute with streaming; in-order DPUs do not.
	if p.GEMMWeightResident {
		t.KernelXfer = stream
		t.KernelRed = compute
	} else {
		t.KernelRed = math.Max(stream, compute)
	}
	return t
}

// ElementwiseOnPIM models a memory-bound elementwise operator (ReLU, add,
// norm) over n float32 elements: the data streams once through the PE
// banks at aggregate local bandwidth.
func ElementwiseOnPIM(p *Platform, nElems int) float64 {
	bytes := float64(nElems) * 4 * 2 // read + write
	agg := p.LocalBWPerPE * float64(p.NumPE)
	return p.HostXferLatency + bytes/agg
}
