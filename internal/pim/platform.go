// Package pim simulates commodity DRAM-PIM platforms behind the
// architecture abstraction of paper §5.1 (Fig. 7): a host connected over
// memory channels to PIM modules containing processing engines (PEs), each
// with local memory banks and a small on-chip working buffer.
//
// The simulator is both functional and timed. Functional: the distributed
// LUT kernel really executes over simulated PEs, producing bit-exact
// outputs versus the single-threaded reference, so mapping legality and
// partitioning bugs surface as wrong results, not just wrong time. Timed:
// every host transfer, local DMA, and reduce operation is counted and
// converted to seconds with per-platform bandwidth/latency profiles
// calibrated to published measurements (UPMEM microbenchmarks from
// Gómez-Luna et al., HBM-PIM/AiM datasheet figures quoted in the paper's
// Table 1/3).
package pim

// TransferMode classifies host↔PIM transfers, whose effective bandwidth
// differs by pattern (paper L1: broadcast avoids host cache misses and is
// fastest; gather is slowest).
type TransferMode int

const (
	// Broadcast sends the same buffer to many PEs at once.
	Broadcast TransferMode = iota
	// Scatter sends distinct buffers to each PE in parallel.
	Scatter
	// Gather reads distinct buffers back from each PE.
	Gather
)

// LoadScheme selects how a PE stages LUT data from its local bank into the
// on-chip buffer (paper §5.3 P4, Fig. 9).
type LoadScheme int

const (
	// StaticLoad places the PE's whole LUT tile on-chip once.
	StaticLoad LoadScheme = iota
	// CoarseLoad stages CT-candidate blocks ahead of use.
	CoarseLoad
	// FineLoad fetches only the indexed elements on demand.
	FineLoad
)

// String returns the paper's name for the scheme.
func (s LoadScheme) String() string {
	switch s {
	case StaticLoad:
		return "static"
	case CoarseLoad:
		return "coarse"
	case FineLoad:
		return "fine"
	}
	return "?"
}

// Platform describes one DRAM-PIM product through the abstraction the
// auto-tuner's analytical model needs. Bandwidths are bytes/second.
type Platform struct {
	Name string

	NumPE     int
	FreqHz    float64
	WRAMBytes int   // per-PE on-chip buffer
	MRAMBytes int64 // per-PE local bank capacity

	// Host↔PIM bandwidths by transfer mode (aggregate across all PEs).
	BroadcastBW float64
	ScatterBW   float64
	GatherBW    float64
	// HostXferLatency is the fixed per-transfer-batch software latency
	// (driver call, rank synchronization).
	HostXferLatency float64

	// Local-bank streaming bandwidth per PE and the per-DMA setup time;
	// small transfers are penalized by the setup term, reproducing the
	// UPMEM behaviour that bandwidth drops with transfer size.
	LocalBWPerPE float64
	DMASetup     float64
	// MaxDMABytes is the largest single bank↔buffer DMA the hardware
	// supports (UPMEM: 2 KB); bigger loads split into multiple operations.
	MaxDMABytes int

	// LUTAccessEff derates LocalBWPerPE for table-lookup traffic: LUT
	// fetches are index-driven row activations rather than streaming
	// bursts, which costs DRAM efficiency on the SIMD MAC platforms.
	LUTAccessEff float64
	// OverlapComputeTransfer is true on platforms whose MAC engines
	// consume bank data in-stream (HBM-PIM/AiM): kernel time is
	// max(transfer, reduce) instead of their sum (UPMEM's DPUs serialize
	// explicit DMA with compute).
	OverlapComputeTransfer bool

	// ReduceCycles is the pipeline cost (cycles) of one table-lookup
	// accumulate element in the best case (data already on-chip).
	ReduceCycles float64
	// FineGrainExtraCycles is added per element under FineLoad for
	// per-element address generation (paper §6.6: on-chip offsets are
	// computed by the PE, so small load tiles waste issue slots).
	FineGrainExtraCycles float64

	// GEMM-mode behaviour for the PIM-GEMM baseline.
	GEMMMACsPerCycle float64 // per-PE MAC throughput
	// GEMVBatchPenalty scales the GEMV-dataflow streaming time by
	// (1 + penalty·log2(batch)) on platforms without weight reuse.
	GEMVBatchPenalty float64
	// GEMVRowOverhead is the fixed per-activation-row command cost of the
	// GEMV dataflow (command issue, bank open/close per row).
	GEMVRowOverhead float64
	// GEMVEff is the fraction of peak bank bandwidth the row-by-row GEMV
	// dataflow sustains (frequent row activations, no reuse).
	GEMVEff float64
	// SharedMemoryHost is true when the PIM array lives inside the host
	// accelerator's own memory (HBM-PIM/AiM): host↔PIM "transfers" are
	// single writes into shared device memory rather than per-PE copies.
	SharedMemoryHost bool
	// GEMMWeightResident is false when the platform streams weights from
	// banks for every activation row (HBM-PIM/AiM GEMV-style dataflow,
	// which is why large batches are "unfriendly" — paper §6.7).
	GEMMWeightResident bool

	ElemBytes int // native compute element width (1 = INT8, 2 = FP16/BF16)

	// PowerWatts is the module power used by the energy model (UPMEM:
	// 13.92 W/DIMM × 8 from dpu-diag, per paper §6.3).
	PowerWatts float64
}

// HostTransferTime returns the time to move bytes in the given mode,
// including the fixed software latency.
func (p *Platform) HostTransferTime(bytes float64, mode TransferMode) float64 {
	var bw float64
	switch mode {
	case Broadcast:
		bw = p.BroadcastBW
	case Scatter:
		bw = p.ScatterBW
	default:
		bw = p.GatherBW
	}
	if bytes <= 0 {
		return 0
	}
	return p.HostXferLatency + bytes/bw
}

// LocalTransferTime returns per-PE time for nOps DMA operations moving
// totalBytes between the local bank and the on-chip buffer.
func (p *Platform) LocalTransferTime(totalBytes float64, nOps int) float64 {
	if totalBytes <= 0 && nOps == 0 {
		return 0
	}
	return float64(nOps)*p.DMASetup + totalBytes/p.LocalBWPerPE
}

// ReduceTime returns per-PE time for elems accumulate operations under the
// given load scheme.
func (p *Platform) ReduceTime(elems float64, scheme LoadScheme) float64 {
	cycles := p.ReduceCycles
	if scheme == FineLoad {
		cycles += p.FineGrainExtraCycles
	}
	return elems * cycles / p.FreqHz
}

// UPMEM returns the DDR4-PIM platform of Table 3: 8 PIM-DIMMs with 1024
// DPUs at 350 MHz, 64 KB WRAM and 64 MB MRAM per DPU.
//
// Bandwidth calibration: per-DPU MRAM streaming ≈ 628 MB/s (so 8 DIMMs
// reach the 80.4 GB/s/DIMM aggregate in Table 1); host→PIM parallel
// transfers ≈ 6.6 GB/s, broadcast ≈ 22 GB/s, PIM→host ≈ 4.7 GB/s (PrIM
// benchmark measurements on the same product generation).
func UPMEM() *Platform {
	return &Platform{
		Name:      "UPMEM",
		NumPE:     1024,
		FreqHz:    350e6,
		WRAMBytes: 64 << 10,
		MRAMBytes: 64 << 20,

		BroadcastBW: 22e9,
		ScatterBW:   6.6e9,
		GatherBW:    4.7e9,
		// Each host↔PIM transfer batch pays DPU launch + rank
		// synchronization across 8 DIMMs; this fixed cost is why the CPU
		// server wins at small batches (paper Fig. 12-c).
		HostXferLatency: 5e-3,

		LocalBWPerPE: 628e6,
		DMASetup:     0.3e-6,
		MaxDMABytes:  2048,
		LUTAccessEff: 1,

		ReduceCycles:         0.45, // packed INT8 adds with DMA/compute overlap across 16 tasklets
		FineGrainExtraCycles: 2,

		GEMMMACsPerCycle:   0.29, // INT8 software MAC on an in-order DPU (~3.5 cycles)
		GEMMWeightResident: true,

		ElemBytes:  1,
		PowerWatts: 8 * 13.92,
	}
}

// HBMPIM returns the simulated Samsung HBM-PIM platform of Table 3:
// 4 cubes, 512 PEs, 8 GB HBM2, 2 TB/s and 1.2 TFLOPS per cube (4.8 TFLOPS
// aggregate, the figure the paper quotes against V100).
func HBMPIM() *Platform {
	return &Platform{
		Name:      "HBM-PIM",
		NumPE:     512,
		FreqHz:    1.2e9,
		WRAMBytes: 32 << 10,
		MRAMBytes: 16 << 20,

		// The PIM cubes sit in the accelerator's own memory system, so
		// host↔PIM transfers run at device-memory speeds, not PCIe.
		BroadcastBW:     180e9,
		ScatterBW:       150e9,
		GatherBW:        150e9,
		HostXferLatency: 3e-6,

		LocalBWPerPE:           8e12 / 512, // 2 TB/s × 4 cubes across 512 PEs
		DMASetup:               0.1e-6,
		MaxDMABytes:            4096,
		LUTAccessEff:           0.5,
		OverlapComputeTransfer: true,

		ReduceCycles:         0.26, // 16-lane FP16 SIMD at ~50% lookup-driven utilization
		FineGrainExtraCycles: 0.25,

		GEMMMACsPerCycle:   4, // 4.8 TFLOPS ÷ 512 PEs ÷ 1.2 GHz ÷ 2 ops/MAC
		GEMMWeightResident: false,
		GEMVBatchPenalty:   0.25,
		GEMVRowOverhead:    5e-6,
		GEMVEff:            0.12,
		SharedMemoryHost:   true,

		ElemBytes:  2,
		PowerWatts: 60,
	}
}

// AiM returns the simulated SK-Hynix AiM platform of Table 3: 16 GDDR6
// chips, 512 PEs, 1 TB/s and 1 TFLOPS per chip (16 TFLOPS aggregate).
func AiM() *Platform {
	return &Platform{
		Name:      "AiM",
		NumPE:     512,
		FreqHz:    1.0e9,
		WRAMBytes: 32 << 10,
		MRAMBytes: 32 << 20,

		// GDDR6-PIM chips on the accelerator board: device-memory-speed
		// host link.
		BroadcastBW:     180e9,
		ScatterBW:       150e9,
		GatherBW:        150e9,
		HostXferLatency: 3e-6,

		LocalBWPerPE:           16e12 / 512, // 1 TB/s × 16 chips across 512 PEs
		DMASetup:               0.1e-6,
		MaxDMABytes:            4096,
		LUTAccessEff:           0.5,
		OverlapComputeTransfer: true,

		ReduceCycles:         0.08, // wide BF16 MAC trees at ~50% lookup-driven utilization
		FineGrainExtraCycles: 0.064,

		GEMMMACsPerCycle:   16, // 16 TFLOPS ÷ 512 PEs ÷ 1 GHz ÷ 2 ops
		GEMMWeightResident: false,
		GEMVBatchPenalty:   0.25,
		GEMVRowOverhead:    5e-6,
		GEMVEff:            0.15,
		SharedMemoryHost:   true,

		ElemBytes:  2,
		PowerWatts: 120,
	}
}
