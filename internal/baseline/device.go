// Package baseline models the compute-centric devices PIM-DL is compared
// against (paper §6.1): the GGML-based CPU server (dual Xeon Gold 5218),
// the UPMEM host CPU (dual Xeon 4210), the NVIDIA V100 of the DGX-1
// baseline, and the A2 GPU that hosts the HBM-PIM/AiM platforms.
//
// Devices use a roofline performance model: an operator's time is the
// maximum of its compute time (ops ÷ effective peak) and its memory time
// (bytes ÷ bandwidth). That preserves exactly what the paper's
// cross-platform comparisons depend on — which side of each device's
// ridge point a kernel lands on — without pretending to model
// microarchitecture we don't have.
package baseline

import "math"

// Precision selects the datatype an operator runs in.
type Precision int

const (
	FP32 Precision = iota
	FP16
	INT8
)

// String returns the precision name.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case INT8:
		return "INT8"
	}
	return "?"
}

// Bytes returns the element width.
func (p Precision) Bytes() int {
	switch p {
	case FP32:
		return 4
	case FP16:
		return 2
	default:
		return 1
	}
}

// Device is one compute-centric baseline platform.
type Device struct {
	Name string
	// PeakOPS maps precision to peak arithmetic throughput (ops/s, where
	// one MAC = 2 ops).
	PeakOPS map[Precision]float64
	// MemBW is sustained memory bandwidth in bytes/s.
	MemBW float64
	// GEMMEff is the fraction of peak a tuned large GEMM achieves.
	GEMMEff float64
	// RidgeN is the GEMM row count at which the device reaches half its
	// large-matrix efficiency (kernel-launch overhead and unit
	// underutilization on skinny inputs; large for GPUs, small for CPUs).
	RidgeN int
	// PowerWatts is the busy package+DRAM power for the energy model.
	PowerWatts float64
	// IdleWatts is drawn while another device works.
	IdleWatts float64
}

// roofline returns max(ops/effPeak, bytes/bw).
func (d *Device) roofline(ops, bytes float64, prec Precision, eff float64) float64 {
	peak := d.PeakOPS[prec]
	//pimdl:lint-ignore float-compare missing map entry is exactly zero; fall back to the FP32 roof
	if peak == 0 {
		peak = d.PeakOPS[FP32]
	}
	ct := ops / (peak * eff)
	mt := bytes / d.MemBW
	return math.Max(ct, mt)
}

// GEMMTime models C(N×F) = A(N×H)·W(H×F): 2NHF ops against streaming A, W
// (weights assumed streamed once — they exceed cache) and writing C.
func (d *Device) GEMMTime(n, h, f int, prec Precision) float64 {
	ops := 2 * float64(n) * float64(h) * float64(f)
	eb := float64(prec.Bytes())
	bytes := (float64(n)*float64(h)+float64(h)*float64(f))*eb + float64(n)*float64(f)*4
	return d.roofline(ops, bytes, prec, d.gemmEff(n))
}

// gemmEff derates large-GEMM efficiency for skinny inputs.
func (d *Device) gemmEff(n int) float64 {
	if d.RidgeN <= 0 {
		return d.GEMMEff
	}
	return d.GEMMEff * float64(n) / float64(n+d.RidgeN)
}

// CCSTime models closest-centroid search (the host-side operator of
// PIM-DL): implemented via GEMM between activations and centroids
// (paper §5.2), 2·N·H·CT ops plus the argmin pass.
func (d *Device) CCSTime(n, h, ct int, prec Precision) float64 {
	ops := 3 * float64(n) * float64(h) * float64(ct)
	eb := float64(prec.Bytes())
	cb := float64(h) // codebooks: CB·CT·V = H·CT elements
	bytes := float64(n)*float64(h)*eb + cb*float64(ct)*eb + float64(n)*float64(h)
	return d.roofline(ops, bytes, prec, d.gemmEff(n)*0.4)
}

// AttentionTime models multi-head self-attention for batch sequences of
// length seq and width hidden: QKᵀ and PV are 2·B·S²·H MACs each, plus a
// softmax pass over B·heads·S² scores.
func (d *Device) AttentionTime(batch, seq, hidden, heads int, prec Precision) float64 {
	b, s, h := float64(batch), float64(seq), float64(hidden)
	ops := 8*b*s*s*h + 5*b*float64(heads)*s*s
	bytes := 3*b*s*h*float64(prec.Bytes()) + 2*b*float64(heads)*s*s*4
	return d.roofline(ops, bytes, prec, d.gemmEff(batch*seq))
}

// ElementwiseTime models a memory-bound pass (LayerNorm, GELU, residual)
// over n elements: read + write at full bandwidth.
func (d *Device) ElementwiseTime(n int) float64 {
	return float64(n) * 8 / d.MemBW
}

// CPUServer returns the paper's CPU comparison machine: dual-socket Xeon
// Gold 5218 (32 cores), 8 DDR4 channels. FP32 peak ≈ 2.35 TOPS (AVX-512),
// INT8 via AVX2/VNNI ≈ 2× FP32 in GGML practice.
func CPUServer() *Device {
	return &Device{
		Name: "CPU-Server(2xGold5218)",
		PeakOPS: map[Precision]float64{
			FP32: 2.35e12,
			INT8: 4.23e12, // GGML's AVX2 INT8 path: ~1.8× the FP32 rate
		},
		MemBW:      140e9,
		GEMMEff:    0.19, // GGML runs well under vendor-BLAS efficiency
		RidgeN:     64,
		PowerWatts: 320, // 2×125 W TDP + DRAM
		IdleWatts:  90,
	}
}

// UPMEMHost returns the wimpy host of the DDR4-PIM platform: dual Xeon
// 4210 with two memory channels per socket left for conventional DIMMs.
// The 795 GOPS FP32 peak is the figure in the paper's Fig. 4.
func UPMEMHost() *Device {
	return &Device{
		Name: "UPMEM-Host(2xXeon4210)",
		PeakOPS: map[Precision]float64{
			FP32: 795.11e9,
			INT8: 1.43e12,
		},
		MemBW:      50e9, // half the channels serve PIM-DIMMs
		GEMMEff:    0.50,
		RidgeN:     64,
		PowerWatts: 230,
		IdleWatts:  70,
	}
}

// V100 returns the DGX-1 GPU baseline (FP32 PyTorch inference).
func V100() *Device {
	return &Device{
		Name: "V100",
		PeakOPS: map[Precision]float64{
			FP32: 15.7e12,
			FP16: 125e12, // tensor cores (the "130 TFLOPS" the paper cites)
		},
		MemBW:      900e9,
		GEMMEff:    0.5,
		RidgeN:     256, // tensor cores starve on skinny batches
		PowerWatts: 300,
		IdleWatts:  50,
	}
}

// A2 returns the NVIDIA A2 that hosts the simulated HBM-PIM/AiM platforms.
func A2() *Device {
	return &Device{
		Name: "A2",
		PeakOPS: map[Precision]float64{
			FP32: 4.5e12,
			FP16: 18e12,
		},
		MemBW:      200e9,
		GEMMEff:    0.5,
		RidgeN:     384,
		PowerWatts: 60,
		IdleWatts:  15,
	}
}
