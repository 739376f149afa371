package baseline

import (
	"testing"
)

func TestGEMMComputeBoundOnBigShapes(t *testing.T) {
	d := CPUServer()
	// A big square GEMM is compute bound: doubling F should ~double time.
	t1 := d.GEMMTime(4096, 4096, 4096, FP32)
	t2 := d.GEMMTime(4096, 4096, 8192, FP32)
	if t2 < t1*1.8 || t2 > t1*2.2 {
		t.Fatalf("compute-bound scaling broken: %g vs %g", t1, t2)
	}
}

func TestINT8FasterThanFP32(t *testing.T) {
	d := CPUServer()
	if d.GEMMTime(4096, 768, 768, INT8) >= d.GEMMTime(4096, 768, 768, FP32) {
		t.Fatal("INT8 GEMM should beat FP32")
	}
}

func TestCCSCheaperThanGEMMItReplaces(t *testing.T) {
	// CCS (2NHCT MACs, CT=16) must be far cheaper than the original GEMM
	// (2NHF MACs, F=3072) — that is the whole point of offloading only the
	// LUT reduce to PIM.
	d := UPMEMHost()
	n, h := 32768, 768
	ccs := d.CCSTime(n, h, 16, INT8)
	gemm := d.GEMMTime(n, h, 3072, INT8)
	if ccs >= gemm/10 {
		t.Fatalf("CCS (%.3gs) not ≪ GEMM (%.3gs)", ccs, gemm)
	}
}

func TestAttentionScalesQuadraticallyInSeq(t *testing.T) {
	d := V100()
	t1 := d.AttentionTime(8, 256, 1024, 16, FP32)
	t2 := d.AttentionTime(8, 512, 1024, 16, FP32)
	if t2 < t1*3.5 || t2 > t1*4.5 {
		t.Fatalf("attention seq scaling: %g → %g (want ≈4×)", t1, t2)
	}
}

func TestElementwiseBandwidthBound(t *testing.T) {
	d := CPUServer()
	if got, want := d.ElementwiseTime(1<<20), float64(1<<20)*8/d.MemBW; got != want {
		t.Fatalf("elementwise %g, want %g", got, want)
	}
}

func TestDeviceOrdering(t *testing.T) {
	// V100 ≫ CPU server ≫ UPMEM host on FP32 GEMM throughput.
	n, h, f := 8192, 1024, 4096
	v := V100().GEMMTime(n, h, f, FP32)
	c := CPUServer().GEMMTime(n, h, f, FP32)
	u := UPMEMHost().GEMMTime(n, h, f, FP32)
	if !(v < c && c < u) {
		t.Fatalf("device ordering wrong: v100 %g cpu %g upmemhost %g", v, c, u)
	}
}

func TestUnknownPrecisionFallsBack(t *testing.T) {
	d := V100()
	// V100 has no INT8 entry: must fall back to FP32, not divide by zero.
	tm := d.GEMMTime(1024, 1024, 1024, INT8)
	if tm <= 0 || tm != tm {
		t.Fatalf("fallback broken: %g", tm)
	}
}

func TestPrecisionBytes(t *testing.T) {
	if FP32.Bytes() != 4 || FP16.Bytes() != 2 || INT8.Bytes() != 1 {
		t.Fatal("precision widths wrong")
	}
}
