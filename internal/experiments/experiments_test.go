package experiments

import (
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nn"
	"repro/internal/pim"
)

func TestFig3MatchesPaperEnvelope(t *testing.T) {
	r := Fig3()
	if len(r.VSweep) != 4 || len(r.CTSweep) != 4 {
		t.Fatal("wrong sweep sizes")
	}
	// Paper: reduction 3.66x–18.29x; multiplications 2.9%–14.3% of ops.
	min, max := r.VSweep[0].Reduction, r.VSweep[0].Reduction
	for _, p := range append(append([]Fig3Point{}, r.VSweep...), r.CTSweep...) {
		if p.Reduction < min {
			min = p.Reduction
		}
		if p.Reduction > max {
			max = p.Reduction
		}
		if p.MulFraction < 0.029-0.005 || p.MulFraction > 0.143+0.005 {
			t.Fatalf("mul fraction %.3f outside paper band", p.MulFraction)
		}
	}
	if min < 3.5 || min > 3.8 {
		t.Fatalf("min reduction %.2f, paper 3.66", min)
	}
	if max < 18.0 || max > 18.6 {
		t.Fatalf("max reduction %.2f, paper 18.29", max)
	}
	// Larger V must reduce more ops.
	for i := 1; i < len(r.VSweep); i++ {
		if r.VSweep[i].Reduction <= r.VSweep[i-1].Reduction {
			t.Fatal("reduction must grow with V")
		}
	}
	if !strings.Contains(r.Render(), "Reduction") {
		t.Fatal("render missing content")
	}
}

func TestFig4AllKernelsMemoryBound(t *testing.T) {
	r := Fig4()
	if len(r.Points) != 12 { // 3 models × 4 operators
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if !p.MemBound {
			t.Fatalf("%s/%s not memory-bound (AI %.3f)", p.Model, p.Operator, p.AI)
		}
		// Paper band: 0.204–0.288 ops/byte.
		if p.AI < 0.19 || p.AI > 0.30 {
			t.Fatalf("%s/%s AI %.3f outside paper band", p.Model, p.Operator, p.AI)
		}
	}
	if !strings.Contains(r.Render(), "memory-bound") {
		t.Fatal("render missing content")
	}
}

func TestFig10HeadlineShapes(t *testing.T) {
	r, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, paper, tol float64) {
		t.Helper()
		if got < paper*(1-tol) || got > paper*(1+tol) {
			t.Errorf("%s: got %.2fx, paper %.2fx (tolerance ±%.0f%%)", name, got, paper, tol*100)
		}
	}
	// Throughput geomeans within ±35% of the paper's factors.
	check("V2 vs CPU FP32", r.SpeedupV2FP32, 2.05, 0.35)
	check("V2 vs CPU INT8", r.SpeedupV2INT8, 1.14, 0.35)
	check("V4 vs CPU FP32", r.SpeedupV4FP32, 3.07, 0.35)
	check("V4 vs CPU INT8", r.SpeedupV4INT8, 1.71, 0.35)
	check("V2 vs PIM-GEMM", r.SpeedupV2GEMM, 12.61, 0.40)
	check("V4 vs PIM-GEMM", r.SpeedupV4GEMM, 18.91, 0.40)
	// Energy-efficiency ordering: PIM-DL beats CPU FP32 and PIM-GEMM;
	// V4 beats V2.
	if r.EnergyV4FP32 <= 1 || r.EnergyV2FP32 <= 1 {
		t.Error("PIM-DL must be more energy-efficient than CPU FP32")
	}
	if r.EnergyV4FP32 <= r.EnergyV2FP32 {
		t.Error("V4 must beat V2 on energy")
	}
	if r.EnergyV4GEMM <= 5 {
		t.Errorf("PIM-DL vs PIM-GEMM energy efficiency %.1fx too low", r.EnergyV4GEMM)
	}
	// Every model row: V4 faster than V2 faster than PIM-GEMM.
	for _, row := range r.Rows {
		if !(row.PIMDLV4 < row.PIMDLV2 && row.PIMDLV2 < row.PIMGEMM) {
			t.Errorf("%s: ordering violated (V4 %.2f V2 %.2f GEMM %.2f)",
				row.Model, row.PIMDLV4, row.PIMDLV2, row.PIMGEMM)
		}
	}
	if !strings.Contains(r.Render(), "Geomean speedups") {
		t.Fatal("render missing content")
	}
}

func TestFig11BreakdownShape(t *testing.T) {
	r, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.A {
		// Paper: LUT-NN inference (LUT+CCS) is 73.7–79.4% of total and the
		// LUT operator alone 51.5–60.4%. Allow generous bands.
		if row.LUTNNFrac < 0.55 || row.LUTNNFrac > 0.92 {
			t.Errorf("%s: LUT-NN share %.2f outside band", row.Model, row.LUTNNFrac)
		}
		if row.LUTFrac < 0.40 || row.LUTFrac > 0.88 {
			t.Errorf("%s: LUT share %.2f outside band", row.Model, row.LUTFrac)
		}
	}
	// Paper layer-wise geomeans: QKV 1.61, O 0.99, FFN1 1.78, FFN2 2.38;
	// FFN2 gains most, O least.
	if r.GeomeanRole[nn.RoleFFN2] <= r.GeomeanRole[nn.RoleQKV] {
		t.Error("FFN2 should gain most (largest inner dim)")
	}
	if r.GeomeanRole[nn.RoleO] >= r.GeomeanRole[nn.RoleFFN1] {
		t.Error("O projection should gain least")
	}
	if r.GeomeanAll < 1.2 || r.GeomeanAll > 2.6 {
		t.Errorf("overall layer-wise geomean %.2f (paper 1.81)", r.GeomeanAll)
	}
}

func TestFig12Trends(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig12 sweeps every model/platform pair; minutes under -race")
	}
	r, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	byModel := func(ps []Fig12Point, model string) []Fig12Point {
		var out []Fig12Point
		for _, p := range ps {
			if p.Model == model {
				out = append(out, p)
			}
		}
		return out
	}
	// (a) larger V → higher speedup (monotone per model).
	for _, m := range []string{"Bert-Base", "Bert-Large", "ViT-Huge"} {
		vs := byModel(r.VSweep, m)
		for i := 1; i < len(vs); i++ {
			if vs[i].Speedup < vs[i-1].Speedup*0.98 {
				t.Errorf("%s: speedup fell from V=%d to V=%d (%.2f→%.2f)",
					m, vs[i-1].X, vs[i].X, vs[i-1].Speedup, vs[i].Speedup)
			}
		}
		// (b) fewer centroids → higher speedup.
		cts := byModel(r.CTSweep, m)
		for i := 1; i < len(cts); i++ {
			if cts[i].Speedup < cts[i-1].Speedup*0.98 {
				t.Errorf("%s: speedup fell from CT=%d to CT=%d", m, cts[i-1].X, cts[i].X)
			}
		}
		// (c) small batches favour the CPU (paper: CPU wins at batch 8).
		bs := byModel(r.BatchSweep, m)
		if bs[0].Speedup >= bs[len(bs)-1].Speedup {
			t.Errorf("%s: batch sweep should grow (%.2f → %.2f)", m, bs[0].Speedup, bs[len(bs)-1].Speedup)
		}
	}
	if byModel(r.BatchSweep, "Bert-Base")[0].Speedup >= 1.0 {
		t.Error("at batch 8 the CPU server should win (paper Fig. 12-c)")
	}
	// (d) hidden sweep: paper geomean 2.44x vs CPU INT8 across OPT dims.
	var hs []float64
	for _, p := range r.HiddenSweep {
		hs = append(hs, p.Speedup)
	}
	if g := geomean(hs); g < 1.4 || g > 3.6 {
		t.Errorf("hidden-dim sweep geomean %.2f (paper 2.44)", g)
	}
}

func TestFig13TunerQuality(t *testing.T) {
	r, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if r.TunerLoss > 0.10 {
		t.Errorf("tuner pick %.1f%% above optimum (paper ≤6%%)", r.TunerLoss*100)
	}
	if r.ModelErrAvg > 0.10 {
		t.Errorf("avg model error %.2f%% (paper 3.44%%)", r.ModelErrAvg*100)
	}
	if r.ModelErrMax > 0.60 {
		t.Errorf("max model error %.2f%%", r.ModelErrMax*100)
	}
	if r.GlobalGap < 1.5 {
		t.Errorf("mapping-space gap %.2fx too small (paper ~1.9x)", r.GlobalGap)
	}
	// Static load is feasible for some sub-LUT splits of this workload.
	foundStatic := false
	for _, s := range r.Schemes {
		if s.Scheme.String() == "static" && s.Count > 0 {
			foundStatic = true
		}
	}
	if !foundStatic {
		t.Error("static load scheme absent from space")
	}
	if !strings.Contains(r.Render(), "Auto-tuner pick") {
		t.Fatal("render missing content")
	}
}

func TestFig1415Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig14/15 run the full scalability sweep; minutes under -race")
	}
	r, err := Fig1415()
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 14: PIM-DL decisively beats GEMM-on-PIM on both platforms
	// (paper geomeans 23.94x / 19.06x).
	if g := r.GeomeanGEMM["HBM-PIM"]; g < 12 || g > 40 {
		t.Errorf("HBM-PIM vs GEMM geomean %.1fx (paper 23.94)", g)
	}
	if g := r.GeomeanGEMM["AiM"]; g < 9 || g > 33 {
		t.Errorf("AiM vs GEMM geomean %.1fx (paper 19.06)", g)
	}
	// Fig. 15: HBM-PIM loses to V100 (paper 0.39x); AiM is comparable,
	// peaking around 1.2x.
	if g := r.GeomeanGPU["HBM-PIM"]; g < 0.2 || g > 0.75 {
		t.Errorf("HBM-PIM vs V100 geomean %.2fx (paper 0.39)", g)
	}
	if g := r.GeomeanGPU["AiM"]; g < 0.5 || g > 1.3 {
		t.Errorf("AiM vs V100 geomean %.2fx", g)
	}
	if m := r.MaxGPU["AiM"]; m < 0.9 || m > 1.9 {
		t.Errorf("AiM best case vs V100 %.2fx (paper up to 1.20)", m)
	}
	if r.MaxGPU["AiM"] <= r.MaxGPU["HBM-PIM"] {
		t.Error("AiM must beat HBM-PIM against the GPU (4.8 vs 16 TFLOPS)")
	}
	// Fig. 14 batch trend: speedup grows with batch per (platform, hidden).
	type key struct {
		plat   string
		hidden int
	}
	last := map[key]float64{}
	for _, p := range r.Points {
		k := key{p.Platform, p.Hidden}
		if prev, ok := last[k]; ok && p.SpeedupVsGEMM < prev*0.95 {
			t.Errorf("%s hidden %d: vs-GEMM speedup fell with batch", p.Platform, p.Hidden)
		}
		last[k] = p.SpeedupVsGEMM
	}
}

func TestAccuracyTablesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy tables train models; skipped in -short")
	}
	t4, err := Table4(QuickAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + t4.Render())
	if t4.AvgOriginal < 0.9 {
		t.Errorf("original models too weak: %.2f", t4.AvgOriginal)
	}
	if t4.AvgBaseline > t4.AvgOriginal-0.2 {
		t.Errorf("baseline LUT-NN did not collapse: %.2f vs %.2f", t4.AvgBaseline, t4.AvgOriginal)
	}
	if t4.AvgELUT < t4.AvgBaseline+0.1 {
		t.Errorf("eLUT-NN did not recover: %.2f vs baseline %.2f", t4.AvgELUT, t4.AvgBaseline)
	}
	if t4.AvgELUT < t4.AvgOriginal-0.25 {
		t.Errorf("eLUT-NN too far from original: %.2f vs %.2f", t4.AvgELUT, t4.AvgOriginal)
	}

	t5, err := Table5(QuickAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + t5.Render())
	if t5.AvgELUT < t5.AvgBaseline {
		t.Errorf("vision eLUT-NN (%.2f) below baseline (%.2f)", t5.AvgELUT, t5.AvgBaseline)
	}
}

func TestRunDispatcher(t *testing.T) {
	var sb strings.Builder
	if err := Run("fig3", &sb, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Computation Reduction") {
		t.Fatal("dispatcher output wrong")
	}
	if err := Run("nope", &sb, true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Names()) != 11 {
		t.Fatalf("registry has %d experiments, want 11", len(Names()))
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Fatalf("geomean = %g", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	out := table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatal("missing separator")
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation trains models; skipped in -short")
	}
	r, err := Ablation(true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Render())
	// Full eLUT-NN must beat the baseline conversion.
	if r.AccELUT < r.AccBaseline {
		t.Errorf("full eLUT-NN (%.2f) below baseline (%.2f)", r.AccELUT, r.AccBaseline)
	}
	// Removing either technique must not beat the full recipe by much.
	if r.AccNoRec > r.AccELUT+0.1 || r.AccNoSTE > r.AccELUT+0.1 {
		t.Errorf("ablated variants beat full recipe: noRec %.2f noSTE %.2f full %.2f",
			r.AccNoRec, r.AccNoSTE, r.AccELUT)
	}
	// INT8 tables cost little (paper: ≤0.1%; our 64-example test set
	// quantizes accuracy in 1.6% steps, so allow a few flips).
	if r.AccELUTInt8 < r.AccELUT-0.1 {
		t.Errorf("INT8 tables cost too much: %.2f vs %.2f", r.AccELUTInt8, r.AccELUT)
	}
	// Hash encoder: ≥20x fewer ops, error no better than exact CCS.
	if r.HashOps*20 > r.CCSOps {
		t.Error("hash encoder op advantage missing")
	}
	if r.HashErr < r.CCSErr*0.9 {
		t.Error("hash encoder should not beat exact CCS")
	}
	// Adder-only: faster kernel.
	if r.AdderKernel >= r.BaseKernel {
		t.Error("adder-only variant not faster")
	}
	// Hot cache: hit rate >50% under Zipf(1.2) quarter capacity and a
	// faster kernel.
	if r.CacheHitRate < 0.5 {
		t.Errorf("cache hit rate %.2f too low", r.CacheHitRate)
	}
	if r.CachedKernel >= r.UncachedKernel {
		t.Error("cache did not speed up kernel")
	}
	// CB-split must be penalized and monotonically worse with more ways.
	for i, pen := range r.CBSplitPenalty {
		if pen <= 1 {
			t.Errorf("CB split %d ways not penalized: %.2fx", r.CBSplitWays[i], pen)
		}
		if i > 0 && pen <= r.CBSplitPenalty[i-1] {
			t.Errorf("CB-split penalty not monotone at %d ways", r.CBSplitWays[i])
		}
	}
}

func TestSubLUTGridRendering(t *testing.T) {
	p := pimUPMEMForGrid()
	w := pimWorkloadForGrid()
	cells := SubLUTGrid(p, w, SpaceCfgForGrid())
	if len(cells) == 0 {
		t.Fatal("empty grid")
	}
	out := RenderGrid(cells)
	if !strings.Contains(out, "*") {
		t.Fatalf("grid missing optimum marker:\n%s", out)
	}
	// One optimum only... at least one; every cell positive.
	for _, c := range cells {
		if c.Best <= 0 {
			t.Fatalf("non-positive best at (%d,%d)", c.Ns, c.Fs)
		}
	}
	if RenderGrid(nil) == "" {
		t.Fatal("empty grid should still render a message")
	}
}

func TestRooflinePlot(t *testing.T) {
	r := Fig4()
	plot := r.RenderPlot(60, 10)
	if !strings.Contains(plot, "o") {
		t.Fatalf("plot missing kernel markers:\n%s", plot)
	}
	if !strings.Contains(plot, "_") {
		t.Fatalf("plot missing roofline:\n%s", plot)
	}
	if !strings.Contains(plot, "+") {
		t.Fatalf("plot missing ridge marker:\n%s", plot)
	}
	lines := strings.Split(strings.TrimRight(plot, "\n"), "\n")
	if len(lines) != 12 { // header + 10 rows + axis
		t.Fatalf("plot has %d lines", len(lines))
	}
}

// Helpers used by grid tests (small shapes keep sweeps quick).
func pimUPMEMForGrid() *pim.Platform { return pim.UPMEM() }
func pimWorkloadForGrid() pim.Workload {
	return pim.Workload{N: 512, CB: 64, CT: 16, F: 512, ElemBytes: 1}
}
func SpaceCfgForGrid() mapping.SpaceConfig { return mapping.SpaceConfig{MaxDivisors: 4} }
