package engine

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/lutnn"
	"repro/internal/mapping"
	"repro/internal/nn"
	"repro/internal/pim"
)

func bertBaseCfg() Config {
	return Config{
		Model:        nn.BERTBase,
		Batch:        64,
		Params:       lutnn.Params{V: 4, CT: 16},
		Platform:     pim.UPMEM(),
		Host:         baseline.UPMEMHost(),
		HostPrec:     baseline.INT8,
		LUTElemBytes: 1,
		Space:        mapping.SpaceConfig{MaxDivisors: 8},
	}
}

func TestEstimatePIMDLProducesBreakdown(t *testing.T) {
	e := New()
	cfg := bertBaseCfg()
	cfg.Model.Layers = 2 // keep tuning cheap in unit tests
	rep, err := e.EstimatePIMDL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lut := rep.ClassTime(ClassLUT)
	ccs := rep.ClassTime(ClassCCS)
	other := rep.ClassTime(ClassOther)
	if lut <= 0 || ccs <= 0 || other <= 0 {
		t.Fatalf("breakdown has zero class: lut %g ccs %g other %g", lut, ccs, other)
	}
	if got := lut + ccs + other; !close(got, rep.Total(), 1e-9) {
		t.Fatalf("classes (%g) don't sum to total (%g)", got, rep.Total())
	}
	// Fig. 11-a: the LUT operator dominates (51–60% of total on the real
	// hardware; we accept a broad window).
	if frac := lut / rep.Total(); frac < 0.3 || frac > 0.9 {
		t.Fatalf("LUT fraction %.2f outside plausible window", frac)
	}
	// 2 layers × (4 CCS + 4 LUT + attention + elementwise).
	if len(rep.Ops) != 2*10 {
		t.Fatalf("op count %d", len(rep.Ops))
	}
}

func TestMappingCacheReused(t *testing.T) {
	e := New()
	cfg := bertBaseCfg()
	cfg.Model.Layers = 3
	if _, err := e.EstimatePIMDL(cfg); err != nil {
		t.Fatal(err)
	}
	// BERT has 4 distinct linear shapes regardless of layer count; FFN2's
	// workload differs (CB from FFN dim), QKV/O/FFN1 share H but differ in
	// F. So exactly 4 cache entries.
	if got := len(e.cache); got != 4 {
		t.Fatalf("cache entries %d, want 4", got)
	}
}

func TestMappingCacheKeyedBySearchSpace(t *testing.T) {
	// One engine asked for the same shape under different search spaces
	// must answer each as a fresh engine would, not replay the first.
	p := pim.UPMEM()
	w := pim.Workload{N: 1024, CB: 96, CT: 16, F: 768, ElemBytes: 1}
	spaces := []mapping.SpaceConfig{{MaxDivisors: 8}, {MaxDivisors: 3}, {MaxDivisors: 8, RequireAllPEs: true}}
	shared := New()
	distinct := map[pim.Mapping]bool{}
	for _, space := range spaces {
		got, err := shared.TunedMapping(p, w, space)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New().TunedMapping(p, w, space)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("space %+v: shared engine returned %+v, a fresh engine %+v", space, *got, *want)
		}
		distinct[got.Mapping] = true
	}
	if len(distinct) < 2 {
		t.Fatal("the spaces all tune to one mapping; the test cannot tell a stale cache hit")
	}
}

func TestPIMDLBeatsPIMGEMMEndToEnd(t *testing.T) {
	// The paper's headline: 22.6×–37.1× over GEMM-based inference on the
	// same PIM hardware. At unit-test scale we check >5×.
	e := New()
	cfg := bertBaseCfg()
	cfg.Model.Layers = 2
	dl, err := e.EstimatePIMDL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := e.EstimatePIMGEMM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := gm.Total() / dl.Total()
	t.Logf("PIM-DL %.3gs vs PIM-GEMM %.3gs → %.1f×", dl.Total(), gm.Total(), speedup)
	if speedup < 5 {
		t.Fatalf("PIM-DL speedup over PIM-GEMM only %.1f×", speedup)
	}
}

func TestHostEstimateAllOnHost(t *testing.T) {
	e := New()
	cfg := bertBaseCfg()
	cfg.Model.Layers = 2
	cfg.Host = baseline.CPUServer()
	rep := e.EstimateHost(cfg)
	if rep.PIMTime != 0 {
		t.Fatal("host config must not use PIM")
	}
	if !close(rep.HostTime, rep.Total(), 1e-9) {
		t.Fatal("host time must equal total")
	}
	for _, op := range rep.Ops {
		if op.OnPIM {
			t.Fatalf("op %s placed on PIM", op.Name)
		}
	}
}

func TestThroughputDefinition(t *testing.T) {
	r := &Report{Batch: 64, Ops: []OpCost{{Time: 2}}}
	if r.Throughput() != 32 {
		t.Fatalf("throughput %g", r.Throughput())
	}
}

func TestRoleTimeCoversCCSPlusLUT(t *testing.T) {
	e := New()
	cfg := bertBaseCfg()
	cfg.Model.Layers = 1
	rep, err := e.EstimatePIMDL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, role := range nn.Roles {
		sum += rep.RoleTime(role)
	}
	if want := rep.ClassTime(ClassLUT) + rep.ClassTime(ClassCCS); !close(sum, want, 1e-9) {
		t.Fatalf("role times %g don't cover CCS+LUT %g", sum, want)
	}
}

func close(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+b)
}

func TestInvalidVRejected(t *testing.T) {
	e := New()
	cfg := bertBaseCfg()
	cfg.Model.Layers = 1
	cfg.Params.V = 5 // does not divide 768
	if _, err := e.EstimatePIMDL(cfg); err == nil {
		t.Fatal("expected error for non-dividing V")
	}
}

func TestLargerBatchHigherThroughputOnUPMEM(t *testing.T) {
	// Fig. 12-c: PIM-DL throughput improves with batch (host-PIM transfer
	// overheads amortize).
	e := New()
	cfg := bertBaseCfg()
	cfg.Model.Layers = 1
	cfg.Batch = 8
	small, err := e.EstimatePIMDL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Batch = 64
	big, err := e.EstimatePIMDL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if big.Throughput() <= small.Throughput() {
		t.Fatalf("batch 64 throughput %.3g ≤ batch 8 %.3g", big.Throughput(), small.Throughput())
	}
}

func TestHBMPIMConfigRuns(t *testing.T) {
	e := New()
	cfg := Config{
		Model:        nn.BERTBase,
		Batch:        4,
		Params:       lutnn.Params{V: 4, CT: 16},
		Platform:     pim.HBMPIM(),
		Host:         baseline.A2(),
		HostPrec:     baseline.FP16,
		LUTElemBytes: 2,
		Space:        mapping.SpaceConfig{MaxDivisors: 6},
	}
	cfg.Model.Layers = 1
	cfg.Model.SeqLen = 128
	dl, err := e.EstimatePIMDL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := e.EstimatePIMGEMM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dl.Total() <= 0 || gm.Total() <= 0 {
		t.Fatal("non-positive totals")
	}
	if gm.Total()/dl.Total() < 2 {
		t.Fatalf("PIM-DL on HBM-PIM should beat PIM-GEMM, ratio %.2f", gm.Total()/dl.Total())
	}
}

func TestTimelineRendering(t *testing.T) {
	e := New()
	cfg := bertBaseCfg()
	cfg.Model.Layers = 2
	rep, err := e.EstimatePIMDL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.Timeline(80, 1)
	if !strings.Contains(tl, "HOST |") || !strings.Contains(tl, "PIM  |") {
		t.Fatalf("missing lanes:\n%s", tl)
	}
	// PIM-DL must show work on both lanes.
	lines := strings.Split(tl, "\n")
	var hostLane, pimLane string
	for _, l := range lines {
		if strings.HasPrefix(l, "HOST |") {
			hostLane = l
		}
		if strings.HasPrefix(l, "PIM  |") {
			pimLane = l
		}
	}
	if !strings.ContainsAny(hostLane, "ca") {
		t.Fatalf("host lane empty:\n%s", tl)
	}
	if !strings.Contains(pimLane, "L") {
		t.Fatalf("PIM lane missing LUT work:\n%s", tl)
	}
	// Host-only config: PIM lane blank.
	hostRep := e.EstimateHost(cfg)
	tl2 := hostRep.Timeline(60, 1)
	for _, l := range strings.Split(tl2, "\n") {
		if strings.HasPrefix(l, "PIM  |") && strings.ContainsAny(l, "LGcae") {
			t.Fatalf("host-only run shows PIM work:\n%s", tl2)
		}
	}
	if rep.Timeline(5, 0) == "" {
		t.Fatal("degenerate timeline should still render")
	}
}

func TestDecodePIMBeatsGPUAtBatchOne(t *testing.T) {
	// The §2 motivation: single-batch GEMV decode is where HBM-PIM/AiM
	// natively win, because weights stream with zero reuse and the PIM
	// arrays have far more aggregate bank bandwidth than the GPU's memory
	// system.
	e := New()
	model := nn.BERTLarge
	model.SeqLen = 128
	cfg := Config{
		Model: model, Batch: 1,
		Platform: pim.HBMPIM(), Host: baseline.V100(), HostPrec: baseline.FP16,
	}
	pimDec := e.EstimateDecodePIMGEMV(cfg, 128)
	gpuDec := e.EstimateDecodeHost(cfg, 128)
	if pimDec.PerTokenTime >= gpuDec.PerTokenTime {
		t.Fatalf("PIM GEMV decode (%g) should beat GPU decode (%g)",
			pimDec.PerTokenTime, gpuDec.PerTokenTime)
	}
	if pimDec.TokensPerSecond() <= 0 {
		t.Fatal("bad throughput")
	}
}

func TestDecodeScalesWithLayers(t *testing.T) {
	e := New()
	small := nn.BERTBase
	small.Layers = 6
	big := nn.BERTBase
	big.Layers = 12
	cfg := Config{Model: small, Batch: 1, Platform: pim.AiM(),
		Host: baseline.A2(), HostPrec: baseline.FP16}
	t6 := e.EstimateDecodePIMGEMV(cfg, 64).PerTokenTime
	cfg.Model = big
	t12 := e.EstimateDecodePIMGEMV(cfg, 64).PerTokenTime
	if t12 < t6*1.8 || t12 > t6*2.2 {
		t.Fatalf("decode should scale ~linearly with layers: %g vs %g", t6, t12)
	}
}

func TestPipelinedFasterThanSerial(t *testing.T) {
	e := New()
	cfg := bertBaseCfg()
	cfg.Model.Layers = 2
	serial, err := e.EstimatePIMDL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := e.EstimatePIMDLPipelined(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if piped.Total() > serial.Total() {
		t.Fatalf("pipelining made things worse: %g vs %g", piped.Total(), serial.Total())
	}
	// Lower bound: cannot beat the busier lane.
	lane := serial.PIMTime
	if serial.HostTime > lane {
		lane = serial.HostTime
	}
	if piped.Total() < lane {
		t.Fatalf("pipelined total %g below busier-lane bound %g", piped.Total(), lane)
	}
}

func TestResidencyValidation(t *testing.T) {
	// BERT-large INT8 tables fit comfortably in 1024 x 64 MB of UPMEM banks.
	cfg := bertBaseCfg()
	cfg.Model = nn.BERTLarge
	if err := ValidateResidency(cfg); err != nil {
		t.Fatalf("BERT-large should fit on UPMEM: %v", err)
	}
	// A deep hidden-5120 model with FP32 tables must not fit on HBM-PIM
	// (8 GB total).
	big := Config{
		Model: nn.Config{Name: "OPT-huge", Kind: nn.TokenInput, Vocab: 1000,
			Hidden: 5120, Layers: 48, Heads: 16, FFN: 20480, SeqLen: 128, Classes: 2},
		Params: lutnn.Params{V: 2, CT: 64}, Platform: pim.HBMPIM(), LUTElemBytes: 4,
	}
	if err := ValidateResidency(big); err == nil {
		t.Fatal("oversized tables should be rejected")
	}
	if TableFootprintBytes(cfg) <= 0 {
		t.Fatal("bad footprint")
	}
}
