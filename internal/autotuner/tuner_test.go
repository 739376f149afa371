package autotuner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lutnn"
	"repro/internal/mapping"
	"repro/internal/nn"
	"repro/internal/pim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func TestTuneFindsLegalMapping(t *testing.T) {
	p := pim.UPMEM()
	w := pim.Workload{N: 1024, CB: 128, CT: 16, F: 1024, ElemBytes: 1}
	res, err := Tune(p, w, mapping.SpaceConfig{MaxDivisors: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(p, w); err != nil {
		t.Fatalf("tuner returned invalid mapping: %v", err)
	}
	if res.Evaluated == 0 {
		t.Fatal("tuner evaluated nothing")
	}
	if res.Predicted.Total() <= 0 || res.Simulated.Total() <= 0 {
		t.Fatal("non-positive timings")
	}
	t.Logf("best %v predicted %.3gs simulated %.3gs over %d mappings",
		res.Mapping, res.Predicted.Total(), res.Simulated.Total(), res.Evaluated)
}

func TestTunerNearExhaustiveOptimum(t *testing.T) {
	// Paper §6.6: the auto-tuner's pick suffers ≤6% degradation versus the
	// true best mapping. Our analog: the tuner's (model-chosen) mapping is
	// within 25% of the simulator-exhaustive best on a reduced space.
	p := pim.UPMEM()
	w := pim.Workload{N: 512, CB: 64, CT: 16, F: 512, ElemBytes: 1}
	cfg := mapping.SpaceConfig{MaxDivisors: 4}
	res, err := Tune(p, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, bestT, worstT, n := ExhaustiveBest(p, w, cfg)
	chosen := res.Simulated.Total()
	t.Logf("tuner %.4gs, exhaustive best %.4gs, worst %.4gs (%d mappings)", chosen, bestT, worstT, n)
	if chosen > bestT*1.25 {
		t.Fatalf("tuner pick %.3gs vs exhaustive best %.3gs (>25%% off)", chosen, bestT)
	}
	if worstT < bestT {
		t.Fatal("exhaustive search broken")
	}
}

func TestTuneErrorsWhenImpossible(t *testing.T) {
	// A platform with one PE and a workload too big for its bank.
	p := pim.UPMEM()
	p.NumPE = 1
	p.MRAMBytes = 1 << 10
	w := pim.Workload{N: 4096, CB: 512, CT: 16, F: 4096, ElemBytes: 1}
	if _, err := Tune(p, w, mapping.SpaceConfig{MaxDivisors: 3}); !errors.Is(err, ErrNoLegalMapping) {
		t.Fatalf("Tune error %v, want ErrNoLegalMapping", err)
	}
}

func TestTunedMappingExecutesFunctionally(t *testing.T) {
	// End-to-end: tune a small kernel, execute it with the tuned mapping,
	// verify bit-exactness against the reference lookup.
	rng := rand.New(rand.NewSource(1))
	const n, h, f, v, ct = 64, 32, 48, 4, 8
	acts := tensor.RandN(rng, 1, n, h)
	cbs, err := lutnn.BuildCodebooks(acts, lutnn.Params{V: v, CT: ct}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wm := tensor.RandN(rng, 1, f, h)
	tbl, err := lutnn.BuildLUT(cbs, wm)
	if err != nil {
		t.Fatal(err)
	}
	idx := cbs.Search(acts)

	p := pim.UPMEM()
	w := pim.Workload{N: n, CB: h / v, CT: ct, F: f, ElemBytes: 4}
	res, err := Tune(p, w, mapping.SpaceConfig{MaxDivisors: 5})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := pim.ExecuteLUT(p, w, res.Mapping, idx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.Lookup(idx, n)
	if tensor.MaxAbsDiff(exec.Output, want) > 1e-5 {
		t.Fatal("tuned mapping produced wrong results")
	}
}

func TestTunerPrefersCheaperPlatformMapping(t *testing.T) {
	// Sanity: on a platform with brutal per-DMA setup cost the tuner must
	// not pick fine-grain loading with a tiny load tile.
	p := pim.UPMEM()
	p.DMASetup = 1e-3
	w := pim.Workload{N: 512, CB: 64, CT: 16, F: 512, ElemBytes: 1}
	res, err := Tune(p, w, mapping.SpaceConfig{MaxDivisors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping.Scheme == pim.FineLoad && res.Mapping.FLoadTile == 1 {
		t.Fatalf("tuner picked pathological mapping %v", res.Mapping)
	}
}

// tuneExhaustive is the oracle Tune is held to: Algorithm 1 as a plain
// sweep that scores every legal mapping with mapping.Cost and keeps the
// first one, in mapping.Enumerate order, with the strictly smallest total.
func tuneExhaustive(p *pim.Platform, w pim.Workload, cfg mapping.SpaceConfig) (*Result, error) {
	out := &Result{}
	bestCost := math.Inf(1)
	mapping.Enumerate(p, w, cfg, func(m pim.Mapping) {
		out.Evaluated++
		t := mapping.Cost(p, w, m)
		if c := t.Total(); c < bestCost {
			bestCost, out.Mapping, out.Predicted = c, m, t
		}
	})
	if math.IsInf(bestCost, 1) {
		return nil, ErrNoLegalMapping
	}
	out.Simulated = pim.SimTiming(p, w, out.Mapping)
	return out, nil
}

// checkAgainstOracle asserts Tune's contract on one problem: the same
// mapping and bit-identical timings as the exhaustive sweep, from no more
// scored mappings.
func checkAgainstOracle(t *testing.T, name string, p *pim.Platform, w pim.Workload, cfg mapping.SpaceConfig) {
	t.Helper()
	want, wantErr := tuneExhaustive(p, w, cfg)
	got, err := Tune(p, w, cfg)
	if wantErr != nil || err != nil {
		if !errors.Is(err, ErrNoLegalMapping) || !errors.Is(wantErr, ErrNoLegalMapping) {
			t.Fatalf("%s: Tune error %v, oracle error %v", name, err, wantErr)
		}
		return
	}
	if got.Mapping != want.Mapping {
		t.Fatalf("%s: Tune picked %v (%.17g), oracle %v (%.17g)", name,
			got.Mapping, got.Predicted.Total(), want.Mapping, want.Predicted.Total())
	}
	if got.Predicted != want.Predicted || got.Simulated != want.Simulated {
		t.Fatalf("%s: timings differ: predicted %+v vs %+v, simulated %+v vs %+v", name,
			got.Predicted, want.Predicted, got.Simulated, want.Simulated)
	}
	if got.Evaluated > want.Evaluated || got.Evaluated <= 0 {
		t.Fatalf("%s: Tune scored %d mappings, the sweep %d", name, got.Evaluated, want.Evaluated)
	}
}

type tuneProblem struct {
	name string
	p    *pim.Platform
	w    pim.Workload
}

// benchmarkProblems lists the 36 tuning problems of the repo benchmark's
// pim_model workload: every linear of the paper's three models at V=4,
// CT=16 on UPMEM (INT8 tables) and on HBM-PIM and AiM (FP16 tables).
func benchmarkProblems() []tuneProblem {
	var out []tuneProblem
	for _, p := range []*pim.Platform{pim.UPMEM(), pim.HBMPIM(), pim.AiM()} {
		for _, pc := range workload.PerfModels() {
			for _, role := range nn.Roles {
				f, h := pc.Model.LinearShape(role)
				out = append(out, tuneProblem{
					name: fmt.Sprintf("%s/%s/%v", p.Name, pc.Model.Name, role), p: p,
					w: pim.Workload{N: pc.Batch * pc.Model.SeqLen, CB: h / 4, CT: 16, F: f, ElemBytes: p.ElemBytes},
				})
			}
		}
	}
	return out
}

func TestTuneMatchesExhaustiveOnBenchmarkProblems(t *testing.T) {
	probs := benchmarkProblems()
	if len(probs) != 36 {
		t.Fatalf("%d benchmark problems, want 36", len(probs))
	}
	if testing.Short() {
		// Two shapes per platform, six in all; the full run takes all 36.
		probs = []tuneProblem{probs[0], probs[6], probs[14], probs[19], probs[27], probs[33]}
	}
	for _, pr := range probs {
		checkAgainstOracle(t, pr.name, pr.p, pr.w, mapping.SpaceConfig{MaxDivisors: 8})
	}
}

func TestTuneMatchesExhaustiveAcrossSpaces(t *testing.T) {
	w := pim.Workload{N: 512, CB: 48, CT: 16, F: 384, ElemBytes: 1}
	shrunken := *pim.UPMEM() // what a fault plan with dead PEs leaves
	shrunken.NumPE = 921
	for _, pr := range []tuneProblem{
		{"UPMEM", pim.UPMEM(), w},
		{"UPMEM-shrunken", &shrunken, w},
		{"UPMEM-AdderOnly", pim.AdderOnly(pim.UPMEM(), 4), w},
		{"HBM-PIM", pim.HBMPIM(), pim.Workload{N: 512, CB: 48, CT: 16, F: 384, ElemBytes: 2}},
	} {
		for _, cfg := range []mapping.SpaceConfig{{}, {MaxDivisors: 3}, {MaxDivisors: 12}, {MaxDivisors: 6, RequireAllPEs: true}} {
			checkAgainstOracle(t, fmt.Sprintf("%s/%+v", pr.name, cfg), pr.p, pr.w, cfg)
		}
	}
}

func TestTuneMatchesExhaustiveOnRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	plats := []*pim.Platform{pim.UPMEM(), pim.HBMPIM(), pim.AiM()}
	dims := []int{1, 2, 3, 6, 8, 12, 20, 32, 48, 60, 64, 96, 128, 192, 250, 256}
	pick := func() int { return dims[rng.Intn(len(dims))] }
	for i := 0; i < 60; i++ {
		p := *plats[i%len(plats)]
		if i%4 == 3 { // a cramped variant: few PEs, small buffer and bank
			p.NumPE, p.WRAMBytes, p.MRAMBytes = 1+rng.Intn(16), 1<<(8+rng.Intn(6)), 1<<(12+rng.Intn(8))
		}
		w := pim.Workload{N: pick(), CB: pick(), CT: 1 << (1 + rng.Intn(4)), F: pick(), ElemBytes: 1 << rng.Intn(3)}
		cfg := mapping.SpaceConfig{MaxDivisors: 2 + rng.Intn(5), RequireAllPEs: rng.Intn(8) == 0}
		checkAgainstOracle(t, fmt.Sprintf("#%d %s %+v %+v", i, p.Name, w, cfg), &p, w, cfg)
	}
}

func TestTuneNoLegalMappingMatchesExhaustive(t *testing.T) {
	// Partitions exist but no micro kernel does: nothing fits the on-chip
	// buffer, or the shape has no codebook at all.
	tiny := pim.UPMEM()
	tiny.WRAMBytes = 4
	cfg := mapping.SpaceConfig{MaxDivisors: 4}
	for _, pr := range []tuneProblem{
		{"4-byte WRAM", tiny, pim.Workload{N: 64, CB: 16, CT: 16, F: 64, ElemBytes: 1}},
		{"CB=0", pim.UPMEM(), pim.Workload{N: 64, CB: 0, CT: 16, F: 64, ElemBytes: 1}},
	} {
		if _, err := Tune(pr.p, pr.w, cfg); !errors.Is(err, ErrNoLegalMapping) {
			t.Fatalf("%s: Tune error %v, want ErrNoLegalMapping", pr.name, err)
		}
		if _, err := tuneExhaustive(pr.p, pr.w, cfg); !errors.Is(err, ErrNoLegalMapping) {
			t.Fatalf("%s: oracle error %v, want ErrNoLegalMapping", pr.name, err)
		}
	}
}

// TestBoundsNeverExceedCost walks the full enumeration of two small
// shapes and checks the two facts the search's exactness rests on: the
// partition bound and the tile-triple bound are at most the cost of every
// legal mapping under them.
func TestBoundsNeverExceedCost(t *testing.T) {
	for _, pr := range []tuneProblem{
		{"UPMEM", pim.UPMEM(), pim.Workload{N: 96, CB: 24, CT: 16, F: 120, ElemBytes: 1}},
		{"HBM-PIM", pim.HBMPIM(), pim.Workload{N: 64, CB: 32, CT: 16, F: 48, ElemBytes: 2}},
	} {
		cfg := mapping.SpaceConfig{MaxDivisors: 6}
		checked := 0
		for _, sf := range mapping.SubLUTPartitions(pr.p, pr.w, cfg) {
			terms := mapping.PartitionCost(pr.p, pr.w, sf[0], sf[1])
			whole := pim.Mapping{NsTile: sf[0], FsTile: sf[1], NmTile: sf[0], FmTile: sf[1], CBmTile: pr.w.CB}
			partBound := terms.LowerBound(pr.p, pr.w, whole)
			mapping.MicroKernels(pr.p, pr.w, sf[0], sf[1], cfg, nil, func(m pim.Mapping) {
				checked++
				cost := mapping.Cost(pr.p, pr.w, m).Total()
				triple := pim.Mapping{NsTile: m.NsTile, FsTile: m.FsTile, NmTile: m.NmTile, FmTile: m.FmTile, CBmTile: m.CBmTile}
				if b := terms.LowerBound(pr.p, pr.w, triple); b > cost || partBound > b {
					t.Fatalf("%s: %v costs %.17g, triple bound %.17g, partition bound %.17g", pr.name, m, cost, b, partBound)
				}
			})
		}
		if checked == 0 {
			t.Fatalf("%s: nothing checked", pr.name)
		}
	}
}

func TestScoreDoesNotAllocate(t *testing.T) {
	p := pim.UPMEM()
	w := pim.Workload{N: 1024, CB: 128, CT: 16, F: 1024, ElemBytes: 1}
	var legal []pim.Mapping
	mapping.MicroKernels(p, w, 64, 64, mapping.SpaceConfig{MaxDivisors: 4}, nil, func(m pim.Mapping) { legal = append(legal, m) })
	s := &search{p: p, w: w, terms: mapping.PartitionCost(p, w, 64, 64), bestCost: math.Inf(1), bestPart: -1}
	i := 0
	if a := testing.AllocsPerRun(1000, func() { s.score(legal[i%len(legal)]); i++ }); a != 0 {
		t.Fatalf("search.score allocates %v times per candidate", a)
	}
	if s.evaluated == 0 || s.bestPart != 0 {
		t.Fatal("score did not record an incumbent")
	}
}
