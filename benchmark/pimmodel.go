package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/autotuner"
	"repro/internal/baseline"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/lutnn"
	"repro/internal/mapping"
	"repro/internal/nn"
	"repro/internal/pim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// The estimator configurations are built here, not through
// internal/experiments, so the benchmark pins the scenario itself:
// paper section 6.1 at V=4, CT=16 with the mapping space capped at 8
// divisors per dimension.
var pimSpace = mapping.SpaceConfig{MaxDivisors: 8}

// paperSpeedupUPMEM is Fig. 10's geomean of PIM-DL (V=4) over CPU FP32.
const paperSpeedupUPMEM = 3.07

// platformCfg returns the PIM-DL scenario of one platform: UPMEM pairs
// with its wimpy host and INT8 tables, HBM-PIM and AiM with the A2 host
// and FP16 tables.
func platformCfg(p *pim.Platform, pc workload.PerfCase) engine.Config {
	cfg := engine.Config{Model: pc.Model, Batch: pc.Batch, Params: lutParams, Platform: p,
		Host: baseline.A2(), HostPrec: baseline.FP16, LUTElemBytes: 2, Space: pimSpace}
	if p.Name == pim.UPMEM().Name {
		cfg.Host, cfg.HostPrec, cfg.LUTElemBytes = baseline.UPMEMHost(), baseline.INT8, 1
	}
	return cfg
}

func cpuCfg(pc workload.PerfCase, prec baseline.Precision) engine.Config {
	return engine.Config{Model: pc.Model, Batch: pc.Batch, Host: baseline.CPUServer(), HostPrec: prec}
}

// problem is one tuning problem: a linear's LUT operator on a platform.
type problem struct {
	plat *pim.Platform
	w    pim.Workload
	name string
}

type pimState struct {
	models        []workload.PerfCase
	upmem         *pim.Platform
	devices       []*pim.Platform
	upmemProblems []problem // one per distinct linear shape; the seed only orders them
	devProblems   []problem
	devSample     []problem
}

func problemsFor(plats []*pim.Platform, models []workload.PerfCase, rng *rand.Rand) []problem {
	var out []problem
	for _, p := range plats {
		for _, pc := range models {
			cfg := platformCfg(p, pc)
			for _, role := range nn.Roles {
				f, h := pc.Model.LinearShape(role)
				out = append(out, problem{plat: p, name: fmt.Sprintf("%s/%s/%v", p.Name, pc.Model.Name, role),
					w: pim.Workload{N: pc.Batch * pc.Model.SeqLen, CB: h / lutParams.V, CT: lutParams.CT, F: f, ElemBytes: cfg.LUTElemBytes}})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func buildPIMModel(seed int64, sc scale) (*pimState, error) {
	st := &pimState{models: workload.PerfModels(), upmem: pim.UPMEM(), devices: []*pim.Platform{pim.HBMPIM(), pim.AiM()}}
	if sc.tiny {
		// Toy shapes keep the selftest's tuning spaces small; the
		// modelled speedup is then not the paper's scenario.
		st.models = []workload.PerfCase{{Model: nn.Config{Name: "tiny", Kind: nn.TokenInput, Vocab: 64, Hidden: 32,
			Layers: 2, Heads: 2, FFN: 64, SeqLen: 16, Classes: 2}, Batch: 2}}
	}
	rng := rand.New(rand.NewSource(seed))
	st.upmemProblems = problemsFor([]*pim.Platform{st.upmem}, st.models, rng)
	st.devProblems = problemsFor(st.devices, st.models, rng)
	// A full pass over the 24 HBM-PIM/AiM problems would outlast the
	// end-to-end pass's scaled phase, which therefore cycles the first
	// model's problems only (the traced pass tunes them all).
	st.devSample = problemsFor(st.devices, st.models[:1], rng)
	// Warm-up: a few cold tunes on a throwaway engine.
	e := engine.New()
	for i := 0; i < min(warmups, len(st.upmemProblems)); i++ {
		p := st.upmemProblems[i]
		if _, err := e.TunedMapping(p.plat, p.w, pimSpace); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// tunePhase solves problems cold, one TunedMapping per operation, on a
// fresh engine per pass over the list, in whole passes until d has
// elapsed. It validates every mapping and returns the first pass's
// engine (every problem cached) and results, and each call's latency.
func tunePhase(b *bench, what string, probs []problem, d time.Duration, sp *spanRec) (first *engine.Engine, results []*autotuner.Result, lat []float64) {
	var e *engine.Engine
	results = make([]*autotuner.Result, len(probs))
	lat = b.timed(what, d, len(probs), func(i int) error {
		k := i % len(probs)
		if k == 0 {
			e = engine.New()
			if first == nil {
				first = e
			}
		}
		p := probs[k]
		start := time.Now()
		r, err := e.TunedMapping(p.plat, p.w, pimSpace)
		end := time.Now()
		if err != nil {
			return err
		}
		if sp != nil {
			sp.add("engine.TunedMapping", -1, i, start, end, float64(r.Evaluated))
		}
		if err := r.Mapping.Validate(p.plat, p.w); err != nil {
			return fmt.Errorf("%s: tuned mapping illegal: %w", p.name, err)
		}
		if results[k] == nil {
			results[k] = r
		} else if results[k].Mapping != r.Mapping || results[k].Evaluated != r.Evaluated {
			return fmt.Errorf("%s: tuner picked a different mapping on a later pass", p.name)
		}
		return nil
	})
	return first, results, lat
}

// estimates is one model's bundle of modelled totals on UPMEM.
type estimates struct {
	pimdl, pimgemm, cpuFP32, cpuINT8 *engine.Report
	ePIMDL, eCPUFP32                 float64
}

func estimateModel(e *engine.Engine, st *pimState, pc workload.PerfCase) (*estimates, error) {
	cfg := platformCfg(st.upmem, pc)
	out := &estimates{}
	var err error
	if out.pimdl, err = e.EstimatePIMDL(cfg); err != nil {
		return nil, err
	}
	if out.pimgemm, err = e.EstimatePIMGEMM(cfg); err != nil {
		return nil, err
	}
	out.cpuFP32 = e.EstimateHost(cpuCfg(pc, baseline.FP32))
	out.cpuINT8 = e.EstimateHost(cpuCfg(pc, baseline.INT8))
	out.ePIMDL = energy.Estimate(out.pimdl, cfg.Host, st.upmem)
	out.eCPUFP32 = energy.Estimate(out.cpuFP32, baseline.CPUServer(), nil)
	return out, nil
}

// estimatorCalls is the number of estimator entry points estimateModel calls.
const estimatorCalls = 6

// modelledUPMEM computes and pins the Fig. 10 aggregates from a warm engine.
func modelledUPMEM(b *bench, e *engine.Engine, st *pimState) (speedup float64, all []*estimates) {
	var fp32, int8, gemm, eff []float64
	for _, pc := range st.models {
		var est *estimates
		if !b.do("estimate "+pc.Model.Name, func() (err error) { est, err = estimateModel(e, st, pc); return err }) {
			return 0, nil
		}
		all = append(all, est)
		dl := est.pimdl.Total()
		fp32 = append(fp32, est.cpuFP32.Total()/dl)
		int8 = append(int8, est.cpuINT8.Total()/dl)
		gemm = append(gemm, est.pimgemm.Total()/dl)
		eff = append(eff, est.eCPUFP32/est.ePIMDL)
		b.pin("pimdl_total_s_"+pc.Model.Name, dl)
	}
	speedup = geomean(fp32)
	b.pin("modelled_speedup_upmem", speedup)
	b.pin("speedup_cpu_int8", geomean(int8))
	b.pin("speedup_pimgemm", geomean(gemm))
	b.pin("energy_eff_cpu_fp32", geomean(eff))
	return speedup, all
}

func runPIMModel(b *bench) error {
	st, err := setup(b, func() (*pimState, error) { return buildPIMModel(b.seed, b.sc) })
	if err != nil {
		return err
	}
	if b.traced {
		return tracePIMModel(b, st)
	}
	// The primary phase gets half the budget: a cold tune takes a
	// quarter of a second, and the latency percentiles need samples.
	cpu0 := cpuSeconds()
	e, _, lat := tunePhase(b, "cold tune UPMEM", st.upmemProblems, b.sc.phase(2), nil)
	cpu := cpuSeconds() - cpu0
	n := len(st.upmemProblems)
	b.latency(lat, n)
	b.emit("work_per_s", ratio(float64(n), cycleSeconds(lat, n)), fmt.Sprintf("%d distinct shapes at their median of %d cold TunedMapping calls", n, len(lat)))
	b.emit("cpu_us_per_work", 1e6*ratio(cpu, float64(len(lat))), "getrusage over the primary phase")

	_, _, latDev := tunePhase(b, "cold tune HBM-PIM/AiM", st.devSample, b.sc.phase(4), nil)
	n = len(st.devSample)
	b.emit("scaled_per_s", ratio(float64(n), cycleSeconds(latDev, n)), fmt.Sprintf("%d distinct shapes at their median of %d cold TunedMapping calls", n, len(latDev)))

	speedup, first := modelledUPMEM(b, e, st)
	if first == nil {
		return fmt.Errorf("pim_model: estimators failed")
	}
	latEst := b.timed("warm estimates", b.sc.phase(4), len(st.models), func(i int) error {
		k := i % len(st.models)
		est, err := estimateModel(e, st, st.models[k])
		if err != nil {
			return err
		}
		if math.Float64bits(est.pimdl.Total()) != math.Float64bits(first[k].pimdl.Total()) {
			return fmt.Errorf("%s: warm estimate changed", st.models[k].Model.Name)
		}
		return nil
	})
	n = len(st.models)
	b.emit("variant_per_s", ratio(float64(estimatorCalls*n), cycleSeconds(latEst, n)), fmt.Sprintf("%d estimator calls per model at the median of %d bundles", estimatorCalls, len(latEst)))

	quality := 1 - math.Abs(speedup-paperSpeedupUPMEM)/paperSpeedupUPMEM
	b.out.printf("modelled UPMEM speedup over CPU FP32: %.4fx (paper Fig. 10: %.2fx)\n", speedup, paperSpeedupUPMEM)
	b.emit("quality_frac", quality, "modelled; exact, independent of the seed")
	return nil
}

func tracePIMModel(b *bench, st *pimState) error {
	_, _, ref := tunePhase(b, "untraced reference", st.upmemProblems, 0, nil)
	e, results, lat := tunePhase(b, "traced cold tune UPMEM", st.upmemProblems, 0, b.spans)
	n := len(st.upmemProblems)
	b.emit("trace.overhead_frac", cycleSeconds(lat, n)/cycleSeconds(ref, n)-1, fmt.Sprintf("%d traced vs %d untraced cold tunes", len(lat), len(ref)))
	var evaluated float64
	for _, r := range results {
		evaluated += float64(r.Evaluated)
	}
	b.emit("autotuner.tune_ms", 1e3*median(lat), fmt.Sprintf("median of %d cold TunedMapping calls (cache miss + autotuner.Tune)", len(lat)))
	b.emit("autotuner.evaluated", evaluated, fmt.Sprintf("over %d UPMEM problems", len(results)))
	b.pin("autotuner_evaluated", evaluated)
	b.emit("autotuner.mappings_per_s", ratio(evaluated, sum(lat)), "evaluated over summed tune time")

	eDev, devResults, _ := tunePhase(b, "traced cold tune HBM-PIM/AiM", st.devProblems, 0, b.spans)

	// Cost model, simulator timing and model error on every tuned mapping.
	probs := append(append([]problem(nil), st.upmemProblems...), st.devProblems...)
	tuned := append(append([]*autotuner.Result(nil), results...), devResults...)
	const calls = 2000
	var errs []float64
	cost := b.spans.call("mapping.Cost", -1, 0, float64(calls*len(probs)), func() {
		for i, p := range probs {
			for k := 0; k < calls; k++ {
				mapping.Cost(p.plat, p.w, tuned[i].Mapping)
			}
		}
	})
	sim := b.spans.call("pim.SimTiming", -1, 0, float64(calls*len(probs)), func() {
		for i, p := range probs {
			for k := 0; k < calls; k++ {
				pim.SimTiming(p.plat, p.w, tuned[i].Mapping)
			}
		}
	})
	for i, p := range probs {
		errs = append(errs, mapping.ModelError(p.plat, p.w, tuned[i].Mapping))
	}
	b.emit("mapping.cost_ns", 1e9*cost/float64(calls*len(probs)), fmt.Sprintf("%d calls", calls*len(probs)))
	b.emit("pim.simtiming_ns", 1e9*sim/float64(calls*len(probs)), fmt.Sprintf("%d calls", calls*len(probs)))
	b.emit("mapping.model_err_p50", median(errs), fmt.Sprintf("%d tuned mappings", len(errs)))
	b.emit("mapping.model_err_max", percentile(errs, 100), fmt.Sprintf("%d tuned mappings", len(errs)))
	b.pin("model_err_max", percentile(errs, 100))
	p0 := st.upmemProblems[0]
	var yielded float64
	enum := b.spans.call("mapping.Enumerate", -1, 0, 0, func() {
		mapping.Enumerate(p0.plat, p0.w, pimSpace, func(pim.Mapping) { yielded++ })
	})
	b.emit("mapping.enumerate_ns", 1e9*ratio(enum, yielded), fmt.Sprintf("%.0f mappings of %s", yielded, p0.name))

	// Engine: the modelled ledger, all exact.
	speedup, est := modelledUPMEM(b, e, st)
	if est == nil {
		return fmt.Errorf("pim_model: estimators failed")
	}
	b.out.printf("modelled UPMEM speedup over CPU FP32: %.4fx (paper Fig. 10: %.2fx)\n", speedup, paperSpeedupUPMEM)
	b.emit("engine.modelled_speedup_upmem", speedup, fmt.Sprintf("paper Fig. 10: %.2fx", paperSpeedupUPMEM))
	b.emit("engine.paper_err_frac", math.Abs(speedup-paperSpeedupUPMEM)/paperSpeedupUPMEM, "against 3.07x")
	b.emit("engine.speedup_cpu_int8", b.exact["speedup_cpu_int8"], "paper: 1.71x")
	b.emit("engine.speedup_pimgemm", b.exact["speedup_pimgemm"], "paper: 18.91x")
	b.emit("engine.energy_eff_cpu_fp32", b.exact["energy_eff_cpu_fp32"], "paper: 4.42x")
	var lut, ccs, total float64
	for _, x := range est {
		lut += x.pimdl.ClassTime(engine.ClassLUT)
		ccs += x.pimdl.ClassTime(engine.ClassCCS)
		total += x.pimdl.Total()
	}
	b.emit("engine.lut_frac", ratio(lut, total), "ClassTime(LUT) over Total, three models pooled")
	b.emit("engine.ccs_frac", ratio(ccs, total), "ClassTime(CCS) over Total, three models pooled")
	for di, dev := range st.devices {
		var speedups []float64
		for _, pc := range st.models {
			cfg := platformCfg(dev, pc)
			var dl, gm *engine.Report
			ok := b.do("estimate "+dev.Name, func() (err error) {
				if dl, err = eDev.EstimatePIMDL(cfg); err != nil {
					return err
				}
				gm, err = eDev.EstimatePIMGEMM(cfg)
				return err
			})
			if !ok {
				return fmt.Errorf("pim_model: %s estimators failed", dev.Name)
			}
			speedups = append(speedups, gm.Total()/dl.Total())
		}
		name := []string{"engine.speedup_hbmpim", "engine.speedup_aim"}[di]
		b.emit(name, geomean(speedups), "geomean of PIM-GEMM over PIM-DL")
		b.pin(name, geomean(speedups))
	}
	cfg0 := platformCfg(st.upmem, st.models[0])
	warm := b.spans.replay("engine.EstimatePIMDL", -1, 0, 1, func() {
		_, _ = e.EstimatePIMDL(cfg0) // checked by modelledUPMEM above
	})
	b.emit("engine.estimate_warm_ms", 1e3*warm, st.models[0].Model.Name)
	dcfg := cfg0
	dcfg.Batch = 1
	var dec *engine.DecodeReport
	if b.do("EstimateDecodeLUT", func() (err error) { dec, err = e.EstimateDecodeLUT(dcfg, cfg0.Model.SeqLen); return err }) {
		b.emit("engine.decode_tok_per_s", dec.TokensPerSecond(), fmt.Sprintf("%s, batch 1, context %d", cfg0.Model.Name, cfg0.Model.SeqLen))
		b.pin("decode_tok_per_s", dec.TokensPerSecond())
	}
	return traceFunctionalPIM(b, st)
}

// traceFunctionalPIM runs the functional PIM executor on a converted
// 512x256 -> 256 layer under its tuned mapping and checks it against
// the host lookup.
func traceFunctionalPIM(b *bench, st *pimState) error {
	n, h, f := 512, 256, 256
	if b.sc.tiny {
		n, h, f = 64, 32, 32
	}
	rng := rand.New(rand.NewSource(b.seed))
	acts := workload.MixtureActivations(rng, tensor.RandN(rng, 1, 16, h), n, 0.1)
	layer, err := lutnn.Convert(tensor.RandN(rng, 0.05, f, h), nil, acts, lutParams, b.seed)
	b.check(err == nil, "lutnn.Convert: %v", err)
	if err != nil {
		return err
	}
	idx := layer.Codebooks.Search(acts)
	w := pim.Workload{N: n, CB: h / lutParams.V, CT: lutParams.CT, F: f, ElemBytes: 4}
	tuned, err := autotuner.Tune(st.upmem, w, pimSpace)
	b.check(err == nil, "autotuner.Tune %+v: %v", w, err)
	if err != nil {
		return err
	}
	var res *pim.Result
	exec := b.spans.replay("pim.ExecuteLUT", -1, 0, float64(n), func() {
		res, err = pim.ExecuteLUT(st.upmem, w, tuned.Mapping, idx, layer.Table)
	})
	b.check(err == nil, "pim.ExecuteLUT: %v", err)
	if err != nil {
		return err
	}
	b.check(sameBits(res.Output.Data, layer.Table.Lookup(idx, n).Data), "pim.ExecuteLUT output differs from host Lookup")
	t := res.Timing
	phases := t.HostIndex + t.HostLUT + t.HostOutput + t.KernelXfer + t.KernelRed
	b.check(math.Abs(phases-t.Total()) < 1e-9, "timing phases sum to %g, Total() is %g", phases, t.Total())
	b.emit("pim.execute_lut_ms", 1e3*exec, fmt.Sprintf("%dx%d -> %d layer, %d PEs", n, h, f, res.PEs))
	b.emit("pim.wall_per_modelled_s", ratio(exec, t.Total()), fmt.Sprintf("%.3g modelled seconds", t.Total()))
	b.pin("execute_lut_modelled_s", t.Total())

	plan := pim.FaultPlan{Seed: b.seed, FlipRate: 0.05, StragglerSpread: 0.5}
	faults := b.spans.replay("pim.ExecuteLUTWithFaults", -1, 0, float64(n), func() {
		res, err = pim.ExecuteLUTWithFaults(st.upmem, w, tuned.Mapping, idx, layer.Table, plan)
	})
	b.check(err == nil, "pim.ExecuteLUTWithFaults: %v", err)
	if err == nil && res.Recovery != nil {
		b.pin("fault_retries", float64(res.Recovery.Retries))
	}
	b.emit("pim.execute_faults_ms", 1e3*faults, fmt.Sprintf("flip rate %g, straggler spread %g", plan.FlipRate, plan.StragglerSpread))
	return nil
}
