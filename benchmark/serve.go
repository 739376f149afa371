package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/lutnn"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/serving"
	"repro/internal/serving/live"
	"repro/internal/shard"
	"repro/internal/trace"
)

// The serving scenario is pimdl-trace's reference one: the UPMEM preset,
// its small reference LUT operator, linear latency models for the PIM
// and host lanes, batch 16 / wait 10 ms, a 1 s deadline, 2 retries and
// a 6-outcome breaker window.
var (
	serveWorkload = pim.Workload{N: 32, CB: 16, CT: 8, F: 32, ElemBytes: 2}
	serveMapping  = pim.Mapping{NsTile: 8, FsTile: 8, NmTile: 8, FmTile: 8, CBmTile: 4,
		Traversal: [3]pim.Loop{pim.LoopN, pim.LoopF, pim.LoopCB}, Scheme: pim.CoarseLoad, CBLoadTile: 1, FLoadTile: 8}
	serveConfig = live.Config{
		Policy:   serving.Policy{MaxBatch: 16, MaxWait: 0.01},
		QueueCap: 1024,
		Shed:     live.ShedReject,
		Robust:   serving.Robustness{Deadline: 1, MaxRetries: 2, Backoff: 0.01},
		Breaker:  live.BreakerConfig{Window: 6, MinSamples: 3, TripRatio: 0.5, Cooldown: 0.4},
	}
)

const (
	tracerRing                 = 8192 // pimdl-trace's default ring capacity
	serveShards, serveReplicas = 4, 2
	sloP99, sloServed          = 0.5, 0.99 // live.max_rate_slo
)

func pimLatency(batch int) float64  { return 0.02 + 0.002*float64(batch) }
func hostLatency(batch int) float64 { return 0.04 + 0.004*float64(batch) }

// serveCluster places the reference operator on the 4-shard x
// 2-replica cluster; N scales so every replica owns a row block.
func serveCluster() (*shard.Cluster, error) {
	w := serveWorkload
	w.N *= serveReplicas
	return shard.New(pim.UPMEM(), w, serveMapping, shard.Config{Shards: serveShards, Replicas: serveReplicas}, nil)
}

// serveBackends builds fresh backends for one run.
func serveBackends(sharded bool) (pimBE, hostBE live.Backend, err error) {
	if hostBE, err = live.NewHostBackend(hostLatency); err != nil {
		return nil, nil, err
	}
	if !sharded {
		pimBE, err = live.NewPIMBackend(pim.UPMEM(), serveWorkload, serveMapping, pimLatency)
		return pimBE, hostBE, err
	}
	c, err := serveCluster()
	if err != nil {
		return nil, nil, err
	}
	pimBE, err = live.NewShardedPIMBackend(c, pimLatency)
	return pimBE, hostBE, err
}

// scenario is one of the five seeded runs.
type scenario struct {
	name     string
	sharded  bool
	spec     live.LoadSpec
	arrivals []live.Arrival
	sched    live.ChaosSchedule
}

type serveState struct {
	scenarios []*scenario // r100, r200, r280, storm, shardstorm
}

func buildServe(seed int64, sc scale) (*serveState, error) {
	requests, stormAt, healAt := 40000, 40.0, 70.0
	if sc.tiny {
		requests, stormAt, healAt = 800, 1, 2.5
	}
	st := &serveState{}
	rates := []float64{100, 200, 280, 200, 200}
	for i, s := range []*scenario{{name: "r100"}, {name: "r200"}, {name: "r280"}, {name: "storm"}, {name: "shardstorm", sharded: true}} {
		s.spec = live.LoadSpec{Rate: rates[i], Requests: requests, Seed: seed*16 + int64(i),
			Burst: &live.MMPP{BurstFactor: 2, MeanCalm: 2, MeanBurst: 0.5}, Mix: live.ZipfMix{S: 1.4, Kinds: 4}}
		var err error
		if s.arrivals, err = s.spec.Generate(); err != nil {
			return nil, err
		}
		if strings.HasSuffix(s.name, "storm") {
			storm := live.ChaosEvent{At: stormAt, Note: "storm", Plan: pim.FaultPlan{Seed: seed*16 + 9,
				DeadPEFraction: 0.1, FlipRate: 0.9, StragglerSpread: 0.5}}
			heal := live.ChaosEvent{At: healAt, Note: "heal"}
			if s.sharded {
				storm.KillShards, heal.ReviveShards = []int{1}, []int{1}
			}
			s.sched = live.ChaosSchedule{storm, heal}
		}
		st.scenarios = append(st.scenarios, s)
	}
	for i := 0; i < warmups; i++ {
		if _, err := st.scenarios[i%len(st.scenarios)].run(nil); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// run executes the scenario once on fresh backends and checks request
// conservation.
func (s *scenario) run(tracer *obs.Tracer) (*live.ChaosResult, error) {
	pimBE, hostBE, err := serveBackends(s.sharded)
	if err != nil {
		return nil, err
	}
	res, err := live.RunDeterministic(serveConfig, pimBE, hostBE, s.arrivals, s.sched, tracer)
	if err != nil {
		return nil, err
	}
	return res, res.Summary.Conservation()
}

// servePhase repeats the given scenarios in turn until d has elapsed
// and each ran once. A scenario's accounting must repeat exactly; the
// first result of each is returned, with every run's latency and the
// requests simulated in all.
func servePhase(b *bench, what string, scs []*scenario, d time.Duration, sp *spanRec) (first []*live.ChaosResult, lat []float64, requests float64) {
	first = make([]*live.ChaosResult, len(scs))
	lat = b.timed(what, d, len(scs), func(i int) error {
		k := i % len(scs)
		start := time.Now()
		res, err := scs[k].run(nil)
		if sp != nil {
			sp.add("live.RunDeterministic."+scs[k].name, -1, i, start, time.Now(), float64(len(scs[k].arrivals)))
		}
		if err != nil {
			return err
		}
		requests += float64(res.Summary.Submitted)
		if first[k] == nil {
			first[k] = res
		} else if first[k].Summary != res.Summary {
			return fmt.Errorf("%s: accounting changed between repetitions: %+v then %+v", scs[k].name, first[k].Summary, res.Summary)
		}
		return nil
	})
	return first, lat, requests
}

// pinRun folds one run's accounting and modelled latency into the hash.
func pinRun(b *bench, name string, res *live.ChaosResult) {
	s := res.Summary
	tr := res.Recorder.PrimaryTrace()
	b.exact[name+"_served"] = float64(s.Served)
	b.exact[name+"_expired"] = float64(s.Expired)
	b.exact[name+"_p99_s"] = tr.Percentile(99)
	b.hashFloats(float64(s.Served), float64(s.ShedQueue), float64(s.Timeouts), float64(s.Failures), float64(s.Expired),
		float64(s.Retries), float64(s.HostServed), tr.Percentile(50), tr.Percentile(99))
}

// goodput is requests served within deadline over submitted.
func goodput(results ...*live.ChaosResult) float64 {
	var good, submitted float64
	for _, r := range results {
		good += float64(r.Summary.Served + r.Summary.Degraded - r.Summary.Expired)
		submitted += float64(r.Summary.Submitted)
	}
	return ratio(good, submitted)
}

func runServe(b *bench) error {
	st, err := setup(b, func() (*serveState, error) { return buildServe(b.seed, b.sc) })
	if err != nil {
		return err
	}
	if b.traced {
		return traceServe(b, st)
	}
	d := b.sc.phase(3)
	ladder, storm, shardStorm := st.scenarios[:3], st.scenarios[3:4], st.scenarios[4:]

	cpu0 := cpuSeconds()
	healthy, lat, reqs := servePhase(b, "healthy ladder", ladder, d, nil)
	cpu := cpuSeconds() - cpu0
	perRun := float64(len(ladder[0].arrivals))
	note := func(lat []float64) string {
		return fmt.Sprintf("%.0f requests per run at each scenario's median of %d runs", perRun, len(lat))
	}
	b.latency(lat, len(ladder))
	b.emit("work_per_s", ratio(perRun*float64(len(ladder)), cycleSeconds(lat, len(ladder))), note(lat))
	b.emit("cpu_us_per_work", 1e6*ratio(cpu, reqs), "getrusage over the primary phase")

	single, latS, _ := servePhase(b, "storm", storm, d, nil)
	b.emit("variant_per_s", ratio(perRun, median(latS)), note(latS))
	sharded, latC, _ := servePhase(b, "sharded storm", shardStorm, d, nil)
	b.emit("scaled_per_s", ratio(perRun, median(latC)), note(latC))

	all := append(append(healthy, single...), sharded...)
	for i, res := range all {
		if res == nil {
			return fmt.Errorf("serve: scenario %s never completed", st.scenarios[i].name)
		}
		pinRun(b, st.scenarios[i].name, res)
	}
	g := goodput(single[0], sharded[0])
	b.pin("goodput_frac", g)
	b.out.printf("modelled p99 at 200 req/s healthy: %.6g s\n", healthy[1].Recorder.PrimaryTrace().Percentile(99))
	b.emit("quality_frac", g, "modelled; exact for a seed")
	return nil
}

func traceServe(b *bench, st *serveState) error {
	d := b.sc.phase(6)
	// Untraced reference, then the same runs inside spans.
	_, ref, _ := servePhase(b, "untraced reference", st.scenarios, d, nil)
	results, lat, _ := servePhase(b, "traced runs", st.scenarios, d, b.spans)
	for i, res := range results {
		if res == nil {
			return fmt.Errorf("serve: scenario %s never completed", st.scenarios[i].name)
		}
		pinRun(b, st.scenarios[i].name, res)
	}
	n := len(st.scenarios)
	b.emit("trace.overhead_frac", cycleSeconds(lat, n)/cycleSeconds(ref, n)-1, fmt.Sprintf("%d traced vs %d untraced runs, per-scenario medians", len(lat), len(ref)))
	var stormLat []float64 // the storm scenario's runs: every fifth, from the fourth
	for i := 3; i < len(lat); i += len(st.scenarios) {
		stormLat = append(stormLat, lat[i])
	}
	untracedRate := ratio(float64(len(stormLat)*len(st.scenarios[3].arrivals)), sum(stormLat))

	// Accounting and modelled latency of the five runs.
	var submitted, shed, timeouts float64
	for _, r := range results {
		submitted += float64(r.Summary.Submitted)
		shed += float64(r.Summary.ShedQueue)
		timeouts += float64(r.Summary.Timeouts)
	}
	r200, storm, shardStorm := results[1], results[3], results[4]
	p99 := func(r *live.ChaosResult) float64 { return r.Recorder.PrimaryTrace().Percentile(99) }
	b.emit("live.modelled_p99_s", p99(r200), "healthy 200 req/s, from scheduled arrival")
	b.emit("live.goodput_frac", goodput(storm, shardStorm), "both storm runs pooled")
	b.emit("live.mean_batch", r200.Recorder.PrimaryTrace().MeanBatch(), "healthy 200 req/s")
	b.emit("live.shed_frac", ratio(shed, submitted), "five runs pooled")
	b.emit("live.timeout_frac", ratio(timeouts, submitted), "five runs pooled")
	stormSum := func(f func(live.Summary) int) float64 { return float64(f(storm.Summary) + f(shardStorm.Summary)) }
	b.emit("live.retries_per_batch", ratio(stormSum(func(s live.Summary) int { return s.Retries }), stormSum(func(s live.Summary) int { return s.Batches })), "storm runs")
	b.emit("live.dma_retries", stormSum(func(s live.Summary) int { return s.DMARetries }), "storm runs")
	b.emit("live.failovers", float64(shardStorm.Summary.Failovers), "sharded storm")
	b.emit("live.host_served_frac", ratio(stormSum(func(s live.Summary) int { return s.HostServed }), stormSum(func(s live.Summary) int { return s.Served })), "storm runs")
	var trips float64
	for _, r := range []*live.ChaosResult{storm, shardStorm} {
		for _, ev := range r.Recorder.Events() {
			if ev.Kind == "breaker" && strings.HasSuffix(ev.Note, "→open") {
				trips++
			}
		}
	}
	b.emit("live.breaker_trips", trips, "storm runs")
	maxRate := 0.0
	for i, name := range []string{"live.p99_s_r100", "live.p99_s_r200", "live.p99_s_r280"} {
		r := results[i]
		b.emit(name, p99(r), fmt.Sprintf("%d served of %d", r.Summary.Served, r.Summary.Submitted))
		if p99(r) <= sloP99 && float64(r.Summary.Served) >= sloServed*float64(r.Summary.Submitted) {
			maxRate = st.scenarios[i].spec.Rate
		}
	}
	b.emit("live.max_rate_slo", maxRate, fmt.Sprintf("p99 <= %g s and >= %g served; 0 means no rung met it", sloP99, sloServed))
	var replay *serving.Trace
	if b.do("Recorder.Replay", func() (err error) { replay, err = storm.Recorder.Replay(serveConfig, b.seed); return err }) {
		b.emit("live.replay_gap_p99", live.PercentileGap(storm.Recorder.PrimaryTrace(), replay, 99), "single-array storm run against its SimulateRobust replay")
	}

	// The layers under the dispatcher, called directly.
	spec := st.scenarios[1].spec
	gen := b.spans.replay("live.LoadSpec.Generate", -1, 0, float64(spec.Requests), func() {
		_, _ = spec.Generate() // the same spec generated the set-up's arrivals
	})
	b.emit("live.loadgen_ms", 1e3*gen, fmt.Sprintf("%d arrivals", spec.Requests))
	times := make([]float64, len(st.scenarios[1].arrivals))
	for i, a := range st.scenarios[1].arrivals {
		times[i] = a.At
	}
	sim := b.spans.call("serving.SimulateRobust", -1, 0, float64(len(times)), func() {
		_, err := serving.SimulateRobust(times, pimLatency, serveConfig.Policy, serveConfig.Robust)
		b.check(err == nil, "SimulateRobust: %v", err)
	})
	b.emit("serving.simulate_req_per_s", ratio(float64(len(times)), sim), "same arrivals as the 200 req/s run")
	if err := traceBackends(b, st); err != nil {
		return err
	}
	return traceObs(b, st, untracedRate)
}

// traceBackends times Backend.Execute and the shard layer directly.
func traceBackends(b *bench, st *serveState) error {
	plan := st.scenarios[3].sched[0].Plan
	const calls = 200
	for _, be := range []struct {
		metric  string
		sharded bool
		host    bool
	}{{"live.pim_exec_ns", false, false}, {"live.sharded_exec_ns", true, false}, {"live.host_exec_ns", false, true}} {
		pimBE, hostBE, err := serveBackends(be.sharded)
		b.check(err == nil, "backends: %v", err)
		if err != nil {
			return err
		}
		target := pimBE
		if be.host {
			target = hostBE
		} else {
			pimBE.(live.ChaosTarget).SetPlan(plan)
		}
		secs := b.spans.call(be.metric, -1, 0, calls, func() {
			for i := 0; i < calls; i++ {
				target.Execute(serveConfig.Policy.MaxBatch, serveConfig.Policy.MaxBatch*serveWorkload.N)
			}
		})
		b.emit(be.metric, 1e9*secs/calls, fmt.Sprintf("%d calls, batch %d, storm plan", calls, serveConfig.Policy.MaxBatch))
	}

	c, err := serveCluster()
	b.check(err == nil, "cluster: %v", err)
	if err != nil {
		return err
	}
	state := shard.NewState(serveShards)
	est := b.spans.replay("shard.Estimate", -1, 0, 1, func() {
		_, err = c.Estimate(plan, state)
	})
	b.check(err == nil, "Cluster.Estimate: %v", err)
	b.emit("shard.estimate_ms", 1e3*est, "storm plan, all shards up")
	rng := rand.New(rand.NewSource(b.seed))
	tbl := &lutnn.LUT{CB: c.W.CB, CT: c.W.CT, F: c.W.F, Data: make([]float32, c.W.CB*c.W.CT*c.W.F)}
	for i := range tbl.Data {
		tbl.Data[i] = float32(rng.NormFloat64())
	}
	idx := make([]uint8, c.W.N*c.W.CB)
	for i := range idx {
		idx[i] = uint8(rng.Intn(c.W.CT))
	}
	var res *shard.Result
	exec := b.spans.replay("shard.ExecuteLUT", -1, 0, float64(c.W.N), func() {
		res, err = c.ExecuteLUT(idx, tbl, pim.FaultPlan{}, state)
	})
	b.check(err == nil, "Cluster.ExecuteLUT: %v", err)
	if err == nil {
		b.check(sameBits(res.Output.Data, refLookup(tbl, idx, c.W.N)), "Cluster.ExecuteLUT output differs from the cb-order reference")
	}
	b.emit("shard.execute_lut_ms", 1e3*exec, fmt.Sprintf("%d rows, zero fault plan", c.W.N))
	return nil
}

// traceObs repeats the storm run with an obs.Tracer attached and
// measures what the tracer costs and what its report says.
func traceObs(b *bench, st *serveState, untracedRate float64) error {
	storm := st.scenarios[3]
	var tracer *obs.Tracer
	var res *live.ChaosResult
	var secs []float64
	for rep := 0; rep < 2; rep++ { // the stated, smaller repetition count of the tracer pass
		ok := b.do("traced storm", func() (err error) {
			if tracer, err = obs.NewTracer(obs.Config{Capacity: tracerRing, SampleRate: 1, Seed: b.seed}); err != nil {
				return err
			}
			secs = append(secs, b.spans.call("live.RunDeterministic.tracer", -1, rep, float64(len(storm.arrivals)), func() {
				res, err = storm.run(tracer)
			}))
			return err
		})
		if !ok {
			return fmt.Errorf("serve: traced storm run failed")
		}
	}
	tracedRate := ratio(float64(len(storm.arrivals)*len(secs)), sum(secs))
	b.emit("obs.traced_req_per_s", tracedRate, fmt.Sprintf("%d storm runs with a tracer", len(secs)))
	b.emit("obs.tracer_slowdown_x", ratio(untracedRate, tracedRate), "storm run without a tracer over with one")

	kept := tracer.Traces()
	rec := b.spans.call("obs.Reconcile", -1, 0, float64(len(kept)), func() {
		for _, t := range kept {
			if err := obs.Reconcile(t); err != nil {
				b.check(false, "obs.Reconcile: %v", err)
				return
			}
		}
		b.check(true, "")
	})
	b.emit("obs.reconcile_us", 1e6*ratio(rec, float64(len(kept))), fmt.Sprintf("%d kept traces", len(kept)))
	b.emit("obs.kept_frac", ratio(float64(len(kept)), float64(tracer.Stats().Finished)), "Traces() over Stats().Finished")

	var report *obs.Report
	build := b.spans.call("obs.BuildReport", -1, 0, float64(len(kept)), func() {
		b.do("obs.BuildReport", func() (err error) { report, err = obs.BuildReport(tracer, nil, 10); return err })
	})
	b.emit("obs.build_report_ms", 1e3*build, "default bands, top 10")
	if report != nil && len(report.Bands) > 0 {
		share := map[obs.Phase]float64{}
		for _, p := range report.Bands[len(report.Bands)-1].Phases {
			share[p.Phase] = p.Share
		}
		b.emit("obs.tail_queue_frac", share[obs.PhaseQueue], "p99-100 band")
		b.emit("obs.tail_exec_frac", share[obs.PhasePIM]+share[obs.PhaseHost]+share[obs.PhaseBroadcast]+share[obs.PhaseGather], "p99-100 band")
		b.emit("obs.tail_retry_frac", share[obs.PhaseRetry]+share[obs.PhaseBackoff], "p99-100 band")
	}
	flat := b.spans.replay("metrics.Flatten", -1, 0, 1, func() { metrics.Default().Flatten() })
	b.emit("metrics.flatten_ms", 1e3*flat, fmt.Sprintf("metrics enabled: %v", metrics.Enabled()))
	export := b.spans.call("trace.ExportLive", -1, 0, float64(len(kept)), func() {
		b.do("trace.ExportLive", func() error { return trace.ExportLive(io.Discard, res.Recorder, tracer) })
	})
	b.emit("trace.export_live_ms", 1e3*export, "to io.Discard, request spans included")
	return nil
}
