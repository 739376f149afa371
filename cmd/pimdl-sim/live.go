package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/autotuner"
	"repro/internal/baseline"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/pim"
	"repro/internal/serving"
	"repro/internal/serving/live"
	"repro/internal/trace"
)

// liveConfig is the validated -live flag set: a serving run of the
// tuned operator instead of a single execution.
type liveConfig struct {
	server    live.Config
	rate      float64 // req/s; 0 = auto (1.5× the tuned batch capacity)
	requests  int
	burst     float64 // MMPP burst factor; 0 disables
	zipf      float64 // Zipf exponent; 0 disables the kind mix
	chaos     bool    // mid-run fault storm from the -fault-* plan
	tracePath string  // write the run as trace-event JSON
}

// liveFlags registers the -live* flags and returns a builder that
// validates them into a liveConfig (nil when -live was not given).
func liveFlags(fs *flag.FlagSet) func(faults pim.FaultPlan) (*liveConfig, error) {
	on := fs.Bool("live", false, "run the live serving runtime instead of one execution")
	rate := fs.Float64("live-rate", 0, "open-loop arrival rate in req/s (0 = 1.5x the tuned capacity)")
	requests := fs.Int("live-requests", 2000, "number of requests to generate")
	queue := fs.Int("live-queue", 1024, "admission queue capacity")
	shed := fs.String("live-shed", "reject", "load-shedding policy: reject, block, degrade")
	deadline := fs.Float64("live-deadline", 0.3, "per-request deadline in virtual seconds (0 = none)")
	retries := fs.Int("live-retries", 2, "retry budget per batch")
	backoff := fs.Float64("live-backoff", 0.01, "base retry backoff in virtual seconds (doubles per attempt)")
	maxBatch := fs.Int("live-batch", 16, "continuous-batching batch budget")
	maxWait := fs.Float64("live-wait", 0.01, "max wait before dispatching a partial batch (virtual seconds)")
	burst := fs.Float64("live-burst", 0, "MMPP burst factor over the base rate (0 = plain Poisson)")
	zipf := fs.Float64("live-zipf", 0, "Zipf exponent of the request-kind mix (> 1; 0 = single kind)")
	brWindow := fs.Int("live-breaker-window", 8, "circuit breaker outcome window (0 disables the breaker)")
	brTrip := fs.Float64("live-breaker-trip", 0.5, "circuit breaker failure-ratio trip threshold")
	brCooldown := fs.Float64("live-breaker-cooldown", 0.25, "circuit breaker cooldown before probing (virtual seconds)")
	chaos := fs.Bool("live-chaos", false, "inject the -fault-* plan as a mid-run storm that later heals")
	tracePath := fs.String("live-trace", "", "write the live run as Chrome trace-event JSON to this file")

	return func(faults pim.FaultPlan) (*liveConfig, error) {
		if !*on {
			return nil, nil
		}
		lc := &liveConfig{
			rate:      *rate,
			requests:  *requests,
			burst:     *burst,
			zipf:      *zipf,
			chaos:     *chaos,
			tracePath: *tracePath,
			server: live.Config{
				Policy:   serving.Policy{MaxBatch: *maxBatch, MaxWait: *maxWait},
				QueueCap: *queue,
				Robust:   serving.Robustness{Deadline: *deadline, MaxRetries: *retries, Backoff: *backoff},
			},
		}
		switch *shed {
		case "reject":
			lc.server.Shed = live.ShedReject
		case "block":
			lc.server.Shed = live.ShedBlock
		case "degrade":
			lc.server.Shed = live.ShedDegrade
		default:
			return nil, fmt.Errorf("-live-shed: unknown policy %q (want reject, block or degrade)", *shed)
		}
		if *brWindow > 0 {
			lc.server.Breaker = live.BreakerConfig{
				Window:     *brWindow,
				MinSamples: (*brWindow + 1) / 2,
				TripRatio:  *brTrip,
				Cooldown:   *brCooldown,
			}
		}
		// Validates the policy, the breaker and — per the robustness
		// contract — serving.Robustness.Validate on the flag values.
		if err := lc.server.Validate(); err != nil {
			return nil, err
		}
		if lc.rate < 0 {
			return nil, fmt.Errorf("-live-rate must be non-negative, got %g", lc.rate)
		}
		if lc.burst < 0 {
			return nil, fmt.Errorf("-live-burst: MMPP burst factor %g must be non-negative", lc.burst)
		}
		if lc.zipf < 0 {
			return nil, fmt.Errorf("-live-zipf: Zipf exponent %g must be non-negative", lc.zipf)
		}
		// The load spec re-validates requests/burst/zipf coherently.
		spec := live.LoadSpec{Rate: 1, Requests: lc.requests}
		if lc.burst > 0 {
			spec.Burst = &live.MMPP{BurstFactor: lc.burst, MeanCalm: 1, MeanBurst: 0.25}
		}
		if lc.zipf > 0 {
			spec.Mix = live.ZipfMix{S: lc.zipf, Kinds: 4}
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if lc.chaos && faults.IsZero() {
			return nil, fmt.Errorf("-live-chaos needs a fault plan (set -fault-dead / -fault-flip / -fault-straggler)")
		}
		return lc, nil
	}
}

// runLive is the -live entry point: tune the operator, derive latency
// models for the PIM array and the host fallback, then serve an
// open-loop load against the fault-injectable backend and report the
// recorded distribution next to the offline replay oracle.
func runLive(cfg *simConfig, out io.Writer) error {
	stdout := &printer{w: out}
	lc := cfg.live
	plat := cfg.platform

	w := pim.Workload{N: cfg.n, CB: cfg.h / cfg.v, CT: cfg.ct, F: cfg.f, ElemBytes: 4}
	tuned, err := autotuner.Tune(plat, w, mapping.SpaceConfig{MaxDivisors: 8})
	if err != nil {
		return err
	}
	stdout.printf("Auto-tuned mapping: %v (%d PEs, %d candidates)\n",
		tuned.Mapping, tuned.Mapping.PEs(w), tuned.Evaluated)

	// Batch latency models: a batch of b requests stacks b copies of the
	// n-row operator. The PIM model comes from the timing simulator at
	// sampled batch sizes; the host fallback is the baseline server's
	// GEMM roofline for the same math.
	var batches []int
	var pimSecs, hostSecs []float64
	host := baseline.CPUServer()
	for b := 1; b <= lc.server.Policy.MaxBatch; b *= 2 {
		batches = append(batches, b)
		wb := w
		wb.N = b * w.N
		pimSecs = append(pimSecs, pim.SimTiming(plat, wb, tuned.Mapping).Total())
		hostSecs = append(hostSecs, host.GEMMTime(b*cfg.n, cfg.h, cfg.f, baseline.FP32))
	}
	if last := batches[len(batches)-1]; last != lc.server.Policy.MaxBatch {
		b := lc.server.Policy.MaxBatch
		wb := w
		wb.N = b * w.N
		batches = append(batches, b)
		pimSecs = append(pimSecs, pim.SimTiming(plat, wb, tuned.Mapping).Total())
		hostSecs = append(hostSecs, host.GEMMTime(b*cfg.n, cfg.h, cfg.f, baseline.FP32))
	}
	pimLat, err := serving.InterpolatedLatency(batches, pimSecs)
	if err != nil {
		return err
	}
	hostLat, err := serving.InterpolatedLatency(batches, hostSecs)
	if err != nil {
		return err
	}

	// The primary backend: a single PIM array, or — under -shards — the
	// cluster backend whose attempts route around dead shards. Either way
	// the healthy-batch latency model comes from the full-array timing
	// simulator; the sharded backend scales it by the cluster's modelled
	// degradation ratio under the active plan and shard state.
	var pimBE interface {
		live.Backend
		live.ChaosTarget
	}
	if cfg.shard != nil {
		cl, _, err := buildCluster(plat, w, cfg.shard)
		if err != nil {
			return err
		}
		sbe, err := live.NewShardedPIMBackend(cl, pimLat)
		if err != nil {
			return err
		}
		stdout.printf("Cluster: %d shards x %d replicas (%d row blocks)\n",
			cfg.shard.cfg.Shards, cl.P.MaxReplicas(), cl.RowBlocks())
		pimBE = sbe
	} else {
		be, err := live.NewPIMBackend(plat, w, tuned.Mapping, pimLat)
		if err != nil {
			return err
		}
		pimBE = be
	}
	var hostBE live.Backend
	if lc.server.Breaker.Enabled() || lc.server.Shed == live.ShedDegrade {
		hb, err := live.NewHostBackend(hostLat)
		if err != nil {
			return err
		}
		hostBE = hb
	}

	maxB := lc.server.Policy.MaxBatch
	capacity := float64(maxB) / pimLat(maxB)
	rate := lc.rate
	//pimdl:lint-ignore float-compare flag default 0 is the exact "auto" sentinel, never a computed value
	if rate == 0 {
		rate = 1.5 * capacity
	}
	horizon := float64(lc.requests) / rate
	stdout.printf("\nLive serving on %s: %d requests at %.1f req/s (capacity ~%.1f req/s), %.3g virtual s\n",
		plat.Name, lc.requests, rate, capacity, horizon)

	spec := live.LoadSpec{Rate: rate, Requests: lc.requests, Seed: cfg.seed}
	if lc.burst > 0 {
		spec.Burst = &live.MMPP{BurstFactor: lc.burst, MeanCalm: horizon / 4, MeanBurst: horizon / 16}
	}
	if lc.zipf > 0 {
		spec.Mix = live.ZipfMix{S: lc.zipf, Kinds: 4}
	}
	arrivals, err := spec.Generate()
	if err != nil {
		return err
	}

	// Chaos window: -live-chaos injects the -fault-* plan at 0.4 of the
	// horizon and heals at 0.7; -shard-kill (with -shards) kills those
	// shards over the same window and revives them. Both can combine into
	// one storm. A plain -fault-* plan without -live-chaos degrades the
	// whole run, so shard storm events must carry it through.
	var sched live.ChaosSchedule
	shardKill := cfg.shard != nil && len(cfg.shard.kill) > 0
	if lc.chaos || shardKill {
		storm := live.ChaosEvent{At: 0.4 * horizon, Note: "storm"}
		heal := live.ChaosEvent{At: 0.7 * horizon, Note: "heal"}
		if lc.chaos {
			storm.Plan = cfg.faults
			stdout.printf("Chaos: fault storm (dead=%.2f flip=%.2f straggler=%.2f) over t=[%.3g, %.3g]\n",
				cfg.faults.DeadPEFraction, cfg.faults.FlipRate, cfg.faults.StragglerSpread,
				0.4*horizon, 0.7*horizon)
		} else if !cfg.faults.IsZero() {
			storm.Plan, heal.Plan = cfg.faults, cfg.faults
		}
		if shardKill {
			storm.KillShards = cfg.shard.kill
			heal.ReviveShards = cfg.shard.kill
			stdout.printf("Chaos: shards %v down over t=[%.3g, %.3g]\n", cfg.shard.kill, 0.4*horizon, 0.7*horizon)
		}
		sched = live.ChaosSchedule{storm, heal}
	}
	if !lc.chaos && !cfg.faults.IsZero() {
		// A plain -fault-* plan in live mode degrades the whole run.
		pimBE.SetPlan(cfg.faults)
		stdout.printf("Fault plan active for the whole run (dead=%.2f flip=%.2f straggler=%.2f)\n",
			cfg.faults.DeadPEFraction, cfg.faults.FlipRate, cfg.faults.StragglerSpread)
	}

	res, err := live.RunDeterministic(lc.server, pimBE, hostBE, arrivals, sched, nil)
	if err != nil {
		return err
	}
	sum := res.Summary
	if err := sum.Conservation(); err != nil {
		return err
	}

	stdout.printf("\nOutcomes (conservation checked):\n")
	stdout.printf("  submitted %d = served %d + degraded %d + shed %d + timeouts %d + failures %d\n",
		sum.Submitted, sum.Served, sum.Degraded, sum.ShedQueue, sum.Timeouts, sum.Failures)
	stdout.printf("  batches %d | attempts %d | retries %d | DMA retries %d | served past deadline %d\n",
		sum.Batches, sum.Attempts, sum.Retries, sum.DMARetries, sum.Expired)
	if cfg.shard != nil {
		stdout.printf("  cluster: %d tiles served off their preferred replica (failovers)\n", sum.Failovers)
	}
	br := res.Breaker
	if lc.server.Breaker.Enabled() {
		stdout.printf("  breaker: %d trips, %d recoveries, final state %v | host-served requests %d\n",
			br.Trips(), br.Recoveries(), br.State(), sum.HostServed)
	}

	liveTr := res.Recorder.PrimaryTrace()
	if len(liveTr.Completions) > 0 {
		stdout.printf("\nServed latency (virtual s): p50 %.4g | p95 %.4g | p99 %.4g | mean %.4g\n",
			liveTr.Percentile(50), liveTr.Percentile(95), liveTr.Percentile(99), liveTr.MeanLatency())
		simTr, err := res.Recorder.Replay(lc.server, cfg.seed)
		if err != nil {
			return err
		}
		stdout.printf("Replay oracle (offline simulator on the recorded run):\n")
		for _, p := range []float64{50, 95, 99} {
			stdout.printf("  p%g: live %.4g vs replay %.4g (gap %.1f%%)\n",
				p, liveTr.Percentile(p), simTr.Percentile(p), 100*live.PercentileGap(liveTr, simTr, p))
		}
	}

	if lc.tracePath != "" {
		f, err := os.Create(lc.tracePath)
		if err != nil {
			return err
		}
		if err := trace.ExportLive(f, res.Recorder); err != nil {
			_ = f.Close() // the export error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		stdout.printf("wrote live trace to %s\n", lc.tracePath)
	}
	if cfg.metricsPath != "" {
		if err := metrics.Default().WriteFile(cfg.metricsPath); err != nil {
			return err
		}
		stdout.printf("wrote metrics snapshot to %s\n", cfg.metricsPath)
	}
	return stdout.err
}
