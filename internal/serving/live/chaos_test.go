package live

import (
	"testing"

	"repro/internal/pim"
	"repro/internal/serving"
)

// chaosScenario is the chaos acceptance scenario: sustained
// saturation against a real fault-injected PIM backend, a mid-run fault
// storm that the circuit breaker must ride out on the host fallback, and
// a heal it must recover from.
//
// The load runs at ~1.6× the PIM backend's batch-16 capacity with a
// deep queue, so the system is deadline-bound for most of the run: the
// served-latency distribution concentrates just under Deadline + service
// time. That is also what makes the replay oracle's 5% tolerance robust
// — the offline simulator reproduces the deadline-capped distribution
// even though it spreads the storm's failures uniformly over the run.
func chaosScenario(t *testing.T) (Config, Backend, Backend, []Arrival, ChaosSchedule) {
	t.Helper()
	plat, w, m := refOperator()
	pimBE, err := NewPIMBackend(plat, w, m, func(b int) float64 { return 0.02 + 0.002*float64(b) })
	if err != nil {
		t.Fatal(err)
	}
	hostBE, err := NewHostBackend(func(b int) float64 { return 0.04 + 0.004*float64(b) })
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Policy:   serving.Policy{MaxBatch: 16, MaxWait: 0.01},
		QueueCap: 1536,
		Shed:     ShedReject,
		Robust:   serving.Robustness{Deadline: 4.0, MaxRetries: 2, Backoff: 0.01},
		Breaker:  BreakerConfig{Window: 6, MinSamples: 3, TripRatio: 0.5, Cooldown: 1.5},
	}
	// ~1.6× capacity (batch-16 service is 0.052 s → ~307 req/s) for 24
	// virtual seconds, with MMPP bursts and a Zipf kind mix.
	arrivals, err := LoadSpec{
		Rate:     500,
		Burst:    &MMPP{BurstFactor: 2, MeanCalm: 2.0, MeanBurst: 0.5},
		Mix:      ZipfMix{S: 1.4, Kinds: 4},
		Requests: 12000,
		Seed:     17,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Fault storm at t=10: a tenth of the array dies, stragglers stretch
	// the surviving PEs' kernels, and the flip rate exhausts the DMA
	// retry budget, so every PIM attempt fails its end-to-end checksum.
	// Heal at t=15.
	sched := ChaosSchedule{
		{At: 10, Plan: pim.FaultPlan{Seed: 99, DeadPEFraction: 0.1, FlipRate: 0.9, StragglerSpread: 0.5}, Note: "storm"},
		{At: 15, Note: "heal"},
	}
	return cfg, pimBE, hostBE, arrivals, sched
}

// TestChaosSaturationAcceptance is the chaos acceptance test, run
// under -race by make chaos-smoke: at saturation with dead PEs and
// stragglers injected, (1) every submitted request is deterministically
// accounted (admitted = served + timed out + failed; nothing lost), (2)
// the circuit breaker trips to the host fallback and recovers after the
// heal, and (3) replaying the recorded run through the offline
// simulator reproduces its p50/p95/p99 within 5%.
func TestChaosSaturationAcceptance(t *testing.T) {
	cfg, pimBE, hostBE, arrivals, sched := chaosScenario(t)
	res, err := RunDeterministic(cfg, pimBE, hostBE, arrivals, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary

	// (1) Conservation: exactly one terminal record per submission.
	if sum.Submitted != len(arrivals) {
		t.Fatalf("recorded %d submissions, want %d", sum.Submitted, len(arrivals))
	}
	if err := sum.Conservation(); err != nil {
		t.Fatal(err)
	}
	if res.Admitted+sum.ShedQueue != sum.Submitted {
		t.Fatalf("admitted %d + shed %d != submitted %d", res.Admitted, sum.ShedQueue, sum.Submitted)
	}
	if sum.Served+sum.Timeouts+sum.Failures != res.Admitted {
		t.Fatalf("served %d + timeouts %d + failures %d != admitted %d",
			sum.Served, sum.Timeouts, sum.Failures, res.Admitted)
	}
	// Saturation exercised both overload valves.
	if sum.ShedQueue == 0 || sum.Timeouts == 0 {
		t.Fatalf("saturation shed %d / timed out %d, want both > 0", sum.ShedQueue, sum.Timeouts)
	}
	if sum.Served == 0 {
		t.Fatal("nothing served")
	}

	// (2) Breaker: tripped during the storm, served on the host while
	// open, recovered after the heal.
	br := res.Breaker
	if br.Trips() < 1 {
		t.Fatalf("breaker never tripped (storm attempts: %d)", sum.Attempts)
	}
	if sum.HostServed == 0 {
		t.Fatal("open breaker never served a batch on the host")
	}
	if br.Recoveries() < 1 {
		t.Fatalf("breaker never recovered: state %v after the heal", br.State())
	}
	if br.State() != BreakerClosed {
		t.Fatalf("breaker finished %v, want closed", br.State())
	}
	// PIM serves again after the heal: the last served batch ran on PIM.
	batches := res.Recorder.Batches()
	var lastServed *BatchRecord
	for i := range batches {
		if !batches[i].Failed {
			lastServed = &batches[i]
		}
	}
	if lastServed == nil {
		t.Fatal("no served batches at all")
	}
	if be := lastServed.Backends[len(lastServed.Backends)-1]; be != "pim" {
		t.Fatalf("final served batch ran on %q: PIM never came back", be)
	}

	// (3) Replay oracle: the offline simulator, fed the recorded
	// arrivals, the latency model fitted from the run's own batch
	// executions and the measured failure rate, reproduces the live
	// latency percentiles within 5%.
	liveTr := res.Recorder.PrimaryTrace()
	simTr, err := res.Recorder.Replay(cfg, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(simTr.Completions) == 0 {
		t.Fatal("replay served nothing")
	}
	for _, p := range []float64{50, 95, 99} {
		gap := PercentileGap(liveTr, simTr, p)
		t.Logf("p%g: live %.4f vs replay %.4f (gap %.1f%%)",
			p, liveTr.Percentile(p), simTr.Percentile(p), 100*gap)
		if gap > 0.05 {
			t.Errorf("p%g: live %.4f vs replay %.4f — gap %.1f%% > 5%%",
				p, liveTr.Percentile(p), simTr.Percentile(p), 100*gap)
		}
	}

	// The timeline carries both chaos events and the breaker history.
	var chaosEvents, breakerEvents int
	for _, ev := range res.Recorder.Events() {
		switch ev.Kind {
		case "chaos":
			chaosEvents++
		case "breaker":
			breakerEvents++
		}
	}
	if chaosEvents != 2 || breakerEvents < 4 {
		t.Fatalf("timeline has %d chaos / %d breaker events", chaosEvents, breakerEvents)
	}
}

// TestReplayOracleHealthy: with no faults and a mild overload, the
// offline replay tracks the live latency distribution. The tolerance is
// looser than the deadline-bound acceptance test because here the
// percentiles sit on queueing transients, where the replay's fitted
// latency model and its own batch formation diverge most.
func TestReplayOracleHealthy(t *testing.T) {
	cfg := Config{
		Policy:   serving.Policy{MaxBatch: 8, MaxWait: 0.01},
		QueueCap: 512,
		Shed:     ShedReject,
		Robust:   serving.Robustness{Deadline: 1.0, MaxRetries: 1, Backoff: 0.01},
	}
	arrivals, err := LoadSpec{Rate: 120, Requests: 1500, Seed: 29}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, cfg,
		&fakeBackend{name: "pim", model: func(b int) float64 { return 0.05 + 0.005*float64(b) }}, nil,
		arrivals, nil)
	if err := res.Summary.Conservation(); err != nil {
		t.Fatal(err)
	}
	liveTr := res.Recorder.PrimaryTrace()
	simTr, err := res.Recorder.Replay(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{50, 95, 99} {
		gap := PercentileGap(liveTr, simTr, p)
		if gap > 0.15 {
			t.Errorf("p%g: live %.4f vs replay %.4f — gap %.1f%% > 15%%",
				p, liveTr.Percentile(p), simTr.Percentile(p), 100*gap)
		}
	}
}
