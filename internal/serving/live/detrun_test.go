package live

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/serving"
)

// detScenario builds a deterministic-runner scenario: the chaos
// acceptance shape (saturating load, mid-run fault storm, heal) but
// smaller, since virtual time costs nothing here.
func detScenario(t *testing.T, shedPolicy ShedPolicy, queueCap int) (Config, []Arrival, ChaosSchedule) {
	t.Helper()
	cfg := Config{
		Policy:   serving.Policy{MaxBatch: 16, MaxWait: 0.01},
		QueueCap: queueCap,
		Shed:     shedPolicy,
		Robust:   serving.Robustness{Deadline: 1.0, MaxRetries: 2, Backoff: 0.01},
		// The short cooldown makes the breaker half-open-probe during the
		// storm: probe batches fail on PIM and retry onto the host, which
		// is what puts retry blame into served traces.
		Breaker: BreakerConfig{Window: 6, MinSamples: 3, TripRatio: 0.5, Cooldown: 0.4},
	}
	arrivals, err := LoadSpec{
		Rate:     500,
		Burst:    &MMPP{BurstFactor: 2, MeanCalm: 2.0, MeanBurst: 0.5},
		Mix:      ZipfMix{S: 1.4, Kinds: 4},
		Requests: 3000,
		Seed:     17,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sched := ChaosSchedule{
		{At: 2, Plan: pim.FaultPlan{Seed: 99, DeadPEFraction: 0.1, FlipRate: 0.9, StragglerSpread: 0.5}, Note: "storm"},
		{At: 3.5, Note: "heal"},
	}
	return cfg, arrivals, sched
}

func detBackends(t *testing.T) (Backend, Backend) {
	t.Helper()
	be := newTestPIMBackend(t)
	hostBE, err := NewHostBackend(func(b int) float64 { return 0.04 + 0.004*float64(b) })
	if err != nil {
		t.Fatal(err)
	}
	return be, hostBE
}

func detTracer(t *testing.T, capacity int) *obs.Tracer {
	t.Helper()
	tc, err := obs.NewTracer(obs.Config{Capacity: capacity, SampleRate: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// TestRunDeterministicConservation: the runner obeys the accounting
// identity, and the storm actually exercises retries and the breaker.
func TestRunDeterministicConservation(t *testing.T) {
	cfg, arrivals, sched := detScenario(t, ShedReject, 1536)
	pimBE, hostBE := detBackends(t)
	res, err := RunDeterministic(cfg, pimBE, hostBE, arrivals, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	if sum.Submitted != len(arrivals) {
		t.Fatalf("submitted %d, want %d", sum.Submitted, len(arrivals))
	}
	if err := sum.Conservation(); err != nil {
		t.Fatal(err)
	}
	if sum.Served == 0 || sum.Retries == 0 {
		t.Fatalf("storm scenario served %d with %d retries — not exercising the fault path", sum.Served, sum.Retries)
	}
	if sum.HostServed == 0 {
		t.Fatalf("breaker never diverted to the host during the storm: %+v", sum)
	}
}

// TestRunDeterministicByteIdentical: two runs from identical inputs
// produce identical recorders and identical attribution reports — the
// property pimdl-trace needs.
func TestRunDeterministicByteIdentical(t *testing.T) {
	run := func() (*ChaosResult, []byte) {
		cfg, arrivals, sched := detScenario(t, ShedReject, 96)
		pimBE, hostBE := detBackends(t)
		tc := detTracer(t, 4096)
		res, err := RunDeterministic(cfg, pimBE, hostBE, arrivals, sched, tc)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := obs.BuildReport(tc, nil, 10)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return res, js
	}
	a, ja := run()
	b, jb := run()
	if !reflect.DeepEqual(a.Recorder.Records(), b.Recorder.Records()) {
		t.Fatal("request records diverged between identical runs")
	}
	if !reflect.DeepEqual(a.Recorder.Batches(), b.Recorder.Batches()) {
		t.Fatal("batch records diverged between identical runs")
	}
	if !reflect.DeepEqual(a.Recorder.Events(), b.Recorder.Events()) {
		t.Fatal("timeline events diverged between identical runs")
	}
	if string(ja) != string(jb) {
		t.Fatal("attribution report JSON diverged between identical runs")
	}
}

// assertTracesReconcile checks the tracing invariants of one traced
// run: every arrival starts a trace and every trace reaches a terminal;
// every record resolves to a kept trace that reconciles, and its
// per-phase attribution sums to the recorder's own latency within
// obs.ReconcileTolerance; and every latency exemplar holding one of
// this run's trace IDs resolves in this run's ring.
func assertTracesReconcile(t *testing.T, tc *obs.Tracer, res *ChaosResult, arrivals int) {
	t.Helper()
	st := tc.Stats()
	if st.Started != int64(arrivals) {
		t.Fatalf("tracer started %d traces for %d arrivals", st.Started, arrivals)
	}
	if st.Finished != st.Started {
		t.Fatalf("tracer finished %d of %d traces — a span path never reached a terminal", st.Finished, st.Started)
	}
	checked := 0
	ours := map[uint64]bool{}
	for _, rec := range res.Recorder.Records() {
		if rec.TraceID == 0 {
			t.Fatalf("record %d has no trace ID with SampleRate 1 and an undersized ring not in play", rec.ID)
		}
		ours[rec.TraceID] = true
		tr := tc.Lookup(rec.TraceID)
		if tr == nil {
			t.Fatalf("record %d trace %016x does not resolve", rec.ID, rec.TraceID)
		}
		if err := obs.Reconcile(tr); err != nil {
			t.Fatal(err)
		}
		if lat := rec.Latency(); lat > 0 {
			var sum float64
			for _, secs := range obs.Breakdown(tr) {
				sum += secs
			}
			if d := math.Abs(sum - lat); d > obs.ReconcileTolerance {
				t.Fatalf("record %d: attribution %.12g != recorded latency %.12g (|Δ|=%.3g)", rec.ID, sum, lat, d)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no completed requests checked")
	}
	// Exemplar resolution: the slots are process-global and latest-wins,
	// and a rerun writes the same IDs, so judge only the slots holding
	// one of this run's trace IDs — each must resolve in this run's ring.
	if metrics.Enabled() {
		resolved := 0
		for bucket, id := range liveMetrics.latency.Exemplars() {
			if !ours[id] {
				continue
			}
			if tc.Lookup(id) == nil {
				t.Errorf("latency bucket %s exemplar %016x does not resolve", bucket, id)
			}
			resolved++
		}
		if resolved == 0 {
			t.Error("a served-heavy run left no latency exemplar of its own")
		}
	}
}

// TestRunDeterministicAttributionReconciles is the tracing invariant:
// every arrival starts a trace and every trace reaches a terminal; for
// every sampled request of a seeded chaos run, the per-phase
// attribution sums to the recorder's own latency within 1e-9; and every
// latency exemplar the run wrote resolves to a kept trace.
func TestRunDeterministicAttributionReconciles(t *testing.T) {
	cfg, arrivals, sched := detScenario(t, ShedReject, 96)
	pimBE, hostBE := detBackends(t)
	tc := detTracer(t, 8192)
	res, err := RunDeterministic(cfg, pimBE, hostBE, arrivals, sched, tc)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesReconcile(t, tc, res, len(arrivals))
	// The storm + deep-retry scenario must surface retry and backoff
	// blame somewhere in the report's tail.
	rep, err := obs.BuildReport(tc, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	for _, b := range rep.Bands {
		retries += b.Retries
	}
	if retries == 0 {
		t.Fatal("report attributes no retries in a storm scenario")
	}
	if len(rep.Slowest) != 5 {
		t.Fatalf("top-K has %d rows, want 5", len(rep.Slowest))
	}
}

// TestRunDeterministicDegradeLane: under ShedDegrade with a tiny queue,
// spilled requests are served by the host lane and their traces carry
// host-phase blame that still reconciles.
func TestRunDeterministicDegradeLane(t *testing.T) {
	cfg, arrivals, sched := detScenario(t, ShedDegrade, 8)
	cfg.DegradeWorkers = 2
	pimBE, hostBE := detBackends(t)
	tc := detTracer(t, 8192)
	res, err := RunDeterministic(cfg, pimBE, hostBE, arrivals, sched, tc)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Summary.Conservation(); err != nil {
		t.Fatal(err)
	}
	if res.Summary.Degraded == 0 {
		t.Fatalf("tiny queue never spilled to the degrade lane: %+v", res.Summary)
	}
	hostBlame := 0
	for _, rec := range res.Recorder.Records() {
		if rec.Outcome != OutcomeDegraded {
			continue
		}
		tr := tc.Lookup(rec.TraceID)
		if tr == nil {
			t.Fatalf("degraded record %d trace unresolved", rec.ID)
		}
		if err := obs.Reconcile(tr); err != nil {
			t.Fatal(err)
		}
		if obs.Breakdown(tr)[obs.PhaseHost] > 0 {
			hostBlame++
		}
	}
	if hostBlame == 0 {
		t.Fatal("degraded traces carry no host-phase blame")
	}
}

// TestRunDeterministicShardedSubPhases: with the sharded cluster
// backend, served traces decompose PIM attempts into broadcast / pim /
// gather segments and still reconcile.
func TestRunDeterministicShardedSubPhases(t *testing.T) {
	be := newTestShardedBackend(t)
	hostBE, err := NewHostBackend(func(b int) float64 { return 0.04 + 0.004*float64(b) })
	if err != nil {
		t.Fatal(err)
	}
	cfg, arrivals, _ := detScenario(t, ShedReject, 1536)
	tc := detTracer(t, 8192)
	res, err := RunDeterministic(cfg, be, hostBE, arrivals[:500], nil, tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Served == 0 {
		t.Fatalf("sharded run served nothing: %+v", res.Summary)
	}
	seen := map[obs.Phase]bool{}
	for _, tr := range tc.Traces() {
		if err := obs.Reconcile(tr); err != nil {
			t.Fatal(err)
		}
		for ph, secs := range obs.Breakdown(tr) {
			if secs > 0 {
				seen[ph] = true
			}
		}
	}
	for _, ph := range []obs.Phase{obs.PhaseBroadcast, obs.PhasePIM, obs.PhaseGather} {
		if !seen[ph] {
			t.Errorf("sharded run never attributed %s time", ph)
		}
	}
}
