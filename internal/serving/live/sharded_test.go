package live

import (
	"errors"
	"math"
	"testing"

	"repro/internal/serving"
	"repro/internal/shard"
)

// refCluster places the reference operator across 4 shards with 2
// replicas per sub-LUT range: any single shard can die without losing a
// range.
func refCluster(t *testing.T) *shard.Cluster {
	t.Helper()
	plat, w, m := refOperator()
	w.N = 64 // two row blocks of the ref operator's 32 rows
	c, err := shard.New(plat, w, m, shard.Config{Shards: 4, Replicas: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestShardedBackend(t *testing.T) *ShardedPIMBackend {
	t.Helper()
	be, err := NewShardedPIMBackend(refCluster(t), func(b int) float64 { return 0.02 + 0.002*float64(b) })
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// TestShardedBackendOutcomes covers the backend's three regimes:
// healthy, failover (shard down, replicas cover), and irrecoverable
// (every replica of a range down).
func TestShardedBackendOutcomes(t *testing.T) {
	be := newTestShardedBackend(t)
	out := be.Execute(4, 4)
	if !out.OK || out.Failovers != 0 || out.LiveShards != 4 {
		t.Fatalf("healthy outcome wrong: %+v", out)
	}
	healthyLat := out.Latency

	be.SetShardDown(2, true)
	out = be.Execute(4, 4)
	if !out.OK {
		t.Fatalf("one dead shard with replicas failed the attempt: %+v", out)
	}
	if out.Failovers == 0 || out.LiveShards != 3 {
		t.Fatalf("failover accounting wrong: %+v", out)
	}
	if out.Latency <= healthyLat {
		t.Fatalf("failover latency %g not above healthy %g", out.Latency, healthyLat)
	}

	be.SetShardDown(3, true) // range 2's replicas are shards {2, 3}
	out = be.Execute(4, 4)
	if out.OK {
		t.Fatalf("attempt succeeded with a fully lost range: %+v", out)
	}
	be.SetShardDown(2, false)
	be.SetShardDown(3, false)
	out = be.Execute(4, 4)
	if !out.OK || out.Latency != healthyLat {
		t.Fatalf("revived cluster not back to healthy: %+v", out)
	}
}

// shardChaosScenario builds the shard-kill storm: sustained load, one
// shard killed mid-run (replicas cover it), then revived.
func shardChaosScenario(t *testing.T, sched ChaosSchedule, requests int) *ChaosResult {
	t.Helper()
	pimBE := newTestShardedBackend(t)
	hostBE, err := NewHostBackend(func(b int) float64 { return 0.04 + 0.004*float64(b) })
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Policy:   serving.Policy{MaxBatch: 16, MaxWait: 0.01},
		QueueCap: 1024,
		Shed:     ShedReject,
		Robust:   serving.Robustness{Deadline: 4.0, MaxRetries: 2, Backoff: 0.01},
		Breaker:  BreakerConfig{Window: 6, MinSamples: 3, TripRatio: 0.5, Cooldown: 1.5},
	}
	arrivals, err := LoadSpec{Rate: 300, Requests: requests, Seed: 41}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return mustRun(t, cfg, pimBE, hostBE, arrivals, sched)
}

// TestShardKillChaosFailover is the shard-kill acceptance storm, run under
// -race by make shard-smoke: a shard dies mid-storm and its tiles fail
// over to replicas. Every request is conserved, failovers are recorded,
// and the breaker stays closed the whole run — replica failover absorbs
// the loss without a single failed attempt.
func TestShardKillChaosFailover(t *testing.T) {
	sched := ChaosSchedule{
		{At: 3, KillShards: []int{2}, Note: "kill shard 2"},
		{At: 9, ReviveShards: []int{2}, Note: "revive shard 2"},
	}
	res := shardChaosScenario(t, sched, 4000)
	sum := checkConservation(t, res, 4000)
	if res.Admitted+sum.ShedQueue != sum.Submitted {
		t.Fatalf("admitted %d + shed %d != submitted %d", res.Admitted, sum.ShedQueue, sum.Submitted)
	}
	if sum.Served == 0 {
		t.Fatal("nothing served")
	}
	// Zero lost requests: nothing failed, nothing timed out on the
	// failover path's modest slowdown.
	if sum.Failures != 0 {
		t.Fatalf("%d requests failed during a survivable shard loss", sum.Failures)
	}
	// The dead shard's tiles really moved: failovers accumulated while
	// shard 2 was down.
	if sum.Failovers == 0 {
		t.Fatal("no failovers recorded across the kill window")
	}
	// Breaker discipline: one dead shard out of four with 2 replicas is
	// absorbed — every attempt verified OK, the breaker never opened.
	br := res.Breaker
	if br.Trips() != 0 {
		t.Fatalf("breaker tripped %d times during a survivable shard loss", br.Trips())
	}
	if br.State() != BreakerClosed {
		t.Fatalf("breaker finished %v, want closed", br.State())
	}
	if sum.HostServed != 0 {
		t.Fatalf("%d requests served on the host while every range had a live replica", sum.HostServed)
	}
	// The timeline carries both shard events.
	kills := 0
	for _, ev := range res.Recorder.Events() {
		if ev.Kind == "chaos" {
			kills++
		}
	}
	if kills != 2 {
		t.Fatalf("timeline has %d chaos events, want 2", kills)
	}
}

// TestShardKillChaosBreakerTrip: killing BOTH replicas of a range makes
// every PIM attempt irrecoverable — the breaker must trip to the host,
// then recover after the shards revive. Still zero lost accounting.
func TestShardKillChaosBreakerTrip(t *testing.T) {
	sched := ChaosSchedule{
		{At: 3, KillShards: []int{2, 3}, Note: "kill shards 2+3 (range 2 fully lost)"},
		{At: 9, ReviveShards: []int{2, 3}, Note: "revive"},
	}
	res := shardChaosScenario(t, sched, 4000)
	sum := checkConservation(t, res, 4000)
	br := res.Breaker
	if br.Trips() < 1 {
		t.Fatalf("breaker never tripped with a fully lost range (attempts %d)", sum.Attempts)
	}
	if sum.HostServed == 0 {
		t.Fatal("open breaker never served on the host")
	}
	if br.Recoveries() < 1 || br.State() != BreakerClosed {
		t.Fatalf("breaker never recovered after revive: state %v, recoveries %d", br.State(), br.Recoveries())
	}
	// PIM serves again at the end.
	batches := res.Recorder.Batches()
	var last *BatchRecord
	for i := range batches {
		if !batches[i].Failed {
			last = &batches[i]
		}
	}
	if last == nil {
		t.Fatal("no served batches")
	}
	if be := last.Backends[len(last.Backends)-1]; be != "pim" {
		t.Fatalf("final served batch ran on %q: the cluster never came back", be)
	}
}

// TestRunDeterministicRejectsShardEventsOnFlatBackend: shard-kill
// events against a non-sharded backend are a configuration error, not
// a silent no-op.
func TestRunDeterministicRejectsShardEventsOnFlatBackend(t *testing.T) {
	cfg := Config{
		Policy:   serving.Policy{MaxBatch: 8, MaxWait: 0.01},
		QueueCap: 64,
		Shed:     ShedReject,
		Robust:   serving.Robustness{Deadline: 1, MaxRetries: 1, Backoff: 0.01},
	}
	sched := ChaosSchedule{{At: 0.1, KillShards: []int{1}}}
	if _, err := RunDeterministic(cfg, newTestPIMBackend(t), nil, nil, sched, nil); err == nil {
		t.Fatal("shard-kill schedule accepted by a flat PIM backend")
	}
}

// TestNewShardedBackendNonPositiveMakespan: an "infinitely fast"
// single-shard platform yields a zero steady makespan; construction
// must refuse with the typed error (the degradation-ratio scaling would
// divide by that makespan) and callers must be able to detect it with
// errors.Is rather than string matching.
func TestNewShardedBackendNonPositiveMakespan(t *testing.T) {
	plat, w, m := refOperator()
	plat.FreqHz = math.Inf(1)
	plat.BroadcastBW = math.Inf(1)
	plat.ScatterBW = math.Inf(1)
	plat.GatherBW = math.Inf(1)
	plat.LocalBWPerPE = math.Inf(1)
	plat.HostXferLatency = 0
	plat.DMASetup = 0
	c, err := shard.New(plat, w, m, shard.Config{Shards: 1, Replicas: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewShardedPIMBackend(c, func(int) float64 { return 0.01 })
	if err == nil {
		t.Fatal("zero-makespan cluster built a backend")
	}
	if !errors.Is(err, ErrNonPositiveMakespan) {
		t.Fatalf("error %q does not unwrap to ErrNonPositiveMakespan", err)
	}
}
