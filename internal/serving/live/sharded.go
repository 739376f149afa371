package live

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/serving"
	"repro/internal/shard"
)

// ShardedPIMBackend is the cluster-scale primary backend: the operator
// is placed across N DIMM shards (internal/shard) with replicated
// sub-LUT ranges, and every batch attempt is evaluated against the
// cluster's routing and timing model under the active fault plan and
// shard up/down state. Per-PE faults degrade individual shards; whole
// shards die via SetShardDown (a chaos event's KillShards); a
// batch attempt only fails outright when either the DMA retry budget
// runs out somewhere (residual corruption, as on the single array) or
// every replica of some LUT range is lost (shard.ErrAllReplicasLost) —
// which the circuit breaker turns into host fallback exactly like the
// single-array irrecoverable path.
//
// Attempt seeds advance like PIMBackend's, so retried batches draw
// fresh per-shard transfer outcomes while the run stays deterministic.
type ShardedPIMBackend struct {
	Cluster *shard.Cluster
	Model   serving.LatencyModel

	healthy   float64 // steady cluster makespan of the healthy, all-up cluster
	healthyCT *shard.ClusterTiming

	mu       sync.Mutex
	plan     pim.FaultPlan
	state    shard.State
	attempts int64
}

// ErrNonPositiveMakespan reports a reference cluster whose healthy
// steady-state makespan is not positive — the degradation-ratio latency
// scaling would divide by it, so the backend refuses to build. Callers
// distinguish it from other construction failures with errors.Is.
var ErrNonPositiveMakespan = errors.New("live: reference cluster has non-positive healthy makespan")

// NewShardedPIMBackend builds the backend; model is the healthy-cluster
// latency as a function of batch size, and c the placed reference
// operator fault plans are evaluated against.
func NewShardedPIMBackend(c *shard.Cluster, model serving.LatencyModel) (*ShardedPIMBackend, error) {
	if model == nil {
		return nil, fmt.Errorf("live: sharded PIM backend needs a latency model")
	}
	ct, err := c.Estimate(pim.FaultPlan{}, shard.NewState(c.Cfg.Shards))
	if err != nil {
		return nil, fmt.Errorf("live: healthy cluster estimate: %w", err)
	}
	if ct.SteadyMakespan <= 0 {
		return nil, fmt.Errorf("live: healthy cluster estimate %g: %w", ct.SteadyMakespan, ErrNonPositiveMakespan)
	}
	return &ShardedPIMBackend{
		Cluster:   c,
		Model:     model,
		healthy:   ct.SteadyMakespan,
		healthyCT: ct,
		state:     shard.NewState(c.Cfg.Shards),
	}, nil
}

// clusterSubPhases decomposes an attempt latency by the cluster
// timing's broadcast / busy / gather shares. A single-shard cluster
// pays no interconnect and returns nil (the attempt stays one phase).
func clusterSubPhases(ct *shard.ClusterTiming, latency float64) []SubPhase {
	if ct == nil || ct.SteadyMakespan <= 0 || latency <= 0 || ct.Broadcast+ct.Gather <= 0 {
		return nil
	}
	b := latency * ct.Broadcast / ct.SteadyMakespan
	g := latency * ct.Gather / ct.SteadyMakespan
	return []SubPhase{
		{Phase: obs.PhaseBroadcast, Dur: b},
		{Phase: obs.PhasePIM, Dur: latency - b - g},
		{Phase: obs.PhaseGather, Dur: g},
	}
}

// Name implements Backend. The sharded cluster is still the "pim" side
// of the breaker's pim-vs-host routing.
func (b *ShardedPIMBackend) Name() string { return "pim" }

// SetPlan swaps the active fault plan (chaos schedule).
func (b *ShardedPIMBackend) SetPlan(plan pim.FaultPlan) {
	b.mu.Lock()
	b.plan = plan
	b.mu.Unlock()
}

// SetShardDown marks one shard dead or revived (chaos schedule).
func (b *ShardedPIMBackend) SetShardDown(id int, down bool) {
	b.mu.Lock()
	b.state.SetDown(id, down)
	b.mu.Unlock()
}

// allUp reports whether st marks no shard down.
func allUp(st shard.State) bool {
	for _, d := range st.Down {
		if d {
			return false
		}
	}
	return true
}

// Execute implements Backend. The cluster estimate runs outside the
// mutex on a snapshot of (plan, state) — Estimate fans out on the
// worker pool and must not run under a lock.
func (b *ShardedPIMBackend) Execute(size, rows int) Outcome {
	b.mu.Lock()
	plan := b.plan
	st := b.state.Clone()
	attempt := b.attempts
	b.attempts++
	b.mu.Unlock()

	out := Outcome{Backend: b.Name(), OK: true, WorstSlowdown: 1,
		Latency: b.Model(size), LiveShards: b.Cluster.Cfg.Shards}
	if plan.IsZero() && allUp(st) {
		out.SubPhases = clusterSubPhases(b.healthyCT, out.Latency)
		return out
	}
	// Fresh per-shard transfer-outcome draws per attempt (PlanFor mixes
	// this seed per shard), deterministic overall.
	plan.Seed += attempt

	ct, err := b.Cluster.Estimate(plan, st)
	if errors.Is(err, pim.ErrIrrecoverable) {
		// Every replica of some LUT range is lost: detected at dispatch,
		// before any kernel time.
		return Outcome{Backend: b.Name(), Reason: "irrecoverable: every replica of a LUT range lost"}
	}
	if err != nil {
		return Outcome{Backend: b.Name(), Reason: err.Error()}
	}
	// Degradation ratio of the reference cluster under (plan, state)
	// scales the batch latency: failover pile-up, re-dispatch rounds,
	// stragglers and DMA retries stretch every batch the same way.
	out.Latency *= ct.SteadyMakespan / b.healthy
	out.SubPhases = clusterSubPhases(ct, out.Latency)
	out.Failovers = ct.Failovers
	out.LiveShards = ct.LiveShards
	for _, stg := range ct.PerShard {
		out.DMARetries += stg.Retries
		out.Residual += stg.Residual
		out.DeadPEs += stg.DeadPEs
		out.Redispatched += stg.Redispatched
		if stg.WorstSlowdown > out.WorstSlowdown {
			out.WorstSlowdown = stg.WorstSlowdown
		}
	}
	if out.Residual > 0 {
		out.OK = false
		out.Reason = fmt.Sprintf("checksum: %d residual corrupt elements", out.Residual)
	}
	return out
}
