package live

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/serving"
)

// SubPhase is one modelled sub-segment of an attempt's latency, used to
// split a successful attempt's span into finer phases (the sharded
// cluster's broadcast / shard busy / gather decomposition).
type SubPhase struct {
	Phase obs.Phase
	Dur   float64
}

// Outcome is the result of one batch execution attempt.
type Outcome struct {
	// Latency is the modelled busy time of this attempt in virtual
	// seconds (charged whether or not the attempt succeeded — a failed
	// attempt still occupied the server, matching SimulateRobust).
	Latency float64
	// OK reports whether the attempt's output passed verification.
	OK bool
	// Reason describes a failed attempt ("" when OK).
	Reason string
	// Backend names who executed ("pim" or "host").
	Backend string
	// DMARetries / Residual / DeadPEs / Redispatched / WorstSlowdown
	// carry the pim recovery report of a PIM attempt (zero for host).
	DMARetries    int
	Residual      int
	DeadPEs       int
	Redispatched  int
	WorstSlowdown float64
	// Failovers / LiveShards carry the cluster route accounting of a
	// sharded PIM attempt (zero for single-array and host backends).
	Failovers  int
	LiveShards int
	// SubPhases optionally decomposes Latency into consecutive modelled
	// segments (the tracer scales them onto the measured attempt span,
	// with the last segment taking the exact remainder). Empty means the
	// whole attempt is one phase, picked by Backend.
	SubPhases []SubPhase
}

// Backend executes one batch attempt and reports its modelled latency
// and verification outcome. Implementations lock their mutable state,
// so Execute and SetPlan-style mutation are safe from any goroutine.
type Backend interface {
	Name() string
	// Execute runs one attempt for a batch of size requests totalling
	// rows activation rows.
	Execute(size, rows int) Outcome
}

// PIMBackend is the primary backend: latency comes from a healthy-array
// latency model scaled by the fault plan's degradation on a reference
// workload, and verification drives the plan through the pim layer's
// existing checksummed-retry machinery (Instantiate → assign →
// per-transfer outcome draws, exactly what ExecuteLUTWithFaults
// replays). A batch attempt fails its end-to-end checksum when the
// plan's DMA retry budget was exhausted somewhere (residual corruption)
// or when the plan kills so many PEs that the mapping no longer fits
// (pim.ErrIrrecoverable).
//
// Each attempt re-seeds the plan from a monotonic attempt counter, so a
// FlipRate draws fresh transfer outcomes per attempt — a retried batch
// can genuinely succeed — while the whole sequence stays deterministic
// for a fixed base seed and attempt order (the dispatcher serializes
// Execute calls).
type PIMBackend struct {
	Plat  *pim.Platform
	W     pim.Workload // reference single-batch workload for fault evaluation
	M     pim.Mapping  // tuned mapping for W
	Model serving.LatencyModel

	healthy float64 // SimTiming total for (Plat, W, M)

	mu       sync.Mutex
	plan     pim.FaultPlan
	attempts int64
}

// NewPIMBackend builds the backend; model is the healthy-array latency
// as a function of batch size, and (plat, w, m) the reference operator
// the fault plan is evaluated against.
func NewPIMBackend(plat *pim.Platform, w pim.Workload, m pim.Mapping, model serving.LatencyModel) (*PIMBackend, error) {
	if model == nil {
		return nil, fmt.Errorf("live: PIM backend needs a latency model")
	}
	if err := m.Validate(plat, w); err != nil {
		return nil, fmt.Errorf("live: reference mapping invalid: %w", err)
	}
	healthy := pim.SimTiming(plat, w, m).Total()
	if healthy <= 0 {
		return nil, fmt.Errorf("live: reference workload has non-positive healthy latency")
	}
	return &PIMBackend{Plat: plat, W: w, M: m, Model: model, healthy: healthy}, nil
}

// Name implements Backend.
func (b *PIMBackend) Name() string { return "pim" }

// SetPlan swaps the active fault plan (chaos schedule).
func (b *PIMBackend) SetPlan(plan pim.FaultPlan) {
	b.mu.Lock()
	b.plan = plan
	b.mu.Unlock()
}

// Execute implements Backend.
func (b *PIMBackend) Execute(size, rows int) Outcome {
	b.mu.Lock()
	plan := b.plan
	attempt := b.attempts
	b.attempts++
	b.mu.Unlock()

	out := Outcome{Backend: b.Name(), OK: true, WorstSlowdown: 1, Latency: b.Model(size)}
	if plan.IsZero() {
		return out
	}
	// Fresh transfer-outcome draws per attempt, deterministic overall.
	plan.Seed += attempt

	t, err := pim.SimTimingWithFaults(b.Plat, b.W, b.M, plan)
	if errors.Is(err, pim.ErrIrrecoverable) {
		// The surviving array cannot host the mapping at all: the
		// failure is detected at dispatch, before any kernel time.
		return Outcome{Backend: b.Name(), Reason: "irrecoverable: mapping does not fit surviving PEs"}
	}
	if err != nil {
		return Outcome{Backend: b.Name(), Reason: err.Error()}
	}
	// Degradation ratio of the reference operator under the plan scales
	// the batch latency: re-dispatch rounds, stragglers and DMA retry
	// inflation stretch every batch the same way they stretch Eq. 6.
	out.Latency *= t.Total() / b.healthy

	rec, err := pim.PlanRecovery(b.Plat, b.W, b.M, plan)
	if err != nil {
		return Outcome{Backend: b.Name(), Latency: out.Latency, Reason: err.Error()}
	}
	out.DMARetries = rec.Retries
	out.Residual = rec.ResidualCorrupt
	out.DeadPEs = rec.DeadPEs
	out.Redispatched = rec.Redispatched
	out.WorstSlowdown = rec.WorstSlowdown
	if rec.ResidualCorrupt > 0 {
		// The per-transfer checksum budget ran out somewhere: the batch
		// output is corrupt and the end-to-end verification rejects it.
		out.OK = false
		out.Reason = fmt.Sprintf("checksum: %d residual corrupt elements", rec.ResidualCorrupt)
	}
	return out
}

// HostBackend is the graceful-degradation fallback: the host runs the
// operator as plain GEMM (no LUTs, no PIM array, no faults), slower but
// unconditionally. Its latency model typically comes from
// engine.EstimateDegraded's host-fallback path or baseline.Device
// GEMM estimates.
type HostBackend struct {
	Model serving.LatencyModel
}

// NewHostBackend wraps a host latency model.
func NewHostBackend(model serving.LatencyModel) (*HostBackend, error) {
	if model == nil {
		return nil, fmt.Errorf("live: host backend needs a latency model")
	}
	return &HostBackend{Model: model}, nil
}

// Name implements Backend.
func (b *HostBackend) Name() string { return "host" }

// Execute implements Backend.
func (b *HostBackend) Execute(size, rows int) Outcome {
	return Outcome{Backend: b.Name(), OK: true, WorstSlowdown: 1, Latency: b.Model(size)}
}
