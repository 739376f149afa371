// Package live is the serving runtime on top of the offline simulator:
// where serving.Simulate replays a precomputed arrival array against a
// coin-flip failure model, this package serves an open-loop load
// against fault-injected backends — a bounded admission queue with an
// explicit load-shedding policy, continuous batching that merges queued
// requests up to a batch/shape budget, deadline-aware dispatch with
// retry/backoff, a circuit breaker that diverts to the host fallback
// while the array misbehaves and recovers automatically, and a chaos
// schedule that swaps fault plans and kills shards mid-run. It is the
// StepStone-style batched-cloud-inference story (Cho et al., PAPERS.md)
// made robust.
//
// RunDeterministic is the one driver: a single-goroutine discrete-event
// simulation in virtual time, so every latency is the model's seconds
// and two runs with the same inputs produce byte-identical records,
// metrics and span traces. The offline simulator stays the oracle —
// Recorder.Replay re-runs a recorded run through
// serving.SimulateRobust and must reproduce its latency percentiles
// within tolerance (DESIGN.md §12).
package live

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/serving"
)

// ShedPolicy decides what happens to a request that finds the admission
// queue full.
type ShedPolicy int

// The shed policies.
const (
	// ShedReject drops the request immediately (fail fast; the client
	// sees the rejection while its deadline still has budget).
	ShedReject ShedPolicy = iota
	// ShedBlock applies backpressure: the queue admits without bound and
	// every request keeps its arrival stamp. Overload surfaces as
	// queueing delay, not drops.
	ShedBlock
	// ShedDegrade spills the request to the degrade lane, which serves
	// it singly on the host fallback; if that lane is full too, the
	// request is dropped.
	ShedDegrade
)

func (p ShedPolicy) String() string {
	switch p {
	case ShedReject:
		return "reject"
	case ShedBlock:
		return "block"
	case ShedDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("shed(%d)", int(p))
	}
}

// Config parameterizes a serving run.
type Config struct {
	// Policy is the batching policy (MaxBatch requests, MaxWait virtual
	// seconds), with the same semantics as the offline simulator.
	Policy serving.Policy
	// MaxBatchRows bounds the total activation rows a batch may carry
	// (the shape budget of continuous batching); 0 disables it.
	MaxBatchRows int
	// QueueCap bounds the admission queue.
	QueueCap int
	// Shed is the policy for a full queue.
	Shed ShedPolicy
	// DegradeWorkers sizes the degrade lane (ShedDegrade only);
	// 0 defaults to 1.
	DegradeWorkers int
	// Robust supplies Deadline, MaxRetries and Backoff. FailRate and
	// Seed are ignored — live failures come from the fault-injected
	// backend, not a coin flip.
	Robust serving.Robustness
	// Breaker configures the circuit breaker guarding the PIM backend
	// (zero value: disabled).
	Breaker BreakerConfig
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if err := c.Robust.Validate(); err != nil {
		return err
	}
	if err := c.Breaker.Validate(); err != nil {
		return err
	}
	if c.QueueCap <= 0 {
		return fmt.Errorf("live: QueueCap must be positive")
	}
	if c.MaxBatchRows < 0 {
		return fmt.Errorf("live: MaxBatchRows must be non-negative")
	}
	if c.DegradeWorkers < 0 {
		return fmt.Errorf("live: DegradeWorkers must be non-negative")
	}
	switch c.Shed {
	case ShedReject, ShedBlock, ShedDegrade:
	default:
		return fmt.Errorf("live: unknown shed policy %d", int(c.Shed))
	}
	return nil
}

// Request is one in-flight inference request.
type Request struct {
	ID         int64
	Kind, Rows int
	// Arrival is the virtual submit time.
	Arrival float64

	// tr / span carry the request's span trace and its currently open
	// phase span (nil / NoSpan when tracing is off).
	tr   *obs.Trace
	span obs.SpanID
}
