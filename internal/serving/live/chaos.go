package live

import (
	"fmt"

	"repro/internal/pim"
)

// ChaosEvent mutates the primary backend at a virtual time: it swaps
// the fault plan (dead PEs appear, DMA flips start, stragglers slow
// down — or the array heals with a zero plan), and on a sharded backend
// it can additionally kill or revive whole DIMM shards. Note annotates
// the timeline.
type ChaosEvent struct {
	At   float64
	Plan pim.FaultPlan
	// KillShards / ReviveShards mark whole shards down/up before the
	// plan swap takes effect. They require a ShardChaosTarget backend.
	KillShards   []int
	ReviveShards []int
	Note         string
}

// shardOps reports whether the event touches shard up/down state.
func (ev ChaosEvent) shardOps() bool {
	return len(ev.KillShards) > 0 || len(ev.ReviveShards) > 0
}

// ChaosSchedule is a time-ordered list of fault-plan changes.
type ChaosSchedule []ChaosEvent

// Validate checks event ordering and plan legality.
func (cs ChaosSchedule) Validate() error {
	for i, ev := range cs {
		if ev.At < 0 {
			return fmt.Errorf("live: chaos event %d at negative time %g", i, ev.At)
		}
		if i > 0 && ev.At < cs[i-1].At {
			return fmt.Errorf("live: chaos schedule not sorted at event %d", i)
		}
		if err := ev.Plan.Validate(); err != nil {
			return fmt.Errorf("live: chaos event %d: %w", i, err)
		}
		for _, s := range append(append([]int(nil), ev.KillShards...), ev.ReviveShards...) {
			if s < 0 {
				return fmt.Errorf("live: chaos event %d kills negative shard %d", i, s)
			}
		}
	}
	return nil
}

// ChaosTarget is the mutation surface a chaos schedule drives: any
// primary backend whose fault plan can be swapped mid-run. *PIMBackend
// and *ShardedPIMBackend implement it.
type ChaosTarget interface {
	SetPlan(pim.FaultPlan)
}

// ShardChaosTarget additionally exposes whole-shard kill/revive
// (*ShardedPIMBackend).
type ShardChaosTarget interface {
	ChaosTarget
	SetShardDown(id int, down bool)
}

// ChaosResult bundles what a run produced.
type ChaosResult struct {
	Recorder *Recorder
	Summary  Summary
	Admitted int
	// Breaker is the run's circuit breaker, in its final state (a
	// disabled breaker reports BreakerClosed and no transitions).
	Breaker *Breaker
}
