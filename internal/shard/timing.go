package shard

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/pim"
)

// ShardTiming is one shard's share of a cluster execution.
type ShardTiming struct {
	Shard  int
	Health Health
	// Tiles is the number of cluster tiles routed here; Busy the
	// modelled seconds to run them back to back; LUTLoad the portion of
	// Busy that is per-tile table staging (amortized away in steady
	// state, when the sub-LUT replicas are bank-resident).
	Tiles   int
	Busy    float64
	LUTLoad float64
	// Recovery accounting under the shard's derived fault plan,
	// aggregated across its tiles (DeadPEs is the per-shard count, not
	// per tile — the same PEs are dead for every tile).
	DeadPEs, Redispatched, Retries, Residual int
	WorstSlowdown                            float64
}

// CapacityReport is the degraded-capacity summary threaded up to the
// engine and the live serving runtime: how much of the cluster still
// serves, and how close any LUT range is to losing its last replica.
type CapacityReport struct {
	Shards, LiveShards int
	TotalPE, LivePE    int
	// Fraction is LivePE / TotalPE — the headline capacity gauge.
	Fraction float64
	// DegradedRanges counts ranges running below their placed replica
	// count; MinLiveReplicas is the smallest live replica set across
	// ranges (1 means one more loss turns ErrAllReplicasLost).
	DegradedRanges  int
	MinLiveReplicas int
}

// ClusterTiming is the cluster-level timing decomposition: per-shard
// busy intervals running in parallel, bracketed by the cross-DIMM
// index broadcast and output gather.
type ClusterTiming struct {
	PerShard []ShardTiming
	// Broadcast / Gather are the cross-DIMM phases (zero for a
	// single-shard cluster — one DIMM is the pim model's own domain).
	Broadcast, Gather float64
	// Makespan is Broadcast + max shard Busy + Gather; SteadyMakespan
	// excludes the per-tile LUT staging (tables bank-resident).
	Makespan, SteadyMakespan float64
	// Failovers / ReplicaHits / LiveShards echo the route accounting.
	Failovers, ReplicaHits, LiveShards int
	Capacity                           CapacityReport
}

// Estimate routes the cluster under (base plan, state) and evaluates
// every shard's timing model concurrently on the shared worker pool.
// Results are bit-exact with EstimateSerial for any input — the serial
// oracle the tests pin, as PR 3 did for the host kernels.
func (c *Cluster) Estimate(base pim.FaultPlan, st State) (*ClusterTiming, error) {
	rp, err := c.Route(base, st)
	if err != nil {
		return nil, err
	}
	return c.timingFor(rp, base, true)
}

// EstimateSerial is the serial oracle: identical inputs produce
// byte-identical ClusterTiming without touching the worker pool.
//
//pimdl:lint-ignore deadexport serial oracle the concurrent Estimate is tested against
func (c *Cluster) EstimateSerial(base pim.FaultPlan, st State) (*ClusterTiming, error) {
	rp, err := c.Route(base, st)
	if err != nil {
		return nil, err
	}
	return c.timingFor(rp, base, false)
}

// shardTiming evaluates one shard's ShardTiming under the route plan.
// Every cluster tile shares one workload shape, so the per-tile model
// is evaluated once and scaled by the tile count — the scaling is
// float-deterministic, keeping concurrent and serial paths bit-exact.
func (c *Cluster) shardTiming(rp *RoutePlan, base pim.FaultPlan, s int) (ShardTiming, error) {
	stg := ShardTiming{Shard: s, Health: rp.Health[s], Tiles: len(rp.PerShard[s]), WorstSlowdown: 1}
	if stg.Tiles == 0 {
		return stg, nil
	}
	plan := PlanFor(base, s)
	t, err := pim.SimTimingWithFaults(c.Plat, c.Tile, c.M, plan)
	if err != nil {
		return stg, fmt.Errorf("shard: timing shard %d: %w", s, err)
	}
	n := float64(stg.Tiles)
	stg.Busy = t.Total() * n
	stg.LUTLoad = t.HostLUT * n
	if !plan.IsZero() {
		rec, err := pim.PlanRecovery(c.Plat, c.Tile, c.M, plan)
		if err != nil {
			return stg, fmt.Errorf("shard: recovery shard %d: %w", s, err)
		}
		stg.DeadPEs = rec.DeadPEs
		stg.Redispatched = rec.Redispatched * stg.Tiles
		stg.Retries = rec.Retries * stg.Tiles
		stg.Residual = rec.ResidualCorrupt * stg.Tiles
		stg.WorstSlowdown = rec.WorstSlowdown
	}
	return stg, nil
}

// timingFor turns a route plan into the cluster timing; concurrent
// selects the worker-pool fan-out (per-shard slots are disjoint, and
// the reduction below is serial either way, so both paths are
// bit-exact).
func (c *Cluster) timingFor(rp *RoutePlan, base pim.FaultPlan, concurrent bool) (*ClusterTiming, error) {
	nShards := c.Cfg.Shards
	per := make([]ShardTiming, nShards)
	errs := make([]error, nShards)
	if concurrent {
		work := len(rp.Tiles) * c.Tile.N * c.Tile.F
		parallel.For(nShards, work, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				per[s], errs[s] = c.shardTiming(rp, base, s)
			}
		})
	} else {
		for s := 0; s < nShards; s++ {
			per[s], errs[s] = c.shardTiming(rp, base, s)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	ct := &ClusterTiming{
		PerShard:    per,
		Failovers:   rp.Failovers,
		ReplicaHits: rp.ReplicaHits,
		LiveShards:  rp.LiveShards,
	}
	var maxBusy, maxSteady float64
	for _, stg := range per {
		if stg.Busy > maxBusy {
			maxBusy = stg.Busy
		}
		if steady := stg.Busy - stg.LUTLoad; steady > maxSteady {
			maxSteady = steady
		}
	}
	ct.Broadcast, ct.Gather = c.interconnect(rp)
	ct.Makespan = ct.Broadcast + maxBusy + ct.Gather
	ct.SteadyMakespan = ct.Broadcast + maxSteady + ct.Gather
	ct.Capacity = c.capacity(rp, base)
	recordTiming(ct)
	return ct, nil
}

// interconnect models the cross-DIMM phases of one execution: the host
// broadcasts each shard's index blocks over the shared channel and
// gathers every output tile back. Replication shows up as extra index
// copies only when a row block's tiles land on different shards (each
// DIMM needs the rows it computes), and each addressed shard pays the
// per-message latency. A single-shard cluster pays nothing — the pim
// timing model already owns intra-DIMM transfers.
func (c *Cluster) interconnect(rp *RoutePlan) (broadcast, gather float64) {
	if c.Cfg.Shards == 1 {
		return 0, 0
	}
	blockBytes := int64(c.Tile.N) * int64(c.W.CB)
	var idxBytes int64
	used := 0
	seen := make(map[int]bool, len(rp.Tiles)) // shard*blocks + block
	for s, tiles := range rp.PerShard {
		if len(tiles) == 0 {
			continue
		}
		used++
		for _, ti := range tiles {
			key := s*c.blocks + rp.Tiles[ti].Block
			if !seen[key] {
				seen[key] = true
				idxBytes += blockBytes
			}
		}
	}
	link := c.Cfg.Link
	broadcast = float64(used)*link.Latency + float64(idxBytes)/link.BW
	gather = float64(used)*link.Latency + float64(c.W.OutputBytes())/link.BW
	return broadcast, gather
}

// capacity summarizes the cluster's surviving compute under the route.
func (c *Cluster) capacity(rp *RoutePlan, base pim.FaultPlan) CapacityReport {
	cr := CapacityReport{
		Shards:          c.Cfg.Shards,
		LiveShards:      rp.LiveShards,
		TotalPE:         c.Cfg.Shards * c.Plat.NumPE,
		MinLiveReplicas: c.Cfg.Shards,
	}
	for s, h := range rp.Health {
		if !h.Serves() {
			continue
		}
		live := c.Plat.NumPE
		if h == Degraded {
			// Same dead-PE count formula FaultPlan.Instantiate uses.
			live -= int(PlanFor(base, s).DeadPEFraction * float64(c.Plat.NumPE))
		}
		cr.LivePE += live
	}
	if cr.TotalPE > 0 {
		cr.Fraction = float64(cr.LivePE) / float64(cr.TotalPE)
	}
	for _, rg := range c.P.Ranges {
		liveReps := 0
		for _, s := range rg.Replicas {
			if rp.Health[s].Serves() {
				liveReps++
			}
		}
		if liveReps < len(rg.Replicas) {
			cr.DegradedRanges++
		}
		if liveReps < cr.MinLiveReplicas {
			cr.MinLiveReplicas = liveReps
		}
	}
	recordCapacity(cr)
	return cr
}
