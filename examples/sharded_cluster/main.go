// Cluster sharding: place one LUT operator across 8 DIMM shards with
// replicated sub-LUT ranges, then walk the failure ladder — healthy
// spread, one dead shard absorbed by replica failover, per-PE faults
// recovered with per-shard derived plans, and finally both replicas of
// a range lost, the one state the cluster cannot route around
// (shard.ErrAllReplicasLost matches pim.ErrIrrecoverable, so the live
// runtime's host fallback fires on exactly this condition).
//
// Run with: go run ./examples/sharded_cluster
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/autotuner"
	"repro/internal/lutnn"
	"repro/internal/mapping"
	"repro/internal/pim"
	"repro/internal/shard"
	"repro/internal/tensor"
)

func report(name string, cl *shard.Cluster, ct *shard.ClusterTiming) {
	fmt.Printf("%s:\n", name)
	for _, stg := range ct.PerShard {
		fmt.Printf("  shard %d: %-8v %2d tiles | busy %.3g s\n", stg.Shard, stg.Health, stg.Tiles, stg.Busy)
	}
	cr := ct.Capacity
	fmt.Printf("  makespan %.4g s (steady %.4g s) | broadcast %.3g s | gather %.3g s\n",
		ct.Makespan, ct.SteadyMakespan, ct.Broadcast, ct.Gather)
	fmt.Printf("  capacity %d/%d PEs (%.0f%%) | failovers %d | degraded ranges %d | min live replicas %d\n\n",
		cr.LivePE, cr.TotalPE, 100*cr.Fraction, ct.Failovers, cr.DegradedRanges, cr.MinLiveReplicas)
}

func main() {
	const (
		n, h, f = 256, 128, 256
		v, ct   = 4, 16
		seed    = 7
	)
	plat := pim.UPMEM()

	// Build the LUT-NN operator the usual way: k-means codebooks from
	// sample activations, table from the weights.
	rng := rand.New(rand.NewSource(seed))
	acts := tensor.RandN(rng, 1, n, h)
	weight := tensor.RandN(rng, 1, f, h)
	layer, err := lutnn.Convert(weight, nil, acts, lutnn.Params{V: v, CT: ct}, seed)
	if err != nil {
		log.Fatal(err)
	}
	w := pim.Workload{N: n, CB: h / v, CT: ct, F: f, ElemBytes: 4}

	// Cluster shape: 8 shards, every sub-LUT range on 2 shards, and the
	// hottest quarter of the ranges (by the heat vector — say, attention
	// projections that every layer hits) on 3. Four row blocks give each
	// replica set parallel work.
	cfg := shard.Config{Shards: 8, Replicas: 2, HotReplicas: 3, HotFraction: 0.25, RowBlocks: 4}
	heat := []float64{1, 9, 2, 8, 1, 1, 2, 1} // ranges 1 and 3 are hot

	// One mapping covers every cluster tile: tune it for the tile shape
	// on the per-shard slice of the platform.
	tileW, _, err := shard.TileWorkload(w, cfg)
	if err != nil {
		log.Fatal(err)
	}
	shardPlat, err := shard.PerShardPlatform(plat, cfg.Shards)
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := autotuner.Tune(shardPlat, tileW, mapping.SpaceConfig{MaxDivisors: 8})
	if err != nil {
		log.Fatal(err)
	}
	cl, err := shard.New(plat, w, tuned.Mapping, cfg, heat)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%dx%d LUT operator across %d shards of %s (%d PEs each), tile %dx%d, mapping %v\n\n",
		n, f, cfg.Shards, plat.Name, shardPlat.NumPE, cl.Tile.N, cl.Tile.F, tuned.Mapping)
	fmt.Println("placement (home shard first; hot ranges carry an extra replica):")
	for _, rg := range cl.P.Ranges {
		hot := ""
		if rg.Hot {
			hot = " (hot)"
		}
		fmt.Printf("  LUT range [%4d, %4d) on shards %v%s\n", rg.Lo, rg.Hi, rg.Replicas, hot)
	}
	fmt.Println()

	// Rung 1: healthy. Row blocks round-robin across each range's
	// replicas; the functional result is byte-identical to the unsharded
	// single-array kernel.
	idx := layer.Codebooks.Search(acts)
	allUp := shard.NewState(cfg.Shards)
	res, err := cl.ExecuteLUT(idx, layer.Table, pim.FaultPlan{}, allUp)
	if err != nil {
		log.Fatal(err)
	}
	ref := layer.Table.Lookup(idx, n)
	fmt.Printf("healthy cluster vs unsharded reference: max |diff| = %g (bit-exact sharding)\n\n",
		tensor.MaxAbsDiff(res.Output, ref))
	report("healthy", cl, res.Timing)

	// Rung 2: shard 2 dies. Its tiles fail over to the surviving
	// replicas; the output is unchanged, the makespan stretches, and the
	// capacity report says how close the thin ranges are to the edge.
	down := shard.NewState(cfg.Shards)
	down.SetDown(2, true)
	res, err = cl.ExecuteLUT(idx, layer.Table, pim.FaultPlan{}, down)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard 2 dead, replicas cover: max |diff| = %g\n\n", tensor.MaxAbsDiff(res.Output, ref))
	report("shard 2 down", cl, res.Timing)

	// Rung 3: per-PE faults on top. Every shard derives its own plan from
	// the base seed (splitmix64 of shard ID), so the storm replays
	// identically at any shard count; recovery re-dispatches around dead
	// PEs and retries corrupt transfers until the output is exact again.
	plan := pim.FaultPlan{Seed: 42, DeadPEFraction: 0.2, FlipRate: 0.05, StragglerSpread: 0.5}
	res, err = cl.ExecuteLUT(idx, layer.Table, plan, down)
	if err != nil {
		log.Fatal(err)
	}
	rec := res.Recovery
	fmt.Printf("fault storm (dead=%.2f flip=%.2f) on the degraded cluster: max |diff| = %g\n",
		plan.DeadPEFraction, plan.FlipRate, tensor.MaxAbsDiff(res.Output, ref))
	fmt.Printf("  recovery: %d dead PEs | %d tiles re-dispatched | %d DMA retries | %d residual corrupt | %.2fx worst straggler\n\n",
		rec.DeadPEs, rec.Redispatched, rec.Retries, rec.ResidualCorrupt, rec.WorstSlowdown)
	report("shard 2 down + fault storm", cl, res.Timing)

	// Rung 4: shard 3 dies too — and range 2's replica set is {2, 3}.
	// Every copy of that sub-LUT is gone; no routing fixes that.
	down.SetDown(3, true)
	_, err = cl.ExecuteLUT(idx, layer.Table, pim.FaultPlan{}, down)
	fmt.Printf("shards 2+3 dead: %v\n", err)
	fmt.Printf("  errors.Is(err, shard.ErrAllReplicasLost) = %v\n", errors.Is(err, shard.ErrAllReplicasLost))
	fmt.Printf("  errors.Is(err, pim.ErrIrrecoverable)     = %v (the engine falls back to host GEMM here)\n",
		errors.Is(err, pim.ErrIrrecoverable))
}
