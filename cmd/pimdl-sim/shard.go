package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/autotuner"
	"repro/internal/lutnn"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/pim"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// shardConfig is the validated -shard* flag set: partition the operator
// across a cluster of DIMM shards instead of one array.
type shardConfig struct {
	cfg  shard.Config
	kill []int // shard IDs marked down before the run (or killed mid-storm in -live)
}

// shardFlags registers the -shard* flags and returns a builder that
// validates them into a shardConfig (nil when -shards was not given).
func shardFlags(fs *flag.FlagSet) func() (*shardConfig, error) {
	shards := fs.Int("shards", 0, "partition the LUT across this many DIMM shards (0 = single-array mode)")
	replicas := fs.Int("shard-replicas", 1, "replicas per sub-LUT range (failover headroom)")
	hotReplicas := fs.Int("shard-hot-replicas", 0, "replica count for hot ranges (0 = same as -shard-replicas)")
	hotFrac := fs.Float64("shard-hot-frac", 0, "fraction of ranges replicated at the hot count [0,1]")
	rowBlocks := fs.Int("shard-rowblocks", 0, "row blocks to split the N rows into (0 = max replica count)")
	linkBW := fs.Float64("shard-link-bw", shard.DefaultInterconnect().BW, "cross-DIMM channel bandwidth in bytes/s")
	linkLat := fs.Float64("shard-link-lat", shard.DefaultInterconnect().Latency, "cross-DIMM per-shard message latency in seconds")
	kill := fs.String("shard-kill", "", `comma-separated shard IDs to kill, e.g. "1,3" (mid-run storm under -live, dead from the start otherwise)`)

	return func() (*shardConfig, error) {
		if *shards == 0 {
			if *kill != "" {
				return nil, fmt.Errorf("-shard-kill needs -shards")
			}
			return nil, nil
		}
		sc := &shardConfig{cfg: shard.Config{
			Shards:      *shards,
			Replicas:    *replicas,
			HotReplicas: *hotReplicas,
			HotFraction: *hotFrac,
			RowBlocks:   *rowBlocks,
			Link:        shard.Interconnect{Latency: *linkLat, BW: *linkBW},
		}}
		if err := sc.cfg.Validate(); err != nil {
			return nil, err
		}
		if *kill != "" {
			for _, part := range strings.Split(*kill, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return nil, fmt.Errorf("-shard-kill: bad shard ID %q", part)
				}
				if id < 0 || id >= *shards {
					return nil, fmt.Errorf("-shard-kill: shard %d outside [0, %d)", id, *shards)
				}
				sc.kill = append(sc.kill, id)
			}
		}
		return sc, nil
	}
}

// buildCluster tunes a mapping for one cluster tile on the per-shard
// platform and places workload w across the cluster — the shared
// construction path of the offline sharded run and -live.
func buildCluster(plat *pim.Platform, w pim.Workload, sc *shardConfig) (*shard.Cluster, *autotuner.Result, error) {
	tileW, _, err := shard.TileWorkload(w, sc.cfg)
	if err != nil {
		return nil, nil, err
	}
	shardPlat, err := shard.PerShardPlatform(plat, sc.cfg.Shards)
	if err != nil {
		return nil, nil, err
	}
	tuned, err := autotuner.Tune(shardPlat, tileW, mapping.SpaceConfig{MaxDivisors: 8})
	if err != nil {
		return nil, nil, err
	}
	cl, err := shard.New(plat, w, tuned.Mapping, sc.cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	return cl, tuned, nil
}

// runSharded is the offline -shards entry point: place the operator
// across the cluster, execute it functionally with the -fault-* plan and
// any -shard-kill dead shards, verify against the single-threaded
// reference, and print the cluster timing decomposition next to the
// capacity report.
func runSharded(cfg *simConfig, out io.Writer) error {
	stdout := &printer{w: out}
	rng := rand.New(rand.NewSource(cfg.seed))
	acts := tensor.RandN(rng, 1, cfg.n, cfg.h)
	weight := tensor.RandN(rng, 1, cfg.f, cfg.h)
	plat := cfg.platform
	sc := cfg.shard

	stdout.printf("Converting %dx%d linear layer to LUT-NN (V=%d, CT=%d)...\n", cfg.f, cfg.h, cfg.v, cfg.ct)
	layer, err := lutnn.Convert(weight, nil, acts, lutnn.Params{V: cfg.v, CT: cfg.ct}, cfg.seed)
	if err != nil {
		return err
	}

	w := pim.Workload{N: cfg.n, CB: cfg.h / cfg.v, CT: cfg.ct, F: cfg.f, ElemBytes: 4}
	cl, tuned, err := buildCluster(plat, w, sc)
	if err != nil {
		return err
	}
	stdout.printf("Cluster: %d shards of %s, %d row blocks -> %d-tile grid (tile %dx%d)\n",
		sc.cfg.Shards, cl.Plat.Name, cl.RowBlocks(), cl.RowBlocks()*sc.cfg.Shards, cl.Tile.N, cl.Tile.F)
	stdout.printf("Auto-tuned tile mapping: %v (%d PEs/shard, %d candidates)\n",
		tuned.Mapping, tuned.Mapping.PEs(cl.Tile), tuned.Evaluated)
	for _, rg := range cl.P.Ranges {
		hot := ""
		if rg.Hot {
			hot = " (hot)"
		}
		stdout.printf("  LUT range [%4d, %4d) on shards %v%s\n", rg.Lo, rg.Hi, rg.Replicas, hot)
	}

	st := shard.NewState(sc.cfg.Shards)
	for _, id := range sc.kill {
		st.SetDown(id, true)
	}
	if len(sc.kill) > 0 {
		stdout.printf("Dead shards: %v\n", sc.kill)
	}

	idx := layer.Codebooks.Search(acts)
	res, err := cl.ExecuteLUT(idx, layer.Table, cfg.faults, st)
	if errors.Is(err, shard.ErrAllReplicasLost) {
		stdout.printf("\nIrrecoverable: %v\n", err)
		stdout.printf("(the live runtime's host fallback fires here; revive a replica or raise -shard-replicas)\n")
		if stdout.err != nil {
			return stdout.err
		}
		return err
	}
	if err != nil {
		return err
	}

	ref := layer.Table.Lookup(idx, cfg.n)
	exact := lutnn.ForwardExact(acts, weight, nil)
	stdout.printf("\nFunctional check:\n")
	stdout.printf("  cluster vs reference lookup: max |diff| = %.3g (must be ~0 after recovery)\n",
		tensor.MaxAbsDiff(res.Output, ref))
	stdout.printf("  LUT-NN vs exact GEMM:        rel. error = %.3f (centroid approximation)\n",
		tensor.RelativeError(res.Output, exact))

	rp, ct := res.Route, res.Timing
	stdout.printf("\nRouting: %d/%d shards live | %d tiles | %d failovers | %d replica hits\n",
		rp.LiveShards, sc.cfg.Shards, len(rp.Tiles), rp.Failovers, rp.ReplicaHits)
	for _, stg := range ct.PerShard {
		stdout.printf("  shard %d: %-8v %2d tiles | busy %.3g s\n", stg.Shard, stg.Health, stg.Tiles, stg.Busy)
	}
	stdout.printf("Cross-DIMM: broadcast %.3g s | gather %.3g s\n", ct.Broadcast, ct.Gather)
	stdout.printf("Makespan: %.4g s (steady-state %.4g s with bank-resident sub-LUTs)\n",
		ct.Makespan, ct.SteadyMakespan)

	cr := ct.Capacity
	stdout.printf("\nCapacity: %d/%d PEs live (%.0f%%) | %d degraded ranges | min live replicas %d\n",
		cr.LivePE, cr.TotalPE, 100*cr.Fraction, cr.DegradedRanges, cr.MinLiveReplicas)
	if cr.MinLiveReplicas == 1 {
		stdout.printf("  (one more shard loss on the thin range turns the cluster irrecoverable)\n")
	}

	if rec := res.Recovery; rec != nil {
		stdout.printf("\nFault recovery (plan seed %d, per-shard derived seeds):\n", cfg.faults.Seed)
		stdout.printf("  dead PEs (across shards): %d | tiles re-dispatched: %d\n", rec.DeadPEs, rec.Redispatched)
		stdout.printf("  DMA retries: %d | residual corrupted elements: %d\n", rec.Retries, rec.ResidualCorrupt)
		stdout.printf("  worst straggler slowdown: %.2fx\n", rec.WorstSlowdown)
	}

	if cfg.metricsPath != "" {
		if err := metrics.Default().WriteFile(cfg.metricsPath); err != nil {
			return err
		}
		stdout.printf("wrote metrics snapshot to %s\n", cfg.metricsPath)
	}
	return stdout.err
}
