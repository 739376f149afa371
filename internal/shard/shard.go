// Package shard is the cluster layer above internal/pim: where the pim
// package simulates one DRAM-PIM array (one logical DIMM), this package
// places a LUT operator across N DIMM shards, replicates hot sub-LUT
// ranges to trade bank capacity for parallelism (the LoCalut tradeoff,
// PAPERS.md), models the cross-DIMM broadcast and gather traffic the
// single-array timing equations never see, and routes tiles around dead
// or degraded shards by reusing the PR-2 fault machinery at shard
// granularity.
//
// The decomposition: the operator's F output features split into one
// contiguous LUT range per shard, and its N index rows split into row
// blocks, so the cluster's unit of work is a uniform "cluster tile"
// (row block × LUT range) — every tile is the same pim.Workload shape,
// which means one tuned pim.Mapping covers the whole cluster and the
// single-array simulator executes each tile unchanged. Each range is
// placed on a replica set of shards (home first); a healthy cluster
// spreads a range's row blocks across its replicas for parallelism, and
// a dead shard's blocks fail over to the surviving replicas. Only when
// every replica of some range is lost does the cluster become
// irrecoverable (ErrAllReplicasLost, matching pim.ErrIrrecoverable for
// errors.Is so the live runtime's host fallback fires unchanged).
//
// Everything is deterministic: per-shard fault plans derive from the
// base plan seed with a splitmix64 mix of the shard ID (a storm replays
// identically regardless of shard count), routing is a pure function of
// (placement, health), and the concurrent timing path is bit-exact with
// the serial oracle (timing_test.go), as PR 3 proved for the kernels.
package shard

import (
	"fmt"

	"repro/internal/pim"
)

// Interconnect is the cross-DIMM cost model: the host reaches the
// shards over a shared channel, so fanning an operator out across DIMMs
// pays a per-shard message latency plus the serialized bytes. (Cho et
// al.'s StepStone placement study, PAPERS.md: layout across ranks
// dominates achievable bandwidth — this is the knob that makes that
// visible.)
type Interconnect struct {
	// Latency is the fixed software+sync cost of addressing one shard in
	// a transfer phase (rank select, driver call).
	Latency float64
	// BW is the shared cross-DIMM channel bandwidth in bytes/second;
	// broadcast and gather bytes serialize over it.
	BW float64
}

// DefaultInterconnect returns a DDR4-2400-channel-flavoured link:
// 19.2 GB/s shared, 2 µs per-rank addressing cost.
func DefaultInterconnect() Interconnect {
	return Interconnect{Latency: 2e-6, BW: 19.2e9}
}

// Validate checks the link parameters.
func (ic Interconnect) Validate() error {
	if ic.Latency < 0 {
		return fmt.Errorf("shard: link latency %g negative", ic.Latency)
	}
	if ic.BW <= 0 {
		return fmt.Errorf("shard: link bandwidth %g must be positive", ic.BW)
	}
	return nil
}

// Config describes one cluster: how many DIMM shards, how aggressively
// LUT ranges are replicated, and the interconnect between them.
type Config struct {
	// Shards is the number of DIMM shards; each runs the per-shard
	// platform handed to New.
	Shards int
	// Replicas is the baseline replica count per LUT range (1 = no
	// replication). More replicas burn shard bank capacity for
	// parallelism and failover headroom.
	Replicas int
	// HotReplicas, when > Replicas, is the replica count of hot ranges.
	HotReplicas int
	// HotFraction is the fraction of ranges (the hottest by the heat
	// vector given to New) that replicate at HotReplicas.
	HotFraction float64
	// RowBlocks splits the N index rows into row blocks — the row
	// granularity of replica parallelism and failover. 0 picks the
	// largest replica count, so every replica owns at least one block.
	RowBlocks int
	// Link is the cross-DIMM cost model; the zero value means
	// DefaultInterconnect.
	Link Interconnect
}

// Validate checks the cluster shape parameters.
func (c Config) Validate() error {
	if c.Shards <= 0 {
		return fmt.Errorf("shard: Shards must be positive, got %d", c.Shards)
	}
	if c.Replicas < 1 {
		return fmt.Errorf("shard: Replicas must be >= 1, got %d", c.Replicas)
	}
	if c.Replicas > c.Shards {
		return fmt.Errorf("shard: Replicas %d exceeds Shards %d", c.Replicas, c.Shards)
	}
	if c.HotReplicas != 0 && (c.HotReplicas < c.Replicas || c.HotReplicas > c.Shards) {
		return fmt.Errorf("shard: HotReplicas %d outside [Replicas=%d, Shards=%d]", c.HotReplicas, c.Replicas, c.Shards)
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		return fmt.Errorf("shard: HotFraction %g outside [0,1]", c.HotFraction)
	}
	if c.RowBlocks < 0 {
		return fmt.Errorf("shard: RowBlocks %d negative", c.RowBlocks)
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	return nil
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Link == (Interconnect{}) {
		c.Link = DefaultInterconnect()
	}
	if c.HotReplicas == 0 {
		c.HotReplicas = c.Replicas
	}
	return c
}

// Range is one contiguous LUT feature range [Lo, Hi) and the shard
// replica set that holds its sub-LUT (home shard first).
type Range struct {
	Lo, Hi   int
	Replicas []int
	Hot      bool
}

// F returns the range's feature width.
func (r Range) F() int { return r.Hi - r.Lo }

// Placement is the static layout of the operator across the cluster:
// one LUT range per home shard, each with its replica set.
type Placement struct {
	Ranges []Range
}

// MaxReplicas returns the largest replica count across ranges.
func (p Placement) MaxReplicas() int {
	m := 1
	for _, r := range p.Ranges {
		if len(r.Replicas) > m {
			m = len(r.Replicas)
		}
	}
	return m
}

// hotCount returns how many ranges the config marks hot.
func hotCount(cfg Config) int {
	n := int(cfg.HotFraction * float64(cfg.Shards))
	if n > cfg.Shards {
		n = cfg.Shards
	}
	return n
}

// place lays the operator's F features out as Shards contiguous ranges.
// heat, when non-nil (length Shards), names the per-range access heat:
// the hottest hotCount ranges replicate at HotReplicas, ties broken by
// lower range ID so the layout is deterministic. Replicas of range r
// are shards r, r+1, ... (mod Shards).
func place(w pim.Workload, cfg Config, heat []float64) (Placement, error) {
	if heat != nil && len(heat) != cfg.Shards {
		return Placement{}, fmt.Errorf("shard: heat vector length %d != Shards %d", len(heat), cfg.Shards)
	}
	if w.F%cfg.Shards != 0 {
		return Placement{}, fmt.Errorf("shard: F=%d not divisible by Shards=%d", w.F, cfg.Shards)
	}
	hot := make([]bool, cfg.Shards)
	if n := hotCount(cfg); n > 0 && cfg.HotReplicas > cfg.Replicas {
		order := make([]int, cfg.Shards)
		for i := range order {
			order[i] = i
		}
		if heat != nil {
			// Selection sort by (heat desc, id asc): tiny S, fully
			// deterministic.
			for i := 0; i < len(order); i++ {
				best := i
				for j := i + 1; j < len(order); j++ {
					if heat[order[j]] > heat[order[best]] {
						best = j
					}
				}
				order[i], order[best] = order[best], order[i]
			}
		}
		for _, r := range order[:n] {
			hot[r] = true
		}
	}
	fr := w.F / cfg.Shards
	ranges := make([]Range, cfg.Shards)
	for r := 0; r < cfg.Shards; r++ {
		rep := cfg.Replicas
		if hot[r] {
			rep = cfg.HotReplicas
		}
		replicas := make([]int, rep)
		for k := range replicas {
			replicas[k] = (r + k) % cfg.Shards
		}
		ranges[r] = Range{Lo: r * fr, Hi: (r + 1) * fr, Replicas: replicas, Hot: hot[r]}
	}
	return Placement{Ranges: ranges}, nil
}

// Cluster is one placed operator: the per-shard platform, the full
// workload, the uniform cluster-tile workload, the mapping tuned for
// one tile on one shard, and the static placement.
type Cluster struct {
	Cfg  Config
	Plat *pim.Platform // one shard (one DIMM)
	W    pim.Workload  // the full operator
	Tile pim.Workload  // one cluster tile: RowBlock rows × Range features
	M    pim.Mapping   // tuned for Tile on Plat
	P    Placement

	blocks int // row blocks (resolved RowBlocks)
}

// TileWorkload resolves the uniform cluster-tile shape for workload w
// under cfg: N/RowBlocks rows × F/Shards features. It exists so callers
// that tune a mapping before building the cluster (the engine) tune for
// the exact tile shape New will validate against. The second return is
// the resolved row-block count.
func TileWorkload(w pim.Workload, cfg Config) (pim.Workload, int, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return pim.Workload{}, 0, err
	}
	if w.F%cfg.Shards != 0 {
		return pim.Workload{}, 0, fmt.Errorf("shard: F=%d not divisible by Shards=%d", w.F, cfg.Shards)
	}
	blocks := cfg.RowBlocks
	if blocks == 0 {
		blocks = cfg.Replicas
		if n := hotCount(cfg); n > 0 && cfg.HotReplicas > blocks {
			blocks = cfg.HotReplicas
		}
	}
	if w.N%blocks != 0 {
		return pim.Workload{}, 0, fmt.Errorf("shard: N=%d not divisible by RowBlocks=%d", w.N, blocks)
	}
	tile := pim.Workload{N: w.N / blocks, CB: w.CB, CT: w.CT, F: w.F / cfg.Shards, ElemBytes: w.ElemBytes}
	return tile, blocks, nil
}

// New builds and validates a cluster for workload w over cfg.Shards
// copies of plat. m must be a legal mapping for the cluster-tile
// workload (N/RowBlocks rows × F/Shards features) on one shard. heat
// optionally ranks ranges for hot replication (see place).
func New(plat *pim.Platform, w pim.Workload, m pim.Mapping, cfg Config, heat []float64) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := place(w, cfg, heat)
	if err != nil {
		return nil, err
	}
	tile, blocks, err := TileWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(plat, tile); err != nil {
		return nil, fmt.Errorf("shard: mapping illegal for cluster tile %+v: %w", tile, err)
	}
	c := &Cluster{Cfg: cfg, Plat: plat, W: w, Tile: tile, M: m, P: p, blocks: blocks}
	if err := c.checkCapacity(); err != nil {
		return nil, err
	}
	return c, nil
}

// RowBlocks returns the resolved row-block count.
func (c *Cluster) RowBlocks() int { return c.blocks }

// checkCapacity verifies each shard's aggregate bank capacity holds the
// sub-LUT replicas placed on it plus the worst-case index and output
// tiles — the capacity side of the replication tradeoff. Over-replicate
// and this is the error that says so.
func (c *Cluster) checkCapacity() error {
	hostedLUT := make([]int64, c.Cfg.Shards)
	for _, r := range c.P.Ranges {
		bytes := int64(c.W.CB) * int64(c.W.CT) * int64(r.F()) * int64(c.W.ElemBytes)
		for _, s := range r.Replicas {
			hostedLUT[s] += bytes
		}
	}
	// Worst case a shard also stages every row block's index tile and
	// output accumulators for one range at once.
	idx := int64(c.W.N) * int64(c.W.CB)
	out := int64(c.W.N) * int64(c.Tile.F) * 4
	capacity := int64(c.Plat.NumPE) * c.Plat.MRAMBytes
	for s, lut := range hostedLUT {
		if need := lut + idx + out; need > capacity {
			return fmt.Errorf("shard: shard %d over capacity: %d bytes of LUT replicas + staging > %d (lower Replicas/HotReplicas)",
				s, need, capacity)
		}
	}
	return nil
}

// PerShardPlatform derives the single-shard platform from a whole-array
// platform description: PEs, host bandwidths and power split evenly
// across shards, while per-PE quantities (frequency, WRAM/MRAM, local
// bandwidth) are unchanged. shards=1 returns an identical copy.
func PerShardPlatform(p *pim.Platform, shards int) (*pim.Platform, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: shards must be positive, got %d", shards)
	}
	if p.NumPE%shards != 0 {
		return nil, fmt.Errorf("shard: %s: NumPE %d not divisible by %d shards", p.Name, p.NumPE, shards)
	}
	sp := *p
	if shards > 1 {
		sp.Name = fmt.Sprintf("%s/%dshard", p.Name, shards)
		sp.NumPE = p.NumPE / shards
		sp.BroadcastBW = p.BroadcastBW / float64(shards)
		sp.ScatterBW = p.ScatterBW / float64(shards)
		sp.GatherBW = p.GatherBW / float64(shards)
		sp.PowerWatts = p.PowerWatts / float64(shards)
	}
	return &sp, nil
}
