package mapping

import "repro/internal/pim"

// Orders lists all six tile-traversal permutations (P3).
var Orders = [][3]pim.Loop{
	{pim.LoopN, pim.LoopF, pim.LoopCB},
	{pim.LoopN, pim.LoopCB, pim.LoopF},
	{pim.LoopF, pim.LoopN, pim.LoopCB},
	{pim.LoopF, pim.LoopCB, pim.LoopN},
	{pim.LoopCB, pim.LoopN, pim.LoopF},
	{pim.LoopCB, pim.LoopF, pim.LoopN},
}

// Schemes lists the three LUT load schemes (P4).
var Schemes = []pim.LoadScheme{pim.StaticLoad, pim.CoarseLoad, pim.FineLoad}

// divisors returns the divisors of n in increasing order, capped to at
// most maxCount entries spread across the range (small, middle and large
// divisors are all represented).
func divisors(n, maxCount int) []int {
	var ds []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
		}
	}
	for i := len(ds) - 1; i >= 0; i-- { // the cofactors of the small divisors, ascending
		if q := n / ds[i]; q != ds[i] {
			ds = append(ds, q)
		}
	}
	if maxCount <= 0 || len(ds) <= maxCount {
		return ds
	}
	out := make([]int, 0, maxCount)
	step := float64(len(ds)-1) / float64(maxCount-1)
	last := -1
	for i := 0; i < maxCount; i++ {
		j := int(float64(i)*step + 0.5)
		if j != last {
			out = append(out, ds[j])
			last = j
		}
	}
	return out
}

// SpaceConfig bounds the enumeration so full sweeps stay tractable.
type SpaceConfig struct {
	// MaxDivisors caps the candidate list per dimension (default 12).
	MaxDivisors int
	// RequireAllPEs, when set, keeps only sub-LUT partitions that use
	// every PE (the paper pads workloads so they partition evenly).
	RequireAllPEs bool
}

func (c SpaceConfig) maxDiv() int {
	if c.MaxDivisors <= 0 {
		return 12
	}
	return c.MaxDivisors
}

// SubLUTPartitions enumerates legal (NsTile, FsTile) pairs (P1) for w on
// p: the PE count fits the array and each PE's tiles fit its local bank.
func SubLUTPartitions(p *pim.Platform, w pim.Workload, cfg SpaceConfig) [][2]int {
	var out [][2]int
	fsC := divisors(w.F, cfg.maxDiv())
	for _, ns := range divisors(w.N, cfg.maxDiv()) {
		for _, fs := range fsC {
			npe := (w.N / ns) * (w.F / fs)
			if npe > p.NumPE || (cfg.RequireAllPEs && npe != p.NumPE) {
				continue
			}
			if (pim.Mapping{NsTile: ns, FsTile: fs}).BankFootprint(w) > p.MRAMBytes {
				continue
			}
			out = append(out, [2]int{ns, fs})
		}
	}
	return out
}

// loadDivisors caps the load-tile candidates (P4) per micro-tile
// dimension, so a tile triple has at most 1 static + 4×4 coarse + 4 fine
// load configurations.
const loadDivisors = 4

// MicroKernels enumerates the legal micro-kernel candidates (P2–P4) of
// sub-LUT partition (ns, fs), which must come from SubLUTPartitions.
// Tiles come from divisor lists and traversals from Orders, so the only
// legality check left per candidate is the WRAM footprint, which does not
// depend on the traversal. When keep is non-nil it is shown each tile
// triple (as a mapping with only the tiles set) before the triple's
// candidates are generated, and a false return skips them.
func MicroKernels(p *pim.Platform, w pim.Workload, ns, fs int, cfg SpaceConfig, keep func(pim.Mapping) bool, yield func(pim.Mapping)) {
	loadTiles := func(tiles []int) [][]int {
		out := make([][]int, len(tiles))
		for i, t := range tiles {
			out[i] = divisors(t, loadDivisors)
		}
		return out
	}
	nmC := divisors(ns, cfg.maxDiv())
	fmC := divisors(fs, cfg.maxDiv())
	cbC := divisors(w.CB, cfg.maxDiv())
	fLoads, cbLoads := loadTiles(fmC), loadTiles(cbC)
	loads := make([]pim.Mapping, 0, 1+loadDivisors*loadDivisors+loadDivisors)
	add := func(m pim.Mapping) {
		if m.WRAMFootprint(w) <= p.WRAMBytes {
			loads = append(loads, m)
		}
	}
	for _, nm := range nmC {
		for fi, fm := range fmC {
			for ci, cbm := range cbC {
				m := pim.Mapping{NsTile: ns, FsTile: fs, NmTile: nm, FmTile: fm, CBmTile: cbm}
				if keep != nil && !keep(m) {
					continue
				}
				// The triple's legal load configurations (P4).
				loads = loads[:0]
				for _, sc := range Schemes {
					m.Scheme, m.CBLoadTile, m.FLoadTile = sc, 0, 0
					switch sc {
					case pim.StaticLoad:
						add(m)
					case pim.CoarseLoad:
						for _, cbl := range cbLoads[ci] {
							for _, fl := range fLoads[fi] {
								m.CBLoadTile, m.FLoadTile = cbl, fl
								add(m)
							}
						}
					case pim.FineLoad:
						for _, fl := range fLoads[fi] {
							m.FLoadTile = fl
							add(m)
						}
					}
				}
				for _, ord := range Orders {
					for _, m := range loads {
						m.Traversal = ord
						yield(m)
					}
				}
			}
		}
	}
}

// Enumerate walks the whole legal mapping space for w on p.
func Enumerate(p *pim.Platform, w pim.Workload, cfg SpaceConfig, yield func(pim.Mapping)) {
	for _, sf := range SubLUTPartitions(p, w, cfg) {
		MicroKernels(p, w, sf[0], sf[1], cfg, nil, yield)
	}
}
