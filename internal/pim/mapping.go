package pim

import "fmt"

// Loop identifies a tiled loop dimension of the LUT micro kernel.
type Loop int

const (
	LoopN Loop = iota
	LoopF
	LoopCB
)

// String returns the dimension name.
func (l Loop) String() string {
	switch l {
	case LoopN:
		return "N"
	case LoopF:
		return "F"
	case LoopCB:
		return "CB"
	}
	return "?"
}

// Workload is the shape of one LUT operator (paper Table 2): N index rows,
// CB codebooks, CT centroids, F output features, with table elements of
// ElemBytes width.
type Workload struct {
	N, CB, CT, F int
	ElemBytes    int
}

// IndexBytes returns the size of the full index matrix.
func (w Workload) IndexBytes() int { return w.N * w.CB }

// LUTBytes returns the size of the full lookup table.
func (w Workload) LUTBytes() int { return w.CB * w.CT * w.F * w.ElemBytes }

// OutputBytes returns the size of the output matrix (4-byte accumulators).
func (w Workload) OutputBytes() int { return w.N * w.F * 4 }

// Mapping is one point in the auto-tuner's search space (paper §5.3
// P1–P4): sub-LUT partition factors, micro-kernel tile sizes, the tile
// traversal order, and the LUT load scheme with its load-tile factors.
type Mapping struct {
	// P1: sub-LUT partition. The index matrix splits into N/NsTile row
	// tiles, the LUT into F/FsTile feature tiles; PE (i,j) handles index
	// tile i × LUT tile j.
	NsTile, FsTile int

	// P2: micro-kernel tiling within one PE.
	NmTile, FmTile, CBmTile int

	// P3: traversal order, outermost first.
	Traversal [3]Loop

	// P4: LUT load scheme and its load-tile factors.
	Scheme     LoadScheme
	CBLoadTile int // coarse only
	FLoadTile  int // coarse and fine
}

// Groups returns the number of PE groups (index tiles).
func (m Mapping) Groups(w Workload) int { return w.N / m.NsTile }

// PEsPerGroup returns the PEs per group (LUT tiles).
func (m Mapping) PEsPerGroup(w Workload) int { return w.F / m.FsTile }

// PEs returns the total PEs used: (N/Ns)·(F/Fs), Eq. 5.
func (m Mapping) PEs(w Workload) int { return m.Groups(w) * m.PEsPerGroup(w) }

// String renders the mapping compactly.
func (m Mapping) String() string {
	return fmt.Sprintf("s(%d,%d) m(%d,%d,%d) %v%v%v %s",
		m.NsTile, m.FsTile, m.NmTile, m.FmTile, m.CBmTile,
		m.Traversal[0], m.Traversal[1], m.Traversal[2], m.Scheme)
}

// WRAMFootprint returns the on-chip bytes a PE needs under this mapping:
// the index MTile, the output MTile (4-byte accumulators), and the
// scheme's resident LUT window.
func (m Mapping) WRAMFootprint(w Workload) int {
	idx := m.NmTile * m.CBmTile
	out := m.NmTile * m.FmTile * 4
	var lut int
	switch m.Scheme {
	case StaticLoad:
		lut = w.CB * w.CT * m.FsTile * w.ElemBytes
	case CoarseLoad:
		lut = m.CBLoadTile * w.CT * m.FLoadTile * w.ElemBytes
	case FineLoad:
		lut = m.FLoadTile * w.ElemBytes * 16 // one window per hardware thread
	}
	return idx + out + lut
}

// BankFootprint returns the local-bank bytes a PE holds under this
// mapping's sub-LUT partition: its index, LUT and output tiles.
func (m Mapping) BankFootprint(w Workload) int64 {
	return int64(m.NsTile*w.CB) + int64(w.CB*w.CT*m.FsTile*w.ElemBytes) + int64(m.NsTile*m.FsTile*4)
}

// Validate reports whether the mapping is legal for workload w on platform
// p: all tiles divide evenly, the PE count fits, the WRAM footprint fits,
// and each PE's LUT+index+output tiles fit in its local bank.
func (m Mapping) Validate(p *Platform, w Workload) error {
	check := func(num, den int, what string) error {
		if den <= 0 {
			return fmt.Errorf("pim: non-positive %s tile", what)
		}
		if num%den != 0 {
			return fmt.Errorf("pim: %s tile %d does not divide %d", what, den, num)
		}
		return nil
	}
	if err := check(w.N, m.NsTile, "Ns"); err != nil {
		return err
	}
	if err := check(w.F, m.FsTile, "Fs"); err != nil {
		return err
	}
	if err := check(m.NsTile, m.NmTile, "Nm"); err != nil {
		return err
	}
	if err := check(m.FsTile, m.FmTile, "Fm"); err != nil {
		return err
	}
	if err := check(w.CB, m.CBmTile, "CBm"); err != nil {
		return err
	}
	if npe := m.PEs(w); npe > p.NumPE {
		return fmt.Errorf("pim: mapping needs %d PEs, platform has %d", npe, p.NumPE)
	}
	switch m.Scheme {
	case CoarseLoad:
		if m.CBLoadTile <= 0 || m.CBmTile%m.CBLoadTile != 0 {
			return fmt.Errorf("pim: coarse CBLoadTile %d does not divide CBm %d", m.CBLoadTile, m.CBmTile)
		}
		if m.FLoadTile <= 0 || m.FmTile%m.FLoadTile != 0 {
			return fmt.Errorf("pim: coarse FLoadTile %d does not divide Fm %d", m.FLoadTile, m.FmTile)
		}
	case FineLoad:
		if m.FLoadTile <= 0 || m.FmTile%m.FLoadTile != 0 {
			return fmt.Errorf("pim: fine FLoadTile %d does not divide Fm %d", m.FLoadTile, m.FmTile)
		}
	}
	if fp := m.WRAMFootprint(w); fp > p.WRAMBytes {
		return fmt.Errorf("pim: WRAM footprint %d exceeds %d", fp, p.WRAMBytes)
	}
	if perPE := m.BankFootprint(w); perPE > p.MRAMBytes {
		return fmt.Errorf("pim: per-PE bank footprint %d exceeds %d", perPE, p.MRAMBytes)
	}
	seen := map[Loop]bool{}
	for _, l := range m.Traversal {
		if seen[l] {
			return fmt.Errorf("pim: duplicate loop %v in traversal", l)
		}
		seen[l] = true
	}
	return nil
}
