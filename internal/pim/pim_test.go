package pim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lutnn"
	"repro/internal/tensor"
)

// testKernel builds a random LUT workload plus a legal default mapping.
func testKernel(seed int64, n, h, f, v, ct int) (Workload, []uint8, *lutnn.LUT, *lutnn.Codebooks) {
	rng := rand.New(rand.NewSource(seed))
	acts := tensor.RandN(rng, 1, n, h)
	cbs, err := lutnn.BuildCodebooks(acts, lutnn.Params{V: v, CT: ct}, seed)
	if err != nil {
		panic(err)
	}
	w := tensor.RandN(rng, 1, f, h)
	tbl, err := lutnn.BuildLUT(cbs, w)
	if err != nil {
		panic(err)
	}
	idx := cbs.Search(acts)
	return Workload{N: n, CB: h / v, CT: ct, F: f, ElemBytes: 4}, idx, tbl, cbs
}

func defaultMapping(w Workload, ns, fs int) Mapping {
	return Mapping{
		NsTile: ns, FsTile: fs,
		NmTile: min(ns, 8), FmTile: min(fs, 8), CBmTile: min(w.CB, 4),
		Traversal: [3]Loop{LoopN, LoopF, LoopCB},
		Scheme:    CoarseLoad, CBLoadTile: 1, FLoadTile: min(fs, 8),
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestExecuteLUTMatchesReference(t *testing.T) {
	w, idx, tbl, _ := testKernel(1, 32, 16, 24, 2, 8)
	p := UPMEM()
	m := defaultMapping(w, 8, 8)
	if err := m.Validate(p, w); err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteLUT(p, w, m, idx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.Lookup(idx, w.N)
	if tensor.MaxAbsDiff(res.Output, want) > 1e-5 {
		t.Fatalf("distributed result differs from reference by %g", tensor.MaxAbsDiff(res.Output, want))
	}
	if res.PEs != (32/8)*(24/8) {
		t.Fatalf("PEs = %d", res.PEs)
	}
}

func TestExecuteLUTAllPartitionsBitExact(t *testing.T) {
	// Property: any legal sub-LUT partition yields the identical output.
	w, idx, tbl, _ := testKernel(2, 16, 8, 16, 2, 4)
	p := UPMEM()
	want := tbl.Lookup(idx, w.N)
	for _, ns := range []int{1, 2, 4, 8, 16} {
		for _, fs := range []int{1, 2, 4, 8, 16} {
			m := Mapping{NsTile: ns, FsTile: fs, NmTile: 1, FmTile: 1, CBmTile: 1,
				Traversal: [3]Loop{LoopN, LoopF, LoopCB},
				Scheme:    FineLoad, FLoadTile: 1}
			if m.PEs(w) > p.NumPE {
				continue
			}
			res, err := ExecuteLUT(p, w, m, idx, tbl)
			if err != nil {
				t.Fatalf("ns=%d fs=%d: %v", ns, fs, err)
			}
			if !tensor.Equal(res.Output, want) {
				t.Fatalf("ns=%d fs=%d: output differs", ns, fs)
			}
		}
	}
}

func TestExecuteLUTInt8MatchesQuantizedReference(t *testing.T) {
	w, idx, tbl, _ := testKernel(3, 16, 16, 16, 4, 8)
	q := tbl.Quantize()
	w.ElemBytes = 1
	p := UPMEM()
	m := defaultMapping(w, 8, 8)
	res, err := ExecuteLUTInt8(p, w, m, idx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Lookup(idx, w.N)
	if !tensor.Equal(res.Output, want) {
		t.Fatal("INT8 distributed result differs from reference")
	}
}

func TestMappingValidation(t *testing.T) {
	p := UPMEM()
	w := Workload{N: 64, CB: 16, CT: 16, F: 64, ElemBytes: 1}
	good := Mapping{NsTile: 16, FsTile: 16, NmTile: 8, FmTile: 8, CBmTile: 4,
		Traversal: [3]Loop{LoopN, LoopF, LoopCB}, Scheme: StaticLoad}
	if err := good.Validate(p, w); err != nil {
		t.Fatalf("good mapping rejected: %v", err)
	}
	bad := []Mapping{
		{NsTile: 48, FsTile: 16, NmTile: 8, FmTile: 8, CBmTile: 4, Traversal: [3]Loop{LoopN, LoopF, LoopCB}},                                                  // 48 ∤ 64
		{NsTile: 16, FsTile: 16, NmTile: 5, FmTile: 8, CBmTile: 4, Traversal: [3]Loop{LoopN, LoopF, LoopCB}},                                                  // 5 ∤ 16
		{NsTile: 1, FsTile: 1, NmTile: 1, FmTile: 1, CBmTile: 1, Traversal: [3]Loop{LoopN, LoopF, LoopCB}},                                                    // 64·64 > 1024 PEs... (4096)
		{NsTile: 16, FsTile: 16, NmTile: 8, FmTile: 8, CBmTile: 4, Traversal: [3]Loop{LoopN, LoopN, LoopCB}},                                                  // dup loop
		{NsTile: 16, FsTile: 16, NmTile: 8, FmTile: 8, CBmTile: 4, Traversal: [3]Loop{LoopN, LoopF, LoopCB}, Scheme: CoarseLoad, CBLoadTile: 3, FLoadTile: 8}, // 3 ∤ 4
	}
	for i, m := range bad {
		if err := m.Validate(p, w); err == nil {
			t.Fatalf("bad mapping %d accepted: %v", i, m)
		}
	}
}

func TestWRAMConstraintEnforced(t *testing.T) {
	p := UPMEM()
	// Static scheme with a huge F tile: LUT resident bytes = CB·CT·Fs =
	// 256·16·1024 = 4 MB ≫ 64 KB.
	w := Workload{N: 1024, CB: 256, CT: 16, F: 1024, ElemBytes: 1}
	m := Mapping{NsTile: 1024, FsTile: 1024, NmTile: 8, FmTile: 8, CBmTile: 4,
		Traversal: [3]Loop{LoopN, LoopF, LoopCB}, Scheme: StaticLoad}
	if err := m.Validate(p, w); err == nil {
		t.Fatal("WRAM-violating static mapping accepted")
	}
}

func TestEventCountsBasic(t *testing.T) {
	p := UPMEM()
	w := Workload{N: 16, CB: 8, CT: 4, F: 16, ElemBytes: 1}
	m := Mapping{NsTile: 16, FsTile: 16, NmTile: 4, FmTile: 4, CBmTile: 2,
		Traversal: [3]Loop{LoopN, LoopF, LoopCB},
		Scheme:    FineLoad, FLoadTile: 4}
	if err := m.Validate(p, w); err != nil {
		t.Fatal(err)
	}
	ev := countEvents(p, w, m)
	// Reduce work is exactly Ns·CB·Fs.
	if ev.ReduceElems != 16*8*16 {
		t.Fatalf("reduce elems %d", ev.ReduceElems)
	}
	// Fine-grain LUT traffic touches exactly the used elements.
	if ev.LUTLoadBytes != 16*8*16 {
		t.Fatalf("fine LUT bytes %d", ev.LUTLoadBytes)
	}
	if ev.LUTLoadOps != 16*8*16/4 {
		t.Fatalf("fine LUT ops %d", ev.LUTLoadOps)
	}
	// Index tiles: trips = (4,4,4); deepest loop touching {N,CB} is CB
	// (innermost) → visits = 4·4·4 = 64 tiles of 4·2 bytes.
	if ev.IndexLoadBytes != 64*8 {
		t.Fatalf("index bytes %d", ev.IndexLoadBytes)
	}
	// Output: deepest of {N,F} is F at position 1 → visits = 16; distinct
	// tiles = 16, so zero loads and 16 stores... but CB is inner, so the
	// tile is visited once and accumulated in place: stores = visits = 16.
	if ev.OutLoadBytes != 0 {
		t.Fatalf("out load bytes %d (CB innermost should keep tile resident)", ev.OutLoadBytes)
	}
	if ev.OutStoreBytes != 16*4*4*4 {
		t.Fatalf("out store bytes %d", ev.OutStoreBytes)
	}
}

func TestTraversalOrderChangesTraffic(t *testing.T) {
	p := UPMEM()
	w := Workload{N: 64, CB: 16, CT: 8, F: 64, ElemBytes: 1}
	base := Mapping{NsTile: 64, FsTile: 64, NmTile: 8, FmTile: 8, CBmTile: 4,
		Scheme: CoarseLoad, CBLoadTile: 1, FLoadTile: 8}
	mCBInner := base
	mCBInner.Traversal = [3]Loop{LoopN, LoopF, LoopCB}
	mCBOuter := base
	mCBOuter.Traversal = [3]Loop{LoopCB, LoopN, LoopF}
	evInner := countEvents(p, w, mCBInner)
	evOuter := countEvents(p, w, mCBOuter)
	// With CB outermost the output tile is revisited per CB tile, forcing
	// load/store churn that the CB-inner order avoids.
	if evOuter.OutLoadBytes <= evInner.OutLoadBytes {
		t.Fatalf("expected CB-outer to move more output bytes: %d vs %d",
			evOuter.OutLoadBytes, evInner.OutLoadBytes)
	}
}

func TestStaticLoadsLUTOnce(t *testing.T) {
	p := UPMEM()
	w := Workload{N: 256, CB: 16, CT: 8, F: 64, ElemBytes: 1}
	m := Mapping{NsTile: 64, FsTile: 8, NmTile: 8, FmTile: 8, CBmTile: 4,
		Traversal: [3]Loop{LoopN, LoopF, LoopCB}, Scheme: StaticLoad}
	if err := m.Validate(p, w); err != nil {
		t.Fatal(err)
	}
	ev := countEvents(p, w, m)
	if ev.LUTLoadBytes != int64(w.CB*w.CT*m.FsTile*w.ElemBytes) {
		t.Fatalf("static LUT bytes %d", ev.LUTLoadBytes)
	}
}

func TestTimingPositiveAndDecomposed(t *testing.T) {
	w, idx, tbl, _ := testKernel(4, 64, 16, 32, 2, 8)
	p := UPMEM()
	m := defaultMapping(w, 16, 8)
	res, err := ExecuteLUT(p, w, m, idx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm.HostIndex <= 0 || tm.HostLUT <= 0 || tm.HostOutput <= 0 {
		t.Fatalf("host transfer times must be positive: %+v", tm)
	}
	if tm.KernelRed <= 0 || tm.KernelXfer <= 0 {
		t.Fatalf("kernel times must be positive: %+v", tm)
	}
	if tm.Total() != tm.Sub()+tm.Kernel() {
		t.Fatal("total != sub + kernel")
	}
}

func TestMorePEsReduceKernelTime(t *testing.T) {
	w, idx, tbl, _ := testKernel(5, 128, 16, 64, 2, 8)
	p := UPMEM()
	few := defaultMapping(w, 128, 64) // 1 PE
	many := defaultMapping(w, 16, 8)  // 64 PEs
	r1, err := ExecuteLUT(p, w, few, idx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExecuteLUT(p, w, many, idx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Timing.Kernel() >= r1.Timing.Kernel() {
		t.Fatalf("64 PEs (%.3g s) not faster than 1 PE (%.3g s)",
			r2.Timing.Kernel(), r1.Timing.Kernel())
	}
}

func TestHostTransferModes(t *testing.T) {
	p := UPMEM()
	b := p.HostTransferTime(1e6, Broadcast)
	s := p.HostTransferTime(1e6, Scatter)
	g := p.HostTransferTime(1e6, Gather)
	if !(b < s && s < g) {
		t.Fatalf("expected broadcast < scatter < gather, got %g %g %g", b, s, g)
	}
	if p.HostTransferTime(0, Broadcast) != 0 {
		t.Fatal("zero bytes should cost zero")
	}
}

func TestLocalTransferSetupPenalty(t *testing.T) {
	p := UPMEM()
	// Same bytes in one DMA vs 1000 DMAs: many small ops must be slower.
	one := p.LocalTransferTime(64_000, 1)
	many := p.LocalTransferTime(64_000, 1000)
	if many <= one {
		t.Fatal("per-op setup not penalized")
	}
}

func TestFineLoadReducePenalty(t *testing.T) {
	p := UPMEM()
	if p.ReduceTime(1000, FineLoad) <= p.ReduceTime(1000, StaticLoad) {
		t.Fatal("fine-grain reduce should cost extra cycles")
	}
}

func TestGEMMOnPIMScalesWithWork(t *testing.T) {
	p := UPMEM()
	small := GEMMOnPIM(p, GEMMWorkload{N: 512, H: 768, F: 768, Batch: 1, ElemBytes: 1})
	big := GEMMOnPIM(p, GEMMWorkload{N: 4096, H: 768, F: 768, Batch: 8, ElemBytes: 1})
	if big.Total() <= small.Total() {
		t.Fatal("8× work should take longer")
	}
}

func TestGEMMBatchPenaltyOnGEMVPlatforms(t *testing.T) {
	p := HBMPIM()
	// Same total rows, different batch composition: larger batch pays the
	// GEMV penalty (paper Fig. 14's trend).
	b1 := GEMMOnPIM(p, GEMMWorkload{N: 1024, H: 1024, F: 1024, Batch: 1, ElemBytes: 2})
	b8 := GEMMOnPIM(p, GEMMWorkload{N: 1024, H: 1024, F: 1024, Batch: 8, ElemBytes: 2})
	if b8.Total() <= b1.Total() {
		t.Fatal("batch penalty missing on GEMV dataflow")
	}
	// UPMEM (weight-resident) has no such penalty.
	u := UPMEM()
	u1 := GEMMOnPIM(u, GEMMWorkload{N: 1024, H: 1024, F: 1024, Batch: 1, ElemBytes: 1})
	u8 := GEMMOnPIM(u, GEMMWorkload{N: 1024, H: 1024, F: 1024, Batch: 8, ElemBytes: 1})
	if u1.Total() != u8.Total() {
		t.Fatal("UPMEM should be batch-insensitive at fixed N")
	}
}

func TestPIMDLBeatsGEMMOnPIM(t *testing.T) {
	// The headline result (22.6×–37.1×): the LUT operator must be much
	// faster than GEMM-on-PIM for a BERT-base-like layer on UPMEM.
	p := UPMEM()
	n, h, f := 4096, 768, 768
	v, ct := 4, 16
	w := Workload{N: n, CB: h / v, CT: ct, F: f, ElemBytes: 1}
	m := Mapping{NsTile: n / 128, FsTile: f / 8, NmTile: 8, FmTile: 32, CBmTile: 16,
		Traversal: [3]Loop{LoopN, LoopF, LoopCB},
		Scheme:    CoarseLoad, CBLoadTile: 1, FLoadTile: 32}
	if err := m.Validate(p, w); err != nil {
		t.Fatal(err)
	}
	ev := countEvents(p, w, m)
	lut := timing(p, w, m, ev).Total()
	gemm := GEMMOnPIM(p, GEMMWorkload{N: n, H: h, F: f, Batch: 8, ElemBytes: 1}).Total()
	if gemm/lut < 4 {
		t.Fatalf("PIM-DL speedup over GEMM-on-PIM only %.1f×", gemm/lut)
	}
}

func TestExecuteLUTRejectsBadInputs(t *testing.T) {
	w, idx, tbl, _ := testKernel(6, 16, 8, 16, 2, 4)
	p := UPMEM()
	m := defaultMapping(w, 8, 8)
	// Wrong index length.
	if _, err := ExecuteLUT(p, w, m, idx[:10], tbl); err == nil {
		t.Fatal("short index accepted")
	}
	// Wrong workload shape.
	w2 := w
	w2.CT = 99
	if _, err := ExecuteLUT(p, w2, m, idx, tbl); err == nil {
		t.Fatal("mismatched CT accepted")
	}
	// Non-dividing sub-tile.
	m2 := m
	m2.NsTile = 5
	if _, err := ExecuteLUT(p, w, m2, idx, tbl); err == nil {
		t.Fatal("non-dividing tile accepted")
	}
}

func TestReduceElemsInvariantAcrossMappings(t *testing.T) {
	// Total reduce work across all PEs is mapping-invariant: N·CB·F.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := Workload{N: 32, CB: 8, CT: 4, F: 32, ElemBytes: 1}
		p := UPMEM()
		ns := []int{1, 2, 4, 8, 16, 32}[rng.Intn(6)]
		fs := []int{1, 2, 4, 8, 16, 32}[rng.Intn(6)]
		m := Mapping{NsTile: ns, FsTile: fs, NmTile: 1, FmTile: 1, CBmTile: 1,
			Traversal: [3]Loop{LoopN, LoopF, LoopCB}, Scheme: FineLoad, FLoadTile: 1}
		if m.PEs(w) > p.NumPE {
			return true
		}
		ev := countEvents(p, w, m)
		total := ev.ReduceElems * int64(m.PEs(w))
		return total == int64(w.N)*int64(w.CB)*int64(w.F)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPlatformPresetsSane(t *testing.T) {
	for _, p := range []*Platform{UPMEM(), HBMPIM(), AiM()} {
		if p.NumPE <= 0 || p.FreqHz <= 0 || p.WRAMBytes <= 0 {
			t.Fatalf("%s: bad basic params", p.Name)
		}
		if p.BroadcastBW < p.ScatterBW {
			t.Fatalf("%s: broadcast should be fastest", p.Name)
		}
	}
	// Cross-platform ordering from Table 1: AiM > HBM-PIM > UPMEM in
	// aggregate internal bandwidth.
	u, h, a := UPMEM(), HBMPIM(), AiM()
	uBW := u.LocalBWPerPE * float64(u.NumPE)
	hBW := h.LocalBWPerPE * float64(h.NumPE)
	aBW := a.LocalBWPerPE * float64(a.NumPE)
	if !(uBW < hBW && hBW < aBW) {
		t.Fatalf("bandwidth ordering wrong: %g %g %g", uBW, hBW, aBW)
	}
}
