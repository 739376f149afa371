package pim

import (
	"errors"
	"testing"

	"repro/internal/tensor"
)

// seedMatrix is the fixed seed set the fault suite sweeps (make
// test-faults); determinism claims are asserted per seed.
var seedMatrix = []int64{1, 2, 3, 5, 8, 13}

// TestZeroFaultPlanByteIdentical is the golden regression: a zero plan
// must take the exact fault-free code path — byte-identical outputs, the
// unchanged SimTiming, and no Recovery report.
func TestZeroFaultPlanByteIdentical(t *testing.T) {
	w, idx, tbl, _ := testKernel(1, 64, 16, 32, 2, 8)
	p := UPMEM()
	m := defaultMapping(w, 8, 8)
	base, err := ExecuteLUT(p, w, m, idx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteLUTWithFaults(p, w, m, idx, tbl, FaultPlan{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(res.Output, base.Output) {
		t.Fatal("zero plan changed the output")
	}
	if res.Recovery != nil {
		t.Fatal("zero plan produced a Recovery report")
	}
	if res.Timing != base.Timing {
		t.Fatalf("zero plan changed timing: %+v vs %+v", res.Timing, base.Timing)
	}
	ft, err := SimTimingWithFaults(p, w, m, FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	if ft != SimTiming(p, w, m) {
		t.Fatal("zero plan changed SimTiming")
	}
}

// TestFaultRecoveryBitExact: with dead PEs and a nonzero flip rate whose
// corruptions all fall within the retry budget, recovery must bring the
// distributed output back to bit-exact agreement with the reference
// lookup (the oracle the clean executor is held to), and the Recovery
// counts must be deterministic and match the analytic prediction.
func TestFaultRecoveryBitExact(t *testing.T) {
	w, idx, tbl, _ := testKernel(2, 64, 16, 32, 2, 8)
	p := UPMEM()
	m := defaultMapping(w, 8, 8) // 32 PEs
	want := tbl.Lookup(idx, w.N)
	for _, seed := range seedMatrix {
		plan := FaultPlan{Seed: seed, DeadPEFraction: 0.5, FlipRate: 0.05}
		res, err := ExecuteLUTWithFaults(p, w, m, idx, tbl, plan)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rec := res.Recovery
		if rec == nil {
			t.Fatalf("seed %d: no Recovery report", seed)
		}
		if rec.ResidualCorrupt != 0 {
			t.Fatalf("seed %d: %d residual corruptions slipped past the retry budget", seed, rec.ResidualCorrupt)
		}
		if !tensor.Equal(res.Output, want) {
			t.Fatalf("seed %d: recovered output not bit-exact with reference", seed)
		}
		if rec.DeadPEs == 0 || rec.Redispatched != rec.DeadPEs {
			t.Fatalf("seed %d: expected dead PEs with matching re-dispatches, got %+v", seed, rec)
		}
		// Determinism: a second run reproduces the exact counts.
		res2, err := ExecuteLUTWithFaults(p, w, m, idx, tbl, plan)
		if err != nil {
			t.Fatal(err)
		}
		if *res2.Recovery != *rec {
			t.Fatalf("seed %d: Recovery not deterministic: %+v vs %+v", seed, *res2.Recovery, *rec)
		}
		// The analytic replay predicts the same counts without executing.
		pred, err := PlanRecovery(p, w, m, plan)
		if err != nil {
			t.Fatal(err)
		}
		if pred != *rec {
			t.Fatalf("seed %d: PlanRecovery %+v != executed %+v", seed, pred, *rec)
		}
	}
}

// TestFaultRecoveryInt8 runs the same recovery contract through the INT8
// executor.
func TestFaultRecoveryInt8(t *testing.T) {
	w, idx, tbl, _ := testKernel(3, 32, 16, 16, 4, 8)
	plan := FaultPlan{Seed: 7, DeadPEFraction: 0.5, FlipRate: 0.05}

	q := tbl.Quantize()
	wi := w
	wi.ElemBytes = 1
	p := UPMEM()
	m := defaultMapping(wi, 8, 8)
	res, err := ExecuteLUTInt8WithFaults(p, wi, m, idx, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.ResidualCorrupt != 0 || !tensor.Equal(res.Output, q.Lookup(idx, w.N)) {
		t.Fatalf("INT8 recovery failed: %+v", res.Recovery)
	}
}

// TestResidualCorruptionDiverges: with FlipRate 1 every retry fails too,
// so corruption must really land in the data — outputs diverge and the
// residual count is positive.
func TestResidualCorruptionDiverges(t *testing.T) {
	w, idx, tbl, _ := testKernel(4, 32, 16, 16, 2, 8)
	p := UPMEM()
	m := defaultMapping(w, 8, 8)
	plan := FaultPlan{Seed: 1, FlipRate: 1}
	res, err := ExecuteLUTWithFaults(p, w, m, idx, tbl, plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if rec.ResidualCorrupt == 0 {
		t.Fatal("FlipRate 1 produced no residual corruption")
	}
	if rec.Retries != MaxTransferRetries*3*(w.N/m.NsTile)*(w.F/m.FsTile) {
		t.Fatalf("retries %d: every transfer should exhaust the budget", rec.Retries)
	}
	if tensor.Equal(res.Output, tbl.Lookup(idx, w.N)) {
		t.Fatal("corrupted run still bit-exact with reference")
	}
}

// TestShrunkenArrayBitExact (re-dispatch path): dead PEs with a zero flip
// rate exercise only the shrunken-array re-run, which must stay bit-exact
// with the full-array result.
func TestShrunkenArrayBitExact(t *testing.T) {
	w, idx, tbl, _ := testKernel(5, 64, 16, 32, 2, 8)
	p := UPMEM()
	m := defaultMapping(w, 8, 8)
	full, err := ExecuteLUT(p, w, m, idx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seedMatrix {
		plan := FaultPlan{Seed: seed, DeadPEFraction: 0.7}
		res, err := ExecuteLUTWithFaults(p, w, m, idx, tbl, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(res.Output, full.Output) {
			t.Fatalf("seed %d: shrunken-array result differs from full array", seed)
		}
		if res.Recovery.Retries != 0 || res.Recovery.ResidualCorrupt != 0 {
			t.Fatalf("seed %d: zero flip rate produced transfer activity: %+v", seed, res.Recovery)
		}
	}
}

// TestRunPESetNonUniform drives the fan-out directly with a lopsided
// assignment (one PE owns most tiles) and checks full, disjoint coverage.
func TestRunPESetNonUniform(t *testing.T) {
	w, idx, tbl, _ := testKernel(6, 32, 16, 16, 2, 8)
	m := defaultMapping(w, 8, 8)
	tiles := tileList(w, m)
	assign := make([][]tile, 4)
	assign[0] = tiles[:len(tiles)-2] // PE 0 hoards almost everything
	assign[2] = tiles[len(tiles)-2:]
	out := tensor.New(w.N, w.F)
	runPESet(assign, func(pe int, ts []tile) {
		for _, tl := range ts {
			for r := tl.rowLo; r < tl.rowHi; r++ {
				dst := out.Row(r)[tl.colLo:tl.colHi]
				for cb := 0; cb < w.CB; cb++ {
					src := tbl.Slice(cb, int(idx[r*w.CB+cb]))[tl.colLo:tl.colHi]
					for f, v := range src {
						dst[f] += v
					}
				}
			}
		}
	})
	if !tensor.Equal(out, tbl.Lookup(idx, w.N)) {
		t.Fatal("non-uniform PE set did not cover the partition exactly")
	}
}

// TestIrrecoverablePlan: when the plan leaves fewer healthy PEs than the
// mapping needs, execution reports ErrIrrecoverable (the engine's cue to
// fall back to host GEMM).
func TestIrrecoverablePlan(t *testing.T) {
	w, idx, tbl, _ := testKernel(7, 64, 16, 32, 2, 8)
	p := UPMEM()
	p.NumPE = 32 // the mapping below uses all 32
	m := defaultMapping(w, 8, 8)
	plan := FaultPlan{Seed: 1, DeadPEFraction: 0.5}
	if _, err := ExecuteLUTWithFaults(p, w, m, idx, tbl, plan); !errors.Is(err, ErrIrrecoverable) {
		t.Fatalf("want ErrIrrecoverable, got %v", err)
	}
	if _, err := SimTimingWithFaults(p, w, m, plan); !errors.Is(err, ErrIrrecoverable) {
		t.Fatalf("SimTimingWithFaults: want ErrIrrecoverable, got %v", err)
	}
	if _, err := PlanRecovery(p, w, m, plan); !errors.Is(err, ErrIrrecoverable) {
		t.Fatalf("PlanRecovery: want ErrIrrecoverable, got %v", err)
	}
}

// TestFaultTimingMonotonic: stragglers and dead PEs must only ever slow
// the modelled kernel down, and re-dispatch rounds dominate stragglers.
func TestFaultTimingMonotonic(t *testing.T) {
	w, _, _, _ := testKernel(8, 64, 16, 32, 2, 8)
	p := UPMEM()
	m := defaultMapping(w, 8, 8)
	clean := SimTiming(p, w, m)
	strag, err := SimTimingWithFaults(p, w, m, FaultPlan{Seed: 3, StragglerSpread: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strag.Kernel() <= clean.Kernel() {
		t.Fatalf("straggler plan did not slow the kernel: %g vs %g", strag.Kernel(), clean.Kernel())
	}
	if strag.Sub() != clean.Sub() {
		t.Fatal("straggler-only plan should not change host transfer terms")
	}
	dead, err := SimTimingWithFaults(p, w, m, FaultPlan{Seed: 3, DeadPEFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if dead.Kernel() < 2*clean.Kernel() {
		t.Fatalf("re-dispatch should cost at least one extra round: %g vs %g", dead.Kernel(), clean.Kernel())
	}
	flip, err := SimTimingWithFaults(p, w, m, FaultPlan{Seed: 3, FlipRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if flip.Sub() <= clean.Sub() || flip.KernelXfer <= clean.KernelXfer {
		t.Fatal("retry inflation missing from transfer terms")
	}
}

// TestFaultPlanValidate rejects out-of-range parameters.
func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{DeadPEFraction: -0.1},
		{DeadPEFraction: 1},
		{FlipRate: -0.5},
		{FlipRate: 1.5},
		{StragglerSpread: -1},
	}
	for i, plan := range bad {
		if err := plan.Validate(); err == nil {
			t.Fatalf("bad plan %d accepted: %+v", i, plan)
		}
	}
	ok := FaultPlan{Seed: 9, DeadPEFraction: 0.3, FlipRate: 0.1, StragglerSpread: 2}
	if err := ok.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	seedOnly := FaultPlan{Seed: 5}
	if ok.IsZero() || !seedOnly.IsZero() {
		t.Fatal("IsZero wrong")
	}
	if _, err := (FaultPlan{DeadPEFraction: 0.5}).Instantiate(0); err == nil {
		t.Fatal("zero-PE instantiation accepted")
	}
}

// TestInstantiateDeterministic: the same plan always yields the same dead
// set and slowdowns, and respects the requested fraction.
func TestInstantiateDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 11, DeadPEFraction: 0.25, StragglerSpread: 0.5}
	a, err := plan.Instantiate(128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.Instantiate(128)
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for pe := range a.Dead {
		if a.Dead[pe] != b.Dead[pe] || a.Slowdown[pe] != b.Slowdown[pe] {
			t.Fatal("instantiation not deterministic")
		}
		if a.Dead[pe] {
			dead++
		}
		if a.Slowdown[pe] < 1 || a.Slowdown[pe] > 1.5 {
			t.Fatalf("slowdown %g outside [1, 1.5]", a.Slowdown[pe])
		}
	}
	if dead != 32 {
		t.Fatalf("dead %d, want 32", dead)
	}
	if a.Healthy() != 96 {
		t.Fatalf("healthy %d", a.Healthy())
	}
}
