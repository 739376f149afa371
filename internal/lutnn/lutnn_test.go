package lutnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randActs(rng *rand.Rand, n, h int) *tensor.Tensor {
	return tensor.RandN(rng, 1, n, h)
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{V: 2, CT: 16}).Validate(768); err != nil {
		t.Fatal(err)
	}
	if err := (Params{V: 5, CT: 16}).Validate(768); err == nil {
		t.Fatal("V=5 should not divide 768")
	}
	if err := (Params{V: 2, CT: 300}).Validate(768); err == nil {
		t.Fatal("CT=300 should exceed uint8 range")
	}
	if err := (Params{V: 0, CT: 16}).Validate(768); err == nil {
		t.Fatal("V=0 should be rejected")
	}
}

func TestBuildCodebooksShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	acts := randActs(rng, 64, 32)
	c, err := BuildCodebooks(acts, Params{V: 4, CT: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.CB != 8 || c.CT != 8 || c.V != 4 {
		t.Fatalf("bad codebook dims %+v", c)
	}
	if len(c.Data) != 8*8*4 {
		t.Fatalf("bad codebook storage %d", len(c.Data))
	}
}

func TestSearchReturnsNearestCentroid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	acts := randActs(rng, 32, 16)
	c, err := BuildCodebooks(acts, Params{V: 2, CT: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx := c.Search(acts)
	// Verify via brute-force L2.
	for i := 0; i < 32; i++ {
		for cb := 0; cb < c.CB; cb++ {
			tile := acts.Row(i)[cb*2 : cb*2+2]
			best, bd := -1, float32(math.MaxFloat32)
			for ct := 0; ct < 4; ct++ {
				cent := c.Centroid(cb, ct)
				d := (tile[0]-cent[0])*(tile[0]-cent[0]) + (tile[1]-cent[1])*(tile[1]-cent[1])
				if d < bd {
					bd = d
					best = ct
				}
			}
			if int(idx[i*c.CB+cb]) != best {
				// Inner-product CCS may tie-break differently; accept only
				// if the distances are equal.
				got := c.Centroid(cb, int(idx[i*c.CB+cb]))
				dg := (tile[0]-got[0])*(tile[0]-got[0]) + (tile[1]-got[1])*(tile[1]-got[1])
				if math.Abs(float64(dg-bd)) > 1e-5 {
					t.Fatalf("row %d cb %d: got centroid %d (d=%g), want %d (d=%g)",
						i, cb, idx[i*c.CB+cb], dg, best, bd)
				}
			}
		}
	}
}

func TestApproximateReducesWithMoreCentroids(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	acts := randActs(rng, 256, 16)
	var prev float64 = math.Inf(1)
	for _, ct := range []int{2, 4, 16, 64} {
		c, err := BuildCodebooks(acts, Params{V: 2, CT: ct}, 5)
		if err != nil {
			t.Fatal(err)
		}
		e := c.ApproximationError(acts)
		if e > prev*1.1 { // allow small k-means noise
			t.Fatalf("error grew from %g to %g at CT=%d", prev, e, ct)
		}
		prev = e
	}
}

func TestLUTNNMatchesGEMMWhenActivationsAreCentroids(t *testing.T) {
	// If every activation sub-vector is exactly a centroid, LUT-NN must be
	// exact (up to float addition order).
	rng := rand.New(rand.NewSource(6))
	const n, h, f, v, ct = 16, 8, 12, 2, 4
	c, err := BuildCodebooks(randActs(rng, 64, h), Params{V: v, CT: ct}, 7)
	if err != nil {
		t.Fatal(err)
	}
	acts := tensor.New(n, h)
	for i := 0; i < n; i++ {
		for cb := 0; cb < c.CB; cb++ {
			copy(acts.Row(i)[cb*v:(cb+1)*v], c.Centroid(cb, rng.Intn(ct)))
		}
	}
	w := tensor.RandN(rng, 1, f, h)
	lut, err := BuildLUT(c, w)
	if err != nil {
		t.Fatal(err)
	}
	got := lut.Lookup(c.Search(acts), n)
	want := tensor.MatMulT(acts, w)
	if tensor.MaxAbsDiff(got, want) > 1e-4 {
		t.Fatalf("exact-centroid inputs should be exact, max diff %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestLUTNNApproximatesGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, h, f = 128, 32, 24
	acts := randActs(rng, n, h)
	w := tensor.RandN(rng, 1, f, h)
	layer, err := Convert(w, nil, acts, Params{V: 2, CT: 64}, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := layer.Forward(acts)
	want := ForwardExact(acts, w, nil)
	if e := tensor.RelativeError(got, want); e > 0.35 {
		t.Fatalf("LUT-NN error too high: %g", e)
	}
}

func TestLUTEqualsApproximateGEMMExactly(t *testing.T) {
	// Table lookup must equal GEMM on the *approximated* activations:
	// LUT(idx) ≡ Â·Wᵀ by construction.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, h, fdim := 8+rng.Intn(8), 8, 6
		acts := randActs(rng, n, h)
		c, err := BuildCodebooks(acts, Params{V: 2, CT: 4}, seed)
		if err != nil {
			return false
		}
		w := tensor.RandN(rng, 1, fdim, h)
		lut, err := BuildLUT(c, w)
		if err != nil {
			return false
		}
		idx := c.Search(acts)
		viaLUT := lut.Lookup(idx, n)
		viaGEMM := tensor.MatMulT(c.Approximate(acts, idx), w)
		return tensor.MaxAbsDiff(viaLUT, viaGEMM) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizedLUTCloseToFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, h, f = 64, 16, 32
	acts := randActs(rng, n, h)
	w := tensor.RandN(rng, 1, f, h)
	layer, err := Convert(w, nil, acts, Params{V: 2, CT: 16}, 11)
	if err != nil {
		t.Fatal(err)
	}
	fl := layer.Forward(acts)
	layer.EnableINT8()
	qt := layer.Forward(acts)
	if e := tensor.RelativeError(qt, fl); e > 0.05 {
		t.Fatalf("INT8 LUT deviates %g from FP32 (paper: ≤0.1%% accuracy impact)", e)
	}
}

func TestLayerBiasApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, h, f = 8, 8, 4
	acts := randActs(rng, n, h)
	w := tensor.RandN(rng, 1, f, h)
	bias := tensor.RandN(rng, 1, f)
	withBias, err := Convert(w, bias, acts, Params{V: 2, CT: 8}, 13)
	if err != nil {
		t.Fatal(err)
	}
	noBias, err := Convert(w, nil, acts, Params{V: 2, CT: 8}, 13)
	if err != nil {
		t.Fatal(err)
	}
	diff := tensor.Sub(withBias.Forward(acts), noBias.Forward(acts))
	for i := 0; i < n; i++ {
		for j := 0; j < f; j++ {
			if math.Abs(float64(diff.At(i, j)-bias.Data[j])) > 1e-5 {
				t.Fatalf("bias not applied at (%d,%d)", i, j)
			}
		}
	}
}

func TestRebuildTableTracksCodebookChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n, h, f = 32, 8, 8
	acts := randActs(rng, n, h)
	w := tensor.RandN(rng, 1, f, h)
	layer, err := Convert(w, nil, acts, Params{V: 2, CT: 8}, 15)
	if err != nil {
		t.Fatal(err)
	}
	before := layer.Forward(acts).Clone()
	// Perturb one centroid; without rebuild the table is stale.
	layer.Codebooks.Data[0] += 10
	if err := layer.RebuildTable(w); err != nil {
		t.Fatal(err)
	}
	after := layer.Forward(acts)
	if tensor.Equal(before, after) {
		t.Fatal("rebuilt table should reflect centroid change")
	}
	// And the rebuilt table must still equal GEMM on approximated acts.
	idx := layer.Codebooks.Search(acts)
	want := tensor.MatMulT(layer.Codebooks.Approximate(acts, idx), w)
	if tensor.MaxAbsDiff(layer.Table.Lookup(idx, n), want) > 1e-4 {
		t.Fatal("rebuilt table inconsistent with codebooks")
	}
}

func TestFLOPModelMatchesPaperNumbers(t *testing.T) {
	// Fig. 3 uses N=H=F=1024; the paper reports 3.66×–18.29× reduction
	// across the sweep and multiplications at 2.9%–14.3% of total ops.
	const n, h, f = 1024, 1024, 1024
	minRed, maxRed := math.Inf(1), 0.0
	consider := func(v, ct int) {
		r := Reduction(n, h, f, v, ct)
		if r < minRed {
			minRed = r
		}
		if r > maxRed {
			maxRed = r
		}
		ops := LUTNNOps(n, h, f, v, ct)
		mulFrac := float64(ops.Muls) / float64(ops.Total())
		if mulFrac < 0.02 || mulFrac > 0.16 {
			t.Fatalf("V=%d CT=%d: mul fraction %.3f outside paper range 2.9%%–14.3%%", v, ct, mulFrac)
		}
	}
	for _, v := range []int{2, 4, 8, 16} {
		consider(v, 16)
	}
	for _, ct := range []int{64, 32, 16, 8} {
		consider(4, ct)
	}
	if math.Abs(minRed-3.66) > 0.05 {
		t.Fatalf("min reduction %.2f, paper says 3.66", minRed)
	}
	if math.Abs(maxRed-18.29) > 0.1 {
		t.Fatalf("max reduction %.2f, paper says 18.29", maxRed)
	}
}

func TestArithmeticIntensityMemoryBound(t *testing.T) {
	// BERT-base FFN1 with batch 64 × seq 512, V=2, FP32 tables: the AI must
	// land in the paper's measured 0.204–0.288 window.
	n, h, f := 64*512, 768, 3072
	ai := ArithmeticIntensity(n, h/2, f, 4)
	if ai < 0.20 || ai > 0.29 {
		t.Fatalf("AI = %.3f, want within paper's 0.204–0.288", ai)
	}
}

func TestGEMMOpsSymmetric(t *testing.T) {
	ops := GEMMOps(10, 20, 30)
	if ops.Muls != ops.Adds || ops.Total() != 2*10*20*30 {
		t.Fatalf("bad GEMM ops %+v", ops)
	}
}

func TestTrafficAccounting(t *testing.T) {
	tr := LUTKernelTraffic(4, 3, 5, 1)
	if tr.IndexBytes != 12 {
		t.Fatalf("index bytes %d", tr.IndexBytes)
	}
	if tr.LUTBytes != 4*3*5 {
		t.Fatalf("lut bytes %d", tr.LUTBytes)
	}
	if tr.OutputBytes != 4*5*4 {
		t.Fatalf("output bytes %d", tr.OutputBytes)
	}
	if tr.Total() != tr.IndexBytes+tr.LUTBytes+tr.OutputBytes {
		t.Fatal("total mismatch")
	}
}

func TestLUTSizeBytes(t *testing.T) {
	l := &LUT{CB: 2, CT: 3, F: 4, Data: make([]float32, 24)}
	if l.SizeBytes(4) != 96 || l.SizeBytes(1) != 24 {
		t.Fatal("bad size accounting")
	}
}

func TestConvertRejectsBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	acts := randActs(rng, 8, 10) // width 10 not divisible by V=4
	w := tensor.RandN(rng, 1, 4, 10)
	if _, err := Convert(w, nil, acts, Params{V: 4, CT: 4}, 1); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSearchParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	acts := randActs(rng, 512, 32)
	c, err := BuildCodebooks(acts, Params{V: 4, CT: 16}, 41)
	if err != nil {
		t.Fatal(err)
	}
	serial := c.searchSerial(acts)
	parallel := c.Search(acts)
	if len(serial) != len(parallel) {
		t.Fatal("length mismatch")
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d differs: %d vs %d", i, serial[i], parallel[i])
		}
	}
}
