package lutnn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestHashEncoderTrainShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	acts := tensor.RandN(rng, 1, 256, 16)
	e, err := TrainHashEncoder(acts, Params{V: 4, CT: 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.CB != 4 || e.Levels != 4 {
		t.Fatalf("bad encoder dims: CB=%d levels=%d", e.CB, e.Levels)
	}
	for c := 0; c < e.CB; c++ {
		for l := 0; l < e.Levels; l++ {
			if len(e.Threshold[c][l]) != 1<<l {
				t.Fatalf("level %d has %d thresholds", l, len(e.Threshold[c][l]))
			}
			if d := e.SplitDim[c][l]; d < 0 || d >= e.V {
				t.Fatalf("bad split dim %d", d)
			}
		}
	}
}

func TestHashEncoderRejectsNonPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	acts := tensor.RandN(rng, 1, 32, 8)
	if _, err := TrainHashEncoder(acts, Params{V: 2, CT: 12}, 3); err == nil {
		t.Fatal("CT=12 accepted")
	}
}

func TestHashEncodeValidIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	acts := tensor.RandN(rng, 1, 128, 16)
	e, err := TrainHashEncoder(acts, Params{V: 4, CT: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	idx := e.Encode(acts)
	if len(idx) != 128*4 {
		t.Fatalf("index length %d", len(idx))
	}
	for _, v := range idx {
		if int(v) >= 8 {
			t.Fatalf("index %d out of range", v)
		}
	}
}

func TestHashBalancedSplits(t *testing.T) {
	// Median thresholds keep leaf occupancy roughly balanced on the
	// training data: no leaf should hold more than 4x its fair share.
	rng := rand.New(rand.NewSource(4))
	const n = 512
	acts := tensor.RandN(rng, 1, n, 8)
	e, err := TrainHashEncoder(acts, Params{V: 4, CT: 16}, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx := e.Encode(acts)
	counts := make([]int, 16)
	for i := 0; i < n; i++ {
		counts[idx[i*e.CB+0]]++
	}
	fair := n / 16
	for leaf, c := range counts {
		if c > 4*fair {
			t.Fatalf("leaf %d holds %d of %d points (fair %d)", leaf, c, n, fair)
		}
	}
}

func TestHashApproximationBeatsSinglePrototype(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	acts := tensor.RandN(rng, 1, 512, 16)
	e16, err := TrainHashEncoder(acts, Params{V: 4, CT: 16}, 6)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := TrainHashEncoder(acts, Params{V: 4, CT: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if e16.ApproximationError(acts) >= e1.ApproximationError(acts) {
		t.Fatal("16 leaves should beat 1 leaf")
	}
}

func TestHashVsKMeansTradeoff(t *testing.T) {
	// The documented trade-off: hash encoding costs far fewer host ops but
	// approximates no better than exact-CCS K-means.
	rng := rand.New(rand.NewSource(6))
	acts := tensor.RandN(rng, 1, 512, 16)
	p := Params{V: 4, CT: 16}
	e, err := TrainHashEncoder(acts, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	cbs, err := BuildCodebooks(acts, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	hashErr := e.ApproximationError(acts)
	kmErr := cbs.ApproximationError(acts)
	t.Logf("hash err %.3f vs kmeans err %.3f", hashErr, kmErr)
	if hashErr < kmErr*0.9 {
		t.Fatal("hash encoding should not beat exact CCS k-means")
	}
	if hashErr > kmErr*2.0 {
		t.Fatalf("hash encoding catastrophically worse: %.3f vs %.3f", hashErr, kmErr)
	}
	// Host-op advantage: comparisons only — here 3·H·CT/(CB·log2 CT) =
	// 48x fewer ops than exact CCS; require at least 20x.
	hashOps := e.EncodeOps(512).Total()
	ccsOps := CCSOps(512, 16, 16).Total()
	if hashOps*20 > ccsOps {
		t.Fatalf("hash ops %d not ≪ CCS ops %d", hashOps, ccsOps)
	}
}

func TestHashTableLookupConsistent(t *testing.T) {
	// Lookup through the hash encoder's table must equal GEMM on the
	// prototype-approximated activations (same invariant as exact LUT-NN).
	rng := rand.New(rand.NewSource(7))
	const n, h, f = 64, 8, 12
	acts := tensor.RandN(rng, 1, n, h)
	e, err := TrainHashEncoder(acts, Params{V: 2, CT: 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := tensor.RandN(rng, 1, f, h)
	tbl, err := BuildLUT(e.Protos, w)
	if err != nil {
		t.Fatal(err)
	}
	idx := e.Encode(acts)
	viaLUT := tbl.Lookup(idx, n)
	viaGEMM := tensor.MatMulT(e.Protos.Approximate(acts, idx), w)
	if tensor.MaxAbsDiff(viaLUT, viaGEMM) > 1e-4 {
		t.Fatal("hash LUT inconsistent with prototypes")
	}
}

func TestHashEncoderClusteredData(t *testing.T) {
	// On strongly clustered data the tree should recover most structure:
	// error well below the data's noise-free norm ratio.
	rng := rand.New(rand.NewSource(8))
	const n, h = 512, 8
	protos := tensor.RandN(rng, 2, 16, h)
	acts := tensor.New(n, h)
	for i := 0; i < n; i++ {
		p := protos.Row(rng.Intn(16))
		row := acts.Row(i)
		for j := range row {
			row[j] = p[j] + float32(rng.NormFloat64()*0.1)
		}
	}
	e, err := TrainHashEncoder(acts, Params{V: 4, CT: 16}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if errVal := e.ApproximationError(acts); errVal > 0.5 {
		t.Fatalf("hash encoder failed on clustered data: err %.3f", errVal)
	}
}
