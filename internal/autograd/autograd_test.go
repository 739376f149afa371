package autograd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numGradCheck compares the analytic gradient of loss(params...) w.r.t.
// each parameter against a central finite difference.
func numGradCheck(t *testing.T, params []*Value, loss func() *Value, tol float64) {
	t.Helper()
	l := loss()
	for _, p := range params {
		p.ZeroGrad()
	}
	l.Backward()
	analytic := make([][]float32, len(params))
	for i, p := range params {
		analytic[i] = append([]float32(nil), p.ensureGrad().Data...)
	}
	const h = 1e-3
	for pi, p := range params {
		for j := range p.T.Data {
			orig := p.T.Data[j]
			p.T.Data[j] = orig + h
			lp := float64(loss().T.Data[0])
			p.T.Data[j] = orig - h
			lm := float64(loss().T.Data[0])
			p.T.Data[j] = orig
			num := (lp - lm) / (2 * h)
			got := float64(analytic[pi][j])
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %d elem %d: analytic %g vs numeric %g", pi, j, got, num)
			}
		}
	}
}

func TestMatMulTGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewParam(tensor.RandN(rng, 0.5, 3, 4))
	b := NewParam(tensor.RandN(rng, 0.5, 5, 4))
	numGradCheck(t, []*Value{a, b}, func() *Value {
		return SumSquares(MatMulT(a, b))
	}, 1e-2)
}

func TestAddSubScaleGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewParam(tensor.RandN(rng, 0.5, 2, 3))
	b := NewParam(tensor.RandN(rng, 0.5, 2, 3))
	numGradCheck(t, []*Value{a, b}, func() *Value {
		return SumSquares(Scale(Add(Add(a, b), Scale(Sub(a, b), 0.3)), 0.7))
	}, 1e-2)
}

func TestAddBiasGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewParam(tensor.RandN(rng, 0.5, 3, 4))
	bias := NewParam(tensor.RandN(rng, 0.5, 4))
	numGradCheck(t, []*Value{a, bias}, func() *Value {
		return SumSquares(AddBias(a, bias))
	}, 1e-2)
}

func TestGELUGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewParam(tensor.RandN(rng, 1, 2, 5))
	numGradCheck(t, []*Value{a}, func() *Value {
		return SumSquares(GELU(a))
	}, 2e-2)
}

func TestLayerNormGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := NewParam(tensor.RandN(rng, 1, 3, 6))
	gamma := NewParam(tensor.RandU(rng, 0.5, 1.5, 6))
	beta := NewParam(tensor.RandN(rng, 0.5, 6))
	numGradCheck(t, []*Value{a, gamma, beta}, func() *Value {
		return SumSquares(LayerNorm(a, gamma, beta, 1e-5))
	}, 3e-2)
}

func TestEmbeddingGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	table := NewParam(tensor.RandN(rng, 0.5, 5, 3))
	ids := []int{0, 2, 2, 4}
	numGradCheck(t, []*Value{table}, func() *Value {
		return SumSquares(Embedding(table, ids))
	}, 1e-2)
}

func TestPoolRowGroupsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewParam(tensor.RandN(rng, 0.5, 6, 3))
	numGradCheck(t, []*Value{a}, func() *Value {
		return SumSquares(PoolRowGroups(a, 3))
	}, 1e-2)
}

func TestCrossEntropyGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := NewParam(tensor.RandN(rng, 1, 4, 3))
	labels := []int{0, 2, 1, 1}
	numGradCheck(t, []*Value{logits}, func() *Value {
		return CrossEntropyLogits(logits, labels)
	}, 1e-2)
}

func TestAttentionGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const seq, heads, hidden = 3, 2, 4
	q := NewParam(tensor.RandN(rng, 0.5, 2*seq, hidden))
	k := NewParam(tensor.RandN(rng, 0.5, 2*seq, hidden))
	v := NewParam(tensor.RandN(rng, 0.5, 2*seq, hidden))
	numGradCheck(t, []*Value{q, k, v}, func() *Value {
		return SumSquares(MultiHeadAttention(q, k, v, seq, heads))
	}, 3e-2)
}

func TestSTEPassesGradientThrough(t *testing.T) {
	a := NewParam(tensor.FromSlice([]float32{1, 2, 3}, 1, 3))
	// Forward value is something entirely different (a "quantized" version).
	forward := tensor.FromSlice([]float32{10, 20, 30}, 1, 3)
	out := STE(forward, a)
	loss := SumSquares(out)
	loss.Backward()
	// dLoss/dout = 2*out; STE passes it straight to a.
	want := []float32{20, 40, 60}
	for i, w := range want {
		if a.Grad.Data[i] != w {
			t.Fatalf("grad[%d] = %v, want %v", i, a.Grad.Data[i], w)
		}
	}
	if out.T.Data[0] != 10 {
		t.Fatal("STE forward value must be the supplied tensor")
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewParam(tensor.New(2, 2)).Backward()
}

func TestGradAccumulatesAcrossUses(t *testing.T) {
	a := NewParam(tensor.FromSlice([]float32{2}, 1, 1))
	// loss = a² + a² = 2a² → dloss/da = 4a = 8
	loss := Add(SumSquares(a), SumSquares(a))
	loss.Backward()
	if a.Grad.Data[0] != 8 {
		t.Fatalf("grad = %v, want 8", a.Grad.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ‖x − target‖² from a bad start.
	x := NewParam(tensor.FromSlice([]float32{5, -3, 2}, 1, 3))
	target := NewConst(tensor.FromSlice([]float32{1, 1, 1}, 1, 3))
	opt := NewAdam(0.1, x)
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		SumSquares(Sub(x, target)).Backward()
		opt.Step()
	}
	for i, v := range x.T.Data {
		if math.Abs(float64(v)-1) > 1e-2 {
			t.Fatalf("x[%d] = %v, want ≈1", i, v)
		}
	}
}

func TestAdamGradClipping(t *testing.T) {
	x := NewParam(tensor.FromSlice([]float32{100}, 1, 1))
	opt := NewAdam(0.01, x)
	opt.ClipMax = 1
	opt.ZeroGrad()
	SumSquares(x).Backward() // grad = 200
	opt.Step()
	if math.Abs(float64(x.Grad.Data[0])) > 1.0001 {
		t.Fatalf("clipped grad = %v, want ≤1", x.Grad.Data[0])
	}
}

func TestCausalAttentionIgnoresFuture(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const seq, heads, hidden = 4, 2, 4
	q := NewConst(tensor.RandN(rng, 0.5, seq, hidden))
	k := NewConst(tensor.RandN(rng, 0.5, seq, hidden))
	v := NewConst(tensor.RandN(rng, 0.5, seq, hidden))
	out1 := MultiHeadAttentionCausal(q, k, v, seq, heads)
	// Perturb the LAST position's K and V: earlier outputs must not move.
	k2 := NewConst(k.T.Clone())
	v2 := NewConst(v.T.Clone())
	for j := 0; j < hidden; j++ {
		k2.T.Set(k2.T.At(seq-1, j)+5, seq-1, j)
		v2.T.Set(v2.T.At(seq-1, j)-3, seq-1, j)
	}
	out2 := MultiHeadAttentionCausal(q, k2, v2, seq, heads)
	for i := 0; i < seq-1; i++ {
		for j := 0; j < hidden; j++ {
			if out1.T.At(i, j) != out2.T.At(i, j) {
				t.Fatalf("position %d saw the future", i)
			}
		}
	}
	// The last position must change (it attends to itself).
	same := true
	for j := 0; j < hidden; j++ {
		if out1.T.At(seq-1, j) != out2.T.At(seq-1, j) {
			same = false
		}
	}
	if same {
		t.Fatal("last position unaffected by its own K/V change")
	}
}

func TestCausalAttentionGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const seq, heads, hidden = 3, 1, 2
	q := NewParam(tensor.RandN(rng, 0.5, seq, hidden))
	k := NewParam(tensor.RandN(rng, 0.5, seq, hidden))
	v := NewParam(tensor.RandN(rng, 0.5, seq, hidden))
	numGradCheck(t, []*Value{q, k, v}, func() *Value {
		return SumSquares(MultiHeadAttentionCausal(q, k, v, seq, heads))
	}, 3e-2)
}

func TestFirstPositionOnlySeesItself(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const seq, heads, hidden = 3, 1, 2
	q := NewConst(tensor.RandN(rng, 0.5, seq, hidden))
	k := NewConst(tensor.RandN(rng, 0.5, seq, hidden))
	v := NewConst(tensor.RandN(rng, 0.5, seq, hidden))
	out := MultiHeadAttentionCausal(q, k, v, seq, heads)
	// Row 0 attends only to position 0 → output equals v[0].
	for j := 0; j < hidden; j++ {
		if math.Abs(float64(out.T.At(0, j)-v.T.At(0, j))) > 1e-5 {
			t.Fatalf("first position output %v, want v[0] %v", out.T.At(0, j), v.T.At(0, j))
		}
	}
}

func TestGatherRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := NewParam(tensor.RandN(rng, 0.5, 5, 3))
	rows := []int{0, 2, 2, 4}
	numGradCheck(t, []*Value{a}, func() *Value {
		return SumSquares(GatherRows(a, rows))
	}, 1e-2)
}
