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

// transpose returns aᵀ for a rank-2 tensor.
func transpose(a *tensor.Tensor) *tensor.Tensor {
	m, n := a.Dim(0), a.Dim(1)
	t := tensor.New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return t
}

// sparseRandN is RandN with about one element in eight set to an exact
// ±0, so the products run the kernel's zero fallback.
func sparseRandN(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.RandN(rng, 0.5, rows, cols)
	for i := range t.Data {
		if rng.Intn(8) == 0 {
			t.Data[i] = float32(math.Copysign(0, rng.Float64()-0.5))
		}
	}
	return t
}

func assertSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %g, oracle %g", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulTGradMatchesOracle holds MatMulT's backward, whose weight
// gradient Gᵀ·A reads G column by column through tensor.MatMulTN, to
// the product over a transposed copy of G, bit for bit, on shapes below
// and above the worker pool's threshold.
func TestMatMulTGradMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range []struct{ n, k, m int }{{3, 4, 5}, {17, 33, 9}, {96, 64, 80}} {
		a := NewParam(sparseRandN(rng, s.n, s.k))
		b := NewParam(sparseRandN(rng, s.m, s.k))
		out := MatMulT(a, b)
		out.Grad = sparseRandN(rng, s.n, s.m)
		out.back()
		assertSameBits(t, "dA", a.Grad, tensor.AddInPlace(tensor.New(s.n, s.k), tensor.MatMul(out.Grad, b.T)))
		assertSameBits(t, "dW", b.Grad, tensor.AddInPlace(tensor.New(s.m, s.k), tensor.MatMul(transpose(out.Grad), a.T)))
	}
}

// attentionGradOracle is attention's backward written with transposed
// copies: per (sequence, head), dV = Pᵀ·dO, dS = P ⊙ (dO·Vᵀ − rowsum),
// dQ = scale·dS·K and dK = scale·dSᵀ·Q, each scattered into its head's
// columns.
func attentionGradOracle(q, k, v, dO *tensor.Tensor, seqLen, heads int, causal bool) (gq, gk, gv *tensor.Tensor) {
	n, hidden := q.Dim(0), q.Dim(1)
	dh := hidden / heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	gq, gk, gv = tensor.New(n, hidden), tensor.New(n, hidden), tensor.New(n, hidden)
	head := func(src *tensor.Tensor, b, h int) *tensor.Tensor {
		out := tensor.New(seqLen, dh)
		for i := 0; i < seqLen; i++ {
			copy(out.Row(i), src.Data[(b*seqLen+i)*hidden+h*dh:][:dh])
		}
		return out
	}
	scatter := func(dst, part *tensor.Tensor, b, h int) {
		for i := 0; i < seqLen; i++ {
			row := dst.Data[(b*seqLen+i)*hidden+h*dh:]
			for j, x := range part.Row(i) {
				row[j] += x
			}
		}
	}
	for b := 0; b < n/seqLen; b++ {
		for h := 0; h < heads; h++ {
			qh, kh, vh, do := head(q, b, h), head(k, b, h), head(v, b, h), head(dO, b, h)
			scores := tensor.Scale(tensor.MatMulT(qh, kh), scale)
			if causal {
				maskUpper(scores)
			}
			p := tensor.SoftmaxRows(scores)
			scatter(gv, tensor.MatMul(transpose(p), do), b, h)
			dp := tensor.MatMulT(do, vh)
			ds := tensor.New(seqLen, seqLen)
			for i := 0; i < seqLen; i++ {
				pr, dpr := p.Row(i), dp.Row(i)
				var dot float32
				for j := range pr {
					dot += pr[j] * dpr[j]
				}
				for j := range pr {
					ds.Row(i)[j] = pr[j] * (dpr[j] - dot)
				}
			}
			scatter(gq, tensor.Scale(tensor.MatMul(ds, kh), scale), b, h)
			scatter(gk, tensor.Scale(tensor.MatMul(transpose(ds), qh), scale), b, h)
		}
	}
	return gq, gk, gv
}

// TestAttentionGradMatchesOracle holds attention's backward, which forms
// dV and dK through tensor.MatMulTN, to the transposed-copy oracle bit
// for bit, plain and causal (whose masked probabilities are exact
// zeros).
func TestAttentionGradMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, causal := range []bool{false, true} {
		for _, s := range []struct{ seq, heads, hidden, batch int }{{3, 2, 4, 2}, {16, 2, 32, 3}, {48, 4, 64, 1}} {
			q := NewParam(sparseRandN(rng, s.batch*s.seq, s.hidden))
			k := NewParam(sparseRandN(rng, s.batch*s.seq, s.hidden))
			v := NewParam(sparseRandN(rng, s.batch*s.seq, s.hidden))
			out := attention(q, k, v, s.seq, s.heads, causal)
			out.Grad = sparseRandN(rng, s.batch*s.seq, s.hidden)
			out.back()
			gq, gk, gv := attentionGradOracle(q.T, k.T, v.T, out.Grad, s.seq, s.heads, causal)
			assertSameBits(t, "dQ", q.Grad, gq)
			assertSameBits(t, "dK", k.Grad, gk)
			assertSameBits(t, "dV", v.Grad, gv)
		}
	}
}
