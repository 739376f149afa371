package autograd

import (
	"math"

	"repro/internal/tensor"
)

// MatMulT returns a·bᵀ for a (N×K) and b (M×K). This is the natural layout
// for linear layers whose weight is stored (outFeatures × inFeatures).
func MatMulT(a, b *Value) *Value {
	out := node(tensor.MatMulT(a.T, b.T), a, b)
	out.back = func() {
		if a.requiresGrad {
			tensor.AddInPlace(a.ensureGrad(), tensor.MatMul(out.Grad, b.T))
		}
		if b.requiresGrad {
			tensor.AddInPlace(b.ensureGrad(), tensor.MatMulTN(out.Grad, a.T))
		}
	}
	return out
}

// Add returns a + b (same shape).
func Add(a, b *Value) *Value {
	out := node(tensor.Add(a.T, b.T), a, b)
	out.back = func() {
		if a.requiresGrad {
			tensor.AddInPlace(a.ensureGrad(), out.Grad)
		}
		if b.requiresGrad {
			tensor.AddInPlace(b.ensureGrad(), out.Grad)
		}
	}
	return out
}

// Sub returns a − b.
func Sub(a, b *Value) *Value {
	out := node(tensor.Sub(a.T, b.T), a, b)
	out.back = func() {
		if a.requiresGrad {
			tensor.AddInPlace(a.ensureGrad(), out.Grad)
		}
		if b.requiresGrad {
			tensor.AXPY(b.ensureGrad(), -1, out.Grad)
		}
	}
	return out
}

// Scale returns s·a.
func Scale(a *Value, s float32) *Value {
	out := node(tensor.Scale(a.T, s), a)
	out.back = func() {
		if a.requiresGrad {
			tensor.AXPY(a.ensureGrad(), s, out.Grad)
		}
	}
	return out
}

// AddBias adds a length-M bias row vector to every row of an N×M matrix.
func AddBias(a, bias *Value) *Value {
	res := a.T.Clone()
	tensor.AddBias(res, bias.T)
	out := node(res, a, bias)
	out.back = func() {
		if a.requiresGrad {
			tensor.AddInPlace(a.ensureGrad(), out.Grad)
		}
		if bias.requiresGrad {
			g := bias.ensureGrad()
			n, m := out.Grad.Dim(0), out.Grad.Dim(1)
			for i := 0; i < n; i++ {
				row := out.Grad.Data[i*m : (i+1)*m]
				for j, v := range row {
					g.Data[j] += v
				}
			}
		}
	}
	return out
}

// GELU applies the tanh-approximated GELU elementwise.
func GELU(a *Value) *Value {
	out := node(tensor.GELU(a.T), a)
	out.back = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		const c0 = 0.7978845608028654
		const c1 = 0.044715
		for i, x := range a.T.Data {
			xf := float64(x)
			u := c0 * (xf + c1*xf*xf*xf)
			th := math.Tanh(u)
			du := c0 * (1 + 3*c1*xf*xf)
			d := 0.5*(1+th) + 0.5*xf*(1-th*th)*du
			g.Data[i] += out.Grad.Data[i] * float32(d)
		}
	}
	return out
}

// LayerNorm normalizes each row of a and applies the affine parameters
// gamma and beta (both length = row width).
func LayerNorm(a, gamma, beta *Value, eps float32) *Value {
	n, m := a.T.Dim(0), a.T.Dim(1)
	res := tensor.New(n, m)
	xhat := tensor.New(n, m)
	invStd := make([]float32, n)
	for i := 0; i < n; i++ {
		src := a.T.Data[i*m : (i+1)*m]
		var mean float32
		for _, v := range src {
			mean += v
		}
		mean /= float32(m)
		var varSum float32
		for _, v := range src {
			d := v - mean
			varSum += d * d
		}
		inv := 1 / float32(math.Sqrt(float64(varSum/float32(m)+eps)))
		invStd[i] = inv
		for j, v := range src {
			xh := (v - mean) * inv
			xhat.Data[i*m+j] = xh
			res.Data[i*m+j] = xh*gamma.T.Data[j] + beta.T.Data[j]
		}
	}
	out := node(res, a, gamma, beta)
	out.back = func() {
		if gamma.requiresGrad {
			g := gamma.ensureGrad()
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					g.Data[j] += out.Grad.Data[i*m+j] * xhat.Data[i*m+j]
				}
			}
		}
		if beta.requiresGrad {
			g := beta.ensureGrad()
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					g.Data[j] += out.Grad.Data[i*m+j]
				}
			}
		}
		if a.requiresGrad {
			g := a.ensureGrad()
			for i := 0; i < n; i++ {
				dy := out.Grad.Data[i*m : (i+1)*m]
				xh := xhat.Data[i*m : (i+1)*m]
				// dxhat = dy * gamma
				var sumD, sumDX float32
				dxhat := make([]float32, m)
				for j := range dxhat {
					dxhat[j] = dy[j] * gamma.T.Data[j]
					sumD += dxhat[j]
					sumDX += dxhat[j] * xh[j]
				}
				inv := invStd[i]
				fm := float32(m)
				gr := g.Data[i*m : (i+1)*m]
				for j := range dxhat {
					gr[j] += inv * (dxhat[j] - sumD/fm - xh[j]*sumDX/fm)
				}
			}
		}
	}
	return out
}

// Embedding gathers rows of table (V×D) at the given ids, producing an
// (len(ids)×D) matrix. Gradients scatter-add back into the table.
func Embedding(table *Value, ids []int) *Value {
	d := table.T.Dim(1)
	res := tensor.New(len(ids), d)
	for i, id := range ids {
		copy(res.Data[i*d:(i+1)*d], table.T.Row(id))
	}
	out := node(res, table)
	out.back = func() {
		if !table.requiresGrad {
			return
		}
		g := table.ensureGrad()
		for i, id := range ids {
			dst := g.Data[id*d : (id+1)*d]
			src := out.Grad.Data[i*d : (i+1)*d]
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	return out
}

// PoolRowGroups mean-pools groups of `group` consecutive rows: an
// (B·group)×D input becomes B×D. Used to pool per-token features into
// per-sequence features. It panics unless group divides the row count.
func PoolRowGroups(a *Value, group int) *Value {
	n, d := a.T.Dim(0), a.T.Dim(1)
	if n%group != 0 {
		panic("autograd: PoolRowGroups group does not divide rows")
	}
	b := n / group
	res := tensor.New(b, d)
	for i := 0; i < n; i++ {
		dst := res.Data[(i/group)*d : (i/group+1)*d]
		src := a.T.Data[i*d : (i+1)*d]
		for j, v := range src {
			dst[j] += v
		}
	}
	inv := 1 / float32(group)
	for j := range res.Data {
		res.Data[j] *= inv
	}
	out := node(res, a)
	out.back = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < n; i++ {
			gr := g.Data[i*d : (i+1)*d]
			src := out.Grad.Data[(i/group)*d : (i/group+1)*d]
			for j := range gr {
				gr[j] += src[j] * inv
			}
		}
	}
	return out
}

// STE is the straight-through estimator (paper Eq. 2): the forward value is
// the externally computed tensor `forward` (e.g. the closest-centroid
// approximation Â of the activations), while the backward pass treats
// ∂forward/∂of as identity, passing gradients straight through to `of`.
func STE(forward *tensor.Tensor, of *Value) *Value {
	out := node(forward, of)
	out.back = func() {
		if of.requiresGrad {
			tensor.AddInPlace(of.ensureGrad(), out.Grad)
		}
	}
	return out
}

// Reshape reinterprets a's contiguous data with a new shape (same element
// count). Gradients flow through element-for-element.
func Reshape(a *Value, shape ...int) *Value {
	out := node(a.T.Reshape(shape...), a)
	out.back = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i, v := range out.Grad.Data {
			g.Data[i] += v
		}
	}
	return out
}

// SliceCols returns columns [lo, hi) of a rank-2 value; gradients
// scatter-add back into the source columns. Used to split a fused QKV
// projection into its three heads.
func SliceCols(a *Value, lo, hi int) *Value {
	n, m := a.T.Dim(0), a.T.Dim(1)
	w := hi - lo
	res := tensor.New(n, w)
	for i := 0; i < n; i++ {
		copy(res.Data[i*w:(i+1)*w], a.T.Data[i*m+lo:i*m+hi])
	}
	out := node(res, a)
	out.back = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < n; i++ {
			src := out.Grad.Data[i*w : (i+1)*w]
			dst := g.Data[i*m+lo : i*m+hi]
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	return out
}

// CrossEntropyLogits computes mean cross-entropy between row logits and
// integer class labels, returning a scalar value. It panics if the label
// count differs from the logit row count.
func CrossEntropyLogits(logits *Value, labels []int) *Value {
	n, c := logits.T.Dim(0), logits.T.Dim(1)
	if len(labels) != n {
		panic("autograd: label count mismatch")
	}
	probs := tensor.SoftmaxRows(logits.T)
	var loss float64
	for i, y := range labels {
		p := float64(probs.Data[i*c+y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	loss /= float64(n)
	out := node(tensor.FromSlice([]float32{float32(loss)}, 1), logits)
	out.back = func() {
		if !logits.requiresGrad {
			return
		}
		g := logits.ensureGrad()
		scale := out.Grad.Data[0] / float32(n)
		for i, y := range labels {
			row := probs.Data[i*c : (i+1)*c]
			gr := g.Data[i*c : (i+1)*c]
			for j, p := range row {
				d := p
				if j == y {
					d -= 1
				}
				gr[j] += d * scale
			}
		}
	}
	return out
}

// SumSquares returns Σx² as a scalar value (used for the reconstruction
// loss ‖AW − ÂW‖² in Eq. 1).
func SumSquares(a *Value) *Value {
	var s float64
	for _, v := range a.T.Data {
		s += float64(v) * float64(v)
	}
	out := node(tensor.FromSlice([]float32{float32(s)}, 1), a)
	out.back = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		scale := out.Grad.Data[0] * 2
		for i, v := range a.T.Data {
			g.Data[i] += scale * v
		}
	}
	return out
}

// GatherRows selects the given rows of a rank-2 value; gradients
// scatter-add back. Unlike Embedding, the source is any intermediate
// value, not a parameter table.
func GatherRows(a *Value, rows []int) *Value {
	d := a.T.Dim(1)
	res := tensor.New(len(rows), d)
	for i, r := range rows {
		copy(res.Data[i*d:(i+1)*d], a.T.Row(r))
	}
	out := node(res, a)
	out.back = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i, r := range rows {
			dst := g.Data[r*d : (r+1)*d]
			src := out.Grad.Data[i*d : (i+1)*d]
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	return out
}
