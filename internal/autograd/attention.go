package autograd

import (
	"math"

	"repro/internal/tensor"
)

// MultiHeadAttention computes scaled dot-product attention over q, k, v,
// each shaped (batch·seqLen)×hidden, with the hidden dimension split into
// heads. Rows are grouped per sequence: rows [s·seqLen, (s+1)·seqLen) form
// sequence s. The backward pass is hand-derived rather than composed from
// primitive ops, because attention is the hottest op in transformer
// training and the composed form would allocate hundreds of small nodes.
func MultiHeadAttention(q, k, v *Value, seqLen, heads int) *Value {
	return attention(q, k, v, seqLen, heads, false)
}

// MultiHeadAttentionCausal is the decoder-style variant: position i only
// attends to positions ≤ i. The mask is applied before the softmax, so
// both forward and backward automatically respect causality (masked
// probabilities are exactly zero).
func MultiHeadAttentionCausal(q, k, v *Value, seqLen, heads int) *Value {
	return attention(q, k, v, seqLen, heads, true)
}

// attention implements both attention variants; it panics unless seqLen
// divides the row count and heads divides the hidden width (the exported
// wrappers document this contract).
func attention(q, k, v *Value, seqLen, heads int, causal bool) *Value {
	n, hidden := q.T.Dim(0), q.T.Dim(1)
	if n%seqLen != 0 {
		panic("autograd: rows not divisible by seqLen")
	}
	if hidden%heads != 0 {
		panic("autograd: hidden not divisible by heads")
	}
	batch := n / seqLen
	dh := hidden / heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	res := tensor.New(n, hidden)
	// probs[b][h] is the seqLen×seqLen attention matrix, kept for backward.
	probs := make([][]*tensor.Tensor, batch)

	extract := func(src *tensor.Tensor, b, h int) *tensor.Tensor {
		out := tensor.New(seqLen, dh)
		for i := 0; i < seqLen; i++ {
			row := src.Data[(b*seqLen+i)*hidden+h*dh:]
			copy(out.Data[i*dh:(i+1)*dh], row[:dh])
		}
		return out
	}
	scatterAdd := func(dst *tensor.Tensor, part *tensor.Tensor, b, h int) {
		for i := 0; i < seqLen; i++ {
			row := dst.Data[(b*seqLen+i)*hidden+h*dh:]
			src := part.Data[i*dh : (i+1)*dh]
			for j, pv := range src {
				row[j] += pv
			}
		}
	}

	for b := 0; b < batch; b++ {
		probs[b] = make([]*tensor.Tensor, heads)
		for h := 0; h < heads; h++ {
			qh := extract(q.T, b, h)
			kh := extract(k.T, b, h)
			vh := extract(v.T, b, h)
			scores := tensor.Scale(tensor.MatMulT(qh, kh), scale)
			if causal {
				maskUpper(scores)
			}
			p := tensor.SoftmaxRows(scores)
			probs[b][h] = p
			o := tensor.MatMul(p, vh)
			scatterAdd(res, o, b, h)
		}
	}

	out := node(res, q, k, v)
	out.back = func() {
		var gq, gk, gv *tensor.Tensor
		if q.requiresGrad {
			gq = q.ensureGrad()
		}
		if k.requiresGrad {
			gk = k.ensureGrad()
		}
		if v.requiresGrad {
			gv = v.ensureGrad()
		}
		for b := 0; b < batch; b++ {
			for h := 0; h < heads; h++ {
				p := probs[b][h]
				kh := extract(k.T, b, h)
				vh := extract(v.T, b, h)
				do := extract(out.Grad, b, h)

				if gv != nil {
					scatterAdd(gv, tensor.MatMulTN(p, do), b, h)
				}
				// dP = dO·Vᵀ ; dS = P ⊙ (dP − rowsum(dP⊙P))
				dp := tensor.MatMulT(do, vh)
				ds := tensor.New(seqLen, seqLen)
				for i := 0; i < seqLen; i++ {
					pr := p.Data[i*seqLen : (i+1)*seqLen]
					dpr := dp.Data[i*seqLen : (i+1)*seqLen]
					var dot float32
					for j := range pr {
						dot += pr[j] * dpr[j]
					}
					dsr := ds.Data[i*seqLen : (i+1)*seqLen]
					for j := range pr {
						dsr[j] = pr[j] * (dpr[j] - dot)
					}
				}
				if gq != nil {
					scatterAdd(gq, tensor.Scale(tensor.MatMul(ds, kh), scale), b, h)
				}
				if gk != nil {
					// dK = dSᵀ·Q: Q's head is read by nothing else.
					scatterAdd(gk, tensor.Scale(tensor.MatMulTN(ds, extract(q.T, b, h)), scale), b, h)
				}
			}
		}
	}
	return out
}

// maskUpper sets the strict upper triangle of a square score matrix to a
// large negative value so softmax zeroes those positions.
func maskUpper(s *tensor.Tensor) {
	n := s.Dim(0)
	for i := 0; i < n; i++ {
		row := s.Row(i)
		for j := i + 1; j < n; j++ {
			row[j] = -1e9
		}
	}
}
