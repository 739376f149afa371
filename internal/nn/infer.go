package nn

import (
	"math"

	"repro/internal/tensor"
)

// ActivationTap receives the input activations of a convertible linear
// layer during inference. Conversion uses taps to gather calibration
// activations (paper §3.1 step ❶).
type ActivationTap func(layer int, role LinearRole, acts *tensor.Tensor)

// Infer runs a plain-tensor forward pass (no autograd), honouring each
// linear layer's configured backend, and returns per-sequence logits.
// The optional tap is invoked with every convertible linear's input.
func (m *Model) Infer(b *Batch, tap ActivationTap) *tensor.Tensor {
	c := m.Config
	x := m.embedInfer(b)
	for li, blk := range m.Blocks {
		h := tensor.LayerNormRows(x, blk.LN1g.T, blk.LN1b.T, 1e-5)
		if tap != nil {
			tap(li, RoleQKV, h)
		}
		qkv := blk.QKV.Infer(h)
		att := inferAttention(qkv, c)
		if tap != nil {
			tap(li, RoleO, att)
		}
		x = tensor.AddInPlace(blk.O.Infer(att), x)

		h = tensor.LayerNormRows(x, blk.LN2g.T, blk.LN2b.T, 1e-5)
		if tap != nil {
			tap(li, RoleFFN1, h)
		}
		inner := tensor.GELU(blk.FFN1.Infer(h))
		if tap != nil {
			tap(li, RoleFFN2, inner)
		}
		x = tensor.AddInPlace(blk.FFN2.Infer(inner), x)
	}
	x = tensor.LayerNormRows(x, m.FinalLNg.T, m.FinalLNb.T, 1e-5)
	pooled := poolRows(x, c.SeqLen)
	out := tensor.MatMulT(pooled, m.Head.W.T)
	tensor.AddBias(out, m.Head.B.T)
	return out
}

func (m *Model) embedInfer(b *Batch) *tensor.Tensor {
	c := m.Config
	var x *tensor.Tensor
	if c.Kind == TokenInput {
		x = tensor.New(len(b.TokenIDs), c.Hidden)
		for i, id := range b.TokenIDs {
			copy(x.Row(i), m.Embed.T.Row(id))
		}
	} else {
		x = tensor.MatMulT(b.Patches, m.Embed.T)
		tensor.AddBias(x, m.EmbedB.T)
	}
	n := x.Dim(0)
	for i := 0; i < n; i++ {
		pos := m.Pos.T.Row(i % c.SeqLen)
		row := x.Row(i)
		for j := range row {
			row[j] += pos[j]
		}
	}
	return x
}

// inferAttention runs multi-head attention over a fused QKV matrix
// ((batch·seq)×3H) in plain-tensor mode.
func inferAttention(qkv *tensor.Tensor, c Config) *tensor.Tensor {
	n := qkv.Dim(0)
	h := c.Hidden
	batch := n / c.SeqLen
	dh := h / c.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	out := tensor.New(n, h)
	for bi := 0; bi < batch; bi++ {
		for hd := 0; hd < c.Heads; hd++ {
			q := tensor.New(c.SeqLen, dh)
			k := tensor.New(c.SeqLen, dh)
			v := tensor.New(c.SeqLen, dh)
			for s := 0; s < c.SeqLen; s++ {
				row := qkv.Row(bi*c.SeqLen + s)
				copy(q.Row(s), row[hd*dh:(hd+1)*dh])
				copy(k.Row(s), row[h+hd*dh:h+(hd+1)*dh])
				copy(v.Row(s), row[2*h+hd*dh:2*h+(hd+1)*dh])
			}
			scores := tensor.Scale(tensor.MatMulT(q, k), scale)
			if c.Causal {
				for si := 0; si < c.SeqLen; si++ {
					row := scores.Row(si)
					for sj := si + 1; sj < c.SeqLen; sj++ {
						row[sj] = -1e9
					}
				}
			}
			p := tensor.SoftmaxRows(scores)
			o := tensor.MatMul(p, v)
			for s := 0; s < c.SeqLen; s++ {
				copy(out.Row(bi*c.SeqLen + s)[hd*dh:(hd+1)*dh], o.Row(s))
			}
		}
	}
	return out
}

func poolRows(x *tensor.Tensor, group int) *tensor.Tensor {
	n, d := x.Dim(0), x.Dim(1)
	b := n / group
	out := tensor.New(b, d)
	for i := 0; i < n; i++ {
		dst := out.Row(i / group)
		src := x.Row(i)
		for j, v := range src {
			dst[j] += v
		}
	}
	inv := 1 / float32(group)
	for i := range out.Data {
		out.Data[i] *= inv
	}
	return out
}

// SetBackend switches every convertible linear layer to the given backend.
// Switching to a LUT backend requires prior conversion (it panics on an
// unconverted layer). The backend is the only INT8 switch: every lutnn
// entry point runs the quantized table whenever one is attached, so any
// backend other than BackendLUTInt8 detaches it (re-quantizing on the
// way back is deterministic).
func (m *Model) SetBackend(be Backend) {
	for _, blk := range m.Blocks {
		for _, r := range Roles {
			l := blk.Linear(r)
			if be != BackendGEMM && l.LUT == nil {
				panic("nn: SetBackend(LUT) before conversion")
			}
			switch {
			case be == BackendLUTInt8 && l.LUT.QTable == nil:
				l.LUT.EnableINT8()
			case be != BackendLUTInt8 && l.LUT != nil:
				l.LUT.QTable = nil
			}
			l.Backend = be
		}
	}
}

// Accuracy evaluates classification accuracy of Infer over batches.
func (m *Model) Accuracy(batches []*Batch) float64 {
	var correct, total int
	for _, b := range batches {
		pred := tensor.ArgMaxRows(m.Infer(b, nil))
		for i, y := range b.Labels {
			if pred[i] == y {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
