package nn

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// ActivationTap receives the input activations of a convertible linear
// layer during inference. Conversion uses taps to gather calibration
// activations (paper §3.1 step ❶).
type ActivationTap func(layer int, role LinearRole, acts *tensor.Tensor)

// Infer runs a plain-tensor forward pass (no autograd), honouring each
// linear layer's configured backend, and returns per-sequence logits.
// The optional tap is invoked with every convertible linear's input.
// It panics unless the batch's row count is a positive multiple of
// SeqLen.
func (m *Model) Infer(b *Batch, tap ActivationTap) *tensor.Tensor {
	c := m.Config
	n := len(b.TokenIDs)
	if c.Kind == PatchInput {
		n = b.Patches.Dim(0)
	}
	if n == 0 || n%c.SeqLen != 0 {
		panic(fmt.Sprintf("nn: Infer batch of %d rows is not a positive multiple of SeqLen %d", n, c.SeqLen))
	}
	x := trunk(m, plainOps{c: c, seqLen: c.SeqLen, tap: tap}, m.embedInfer(b))
	pooled := poolRows(x, c.SeqLen)
	out := tensor.MatMulT(pooled, m.Head.W.T)
	tensor.AddBias(out, m.Head.B.T)
	return out
}

// plainOps is the plain-tensor implementation of trunkOps.
type plainOps struct {
	c      Config
	seqLen int           // rows per sequence: SeqLen, or a refill's window length
	tap    ActivationTap // optional: sees every convertible linear's input
	kv     []kvBlock     // optional: K/V arenas each block's rows are stored into
}

func (plainOps) layerNorm(x *tensor.Tensor, gamma, beta *autograd.Value) *tensor.Tensor {
	return tensor.LayerNormRows(x, gamma.T, beta.T, 1e-5)
}

func (o plainOps) linear(layer int, r LinearRole, l *Linear, x *tensor.Tensor) *tensor.Tensor {
	if o.tap != nil {
		o.tap(layer, r, x)
	}
	return l.Infer(x)
}

func (o plainOps) attention(layer int, qkv *tensor.Tensor) *tensor.Tensor {
	if o.kv != nil {
		hd := o.c.Hidden
		kv := &o.kv[layer]
		for i := 0; i < qkv.Dim(0); i++ {
			row := qkv.Row(i)
			copy(kv.k[i*hd:(i+1)*hd], row[hd:2*hd])
			copy(kv.v[i*hd:(i+1)*hd], row[2*hd:3*hd])
		}
	}
	return inferAttention(qkv, o.seqLen, o.c)
}

func (plainOps) gelu(x *tensor.Tensor) *tensor.Tensor { return tensor.GELU(x) }

func (plainOps) add(x, y *tensor.Tensor) *tensor.Tensor { return tensor.AddInPlace(y, x) }

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
