package nn

import (
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/lutnn"
	"repro/internal/tensor"
)

// Backend selects how a linear layer executes during inference.
type Backend int

const (
	// BackendGEMM runs the exact matrix multiply.
	BackendGEMM Backend = iota
	// BackendLUT runs FP32 LUT-NN (CCS + table lookup).
	BackendLUT
	// BackendLUTInt8 runs LUT-NN with INT8-quantized tables.
	BackendLUTInt8
)

// Linear is one linear layer with weight (out×in), bias (out), an optional
// converted LUT-NN form, and a calibration-time trainable codebook.
type Linear struct {
	W *autograd.Value
	B *autograd.Value

	Backend Backend
	LUT     *lutnn.Layer              // converted form (BackendLUT*)
	Calib   *lutnn.TrainableCodebooks // non-nil during eLUT-NN calibration

	// Rec holds the layer's reconstruction term ‖A·Wᵀ − Â·Wᵀ‖² from the
	// most recent calibration forward (Eq. 1). Model.CalibrationLoss sums
	// these into the total loss.
	Rec *autograd.Value
}

func newLinear(rng *rand.Rand, out, in int) *Linear {
	return &Linear{
		W: autograd.NewParam(tensor.XavierInit(rng, in, out, out, in)),
		B: autograd.NewParam(tensor.New(out)),
	}
}

// Forward applies the layer in autograd mode. When Calib is set the
// activations are substituted with their closest centroids (with STE), so
// gradients train the codebooks (paper §4.2).
func (l *Linear) Forward(x *autograd.Value) *autograd.Value {
	if l.Calib == nil {
		l.Rec = nil
		return autograd.AddBias(autograd.MatMulT(x, l.W), l.B)
	}
	in := l.Calib.Substitute(x)
	approx := autograd.MatMulT(in, l.W)
	// The reconstruction loss drives the *centroids* (and, through the
	// STE, the upstream layers): both W and the exact target are detached,
	// so ‖ÂW − AW‖² cannot collapse the weights toward (A−Â)'s null
	// space. It is normalized per element so β is scale-free across
	// layers.
	exact := autograd.MatMulT(autograd.NewConst(x.T), autograd.NewConst(l.W.T))
	recApprox := autograd.MatMulT(in, autograd.NewConst(l.W.T))
	l.Rec = autograd.Scale(autograd.SumSquares(autograd.Sub(recApprox, exact)),
		1/float32(exact.T.Size()))
	return autograd.AddBias(approx, l.B)
}

// Infer applies the layer in plain-tensor mode using the selected
// backend. It panics if a LUT backend is selected before conversion.
func (l *Linear) Infer(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), l.W.T.Dim(0))
	linearInto(l, out, x)
	return out
}

// linearInto applies the layer to the rows of src into dst, honouring
// the backend. One row takes the single-row kernels (tensor.MatVecTInto,
// or lutnn's ForwardRowInto with its pruned CCS and tile-major gather);
// more rows take the batch kernels (MatMulTInto, or the fused
// ForwardInto). Both pairs are bit-identical row for row, and neither
// allocates in steady state. It panics if a LUT backend is selected on
// an unconverted layer — a construction bug SetBackend already rejects,
// not a runtime input.
func linearInto(l *Linear, dst, src *tensor.Tensor) {
	one := src.Dim(0) == 1
	switch l.Backend {
	case BackendLUT, BackendLUTInt8:
		if l.LUT == nil {
			panic("nn: LUT backend selected but layer not converted")
		}
		if one {
			l.LUT.ForwardRowInto(dst.Data, src.Data)
		} else {
			l.LUT.ForwardInto(dst, src)
		}
	default:
		w := l.W.T
		if one {
			tensor.MatVecTInto(dst.Data, src.Data, w.Data, w.Dim(0), w.Dim(1))
		} else {
			tensor.MatMulTInto(dst, src, w)
		}
		tensor.AddBias(dst, l.B.T)
	}
}

// Block is one transformer encoder block (pre-LN).
type Block struct {
	LN1g, LN1b *autograd.Value
	QKV        *Linear
	O          *Linear
	LN2g, LN2b *autograd.Value
	FFN1       *Linear
	FFN2       *Linear
}

func newBlock(rng *rand.Rand, c Config) *Block {
	ones := func(n int) *autograd.Value {
		t := tensor.New(n)
		t.Fill(1)
		return autograd.NewParam(t)
	}
	zeros := func(n int) *autograd.Value { return autograd.NewParam(tensor.New(n)) }
	b := &Block{
		LN1g: ones(c.Hidden), LN1b: zeros(c.Hidden),
		LN2g: ones(c.Hidden), LN2b: zeros(c.Hidden),
	}
	oq, iq := c.LinearShape(RoleQKV)
	b.QKV = newLinear(rng, oq, iq)
	oo, io := c.LinearShape(RoleO)
	b.O = newLinear(rng, oo, io)
	o1, i1 := c.LinearShape(RoleFFN1)
	b.FFN1 = newLinear(rng, o1, i1)
	o2, i2 := c.LinearShape(RoleFFN2)
	b.FFN2 = newLinear(rng, o2, i2)
	return b
}

// Linear returns the block's linear layer for the given role; it panics
// on an unknown role.
func (b *Block) Linear(r LinearRole) *Linear {
	switch r {
	case RoleQKV:
		return b.QKV
	case RoleO:
		return b.O
	case RoleFFN1:
		return b.FFN1
	case RoleFFN2:
		return b.FFN2
	}
	panic("nn: unknown role")
}

// Model is a transformer encoder classifier.
type Model struct {
	Config Config

	Embed    *autograd.Value // TokenInput: Vocab×H table; PatchInput: H×PatchDim projection
	EmbedB   *autograd.Value // PatchInput bias
	Pos      *autograd.Value // SeqLen×H learned positional embedding
	Blocks   []*Block
	FinalLNg *autograd.Value
	FinalLNb *autograd.Value
	Head     *Linear // classifier (Classes×H); kept GEMM (it is tiny)
}

// NewModel constructs a randomly initialized model. It panics on an
// invalid config — construction happens at startup, where failing fast
// beats threading an error through every experiment harness.
func NewModel(c Config, seed int64) *Model {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Config: c}
	if c.Kind == TokenInput {
		m.Embed = autograd.NewParam(tensor.RandN(rng, 0.02, c.Vocab, c.Hidden))
	} else {
		m.Embed = autograd.NewParam(tensor.XavierInit(rng, c.PatchDim, c.Hidden, c.Hidden, c.PatchDim))
		m.EmbedB = autograd.NewParam(tensor.New(c.Hidden))
	}
	m.Pos = autograd.NewParam(tensor.RandN(rng, 0.02, c.SeqLen, c.Hidden))
	for i := 0; i < c.Layers; i++ {
		m.Blocks = append(m.Blocks, newBlock(rng, c))
	}
	g := tensor.New(c.Hidden)
	g.Fill(1)
	m.FinalLNg = autograd.NewParam(g)
	m.FinalLNb = autograd.NewParam(tensor.New(c.Hidden))
	m.Head = newLinear(rng, c.Classes, c.Hidden)
	return m
}

// Params returns every trainable parameter.
func (m *Model) Params() []*autograd.Value {
	ps := []*autograd.Value{m.Embed, m.Pos, m.FinalLNg, m.FinalLNb, m.Head.W, m.Head.B}
	if m.EmbedB != nil {
		ps = append(ps, m.EmbedB)
	}
	for _, b := range m.Blocks {
		ps = append(ps,
			b.LN1g, b.LN1b, b.QKV.W, b.QKV.B, b.O.W, b.O.B,
			b.LN2g, b.LN2b, b.FFN1.W, b.FFN1.B, b.FFN2.W, b.FFN2.B)
	}
	return ps
}

// CodebookParams returns the calibration codebook parameters currently
// attached to linear layers (empty unless calibration is active).
func (m *Model) CodebookParams() []*autograd.Value {
	var ps []*autograd.Value
	for _, b := range m.Blocks {
		for _, r := range Roles {
			if l := b.Linear(r); l.Calib != nil {
				ps = append(ps, l.Calib.Param)
			}
		}
	}
	return ps
}

// Batch is one classification minibatch. For TokenInput, TokenIDs holds
// batch·seqLen ids (row-major); for PatchInput, Patches is
// (batch·seqLen)×PatchDim. Labels has one class per sequence.
type Batch struct {
	TokenIDs []int
	Patches  *tensor.Tensor
	Labels   []int
	BatchN   int
}

// embed produces the (batch·seq)×H embedded input.
func (m *Model) embed(b *Batch) *autograd.Value {
	c := m.Config
	var x *autograd.Value
	if c.Kind == TokenInput {
		x = autograd.Embedding(m.Embed, b.TokenIDs)
	} else {
		x = autograd.AddBias(autograd.MatMulT(autograd.NewConst(b.Patches), m.Embed), m.EmbedB)
	}
	// Add positional embeddings: build per-row gather of Pos.
	posIDs := make([]int, b.BatchN*c.SeqLen)
	for i := range posIDs {
		posIDs[i] = i % c.SeqLen
	}
	return autograd.Add(x, autograd.Embedding(m.Pos, posIDs))
}

// trunkOps is the op set the transformer trunk is written over. Two
// implementations exist: tapeOps records autograd nodes (training and
// eLUT-NN calibration) and plainOps runs the tensor kernels (Infer,
// LMHeadAt and the decode refill). Both run the same op sequence, which
// is why Forward and Infer agree bit for bit.
type trunkOps[V any] interface {
	layerNorm(x V, gamma, beta *autograd.Value) V
	// linear applies block layer's linear l with role r to x.
	linear(layer int, r LinearRole, l *Linear, x V) V
	// attention runs multi-head attention over a fused QKV matrix.
	attention(layer int, qkv V) V
	// gelu applies GELU to x; an implementation may reuse x's storage.
	gelu(x V) V
	// add returns the residual sum x + y; an implementation may reuse
	// y's storage.
	add(x, y V) V
}

// trunk runs the block sequence over the embedded input x — per block
// LN → QKV → attention → O → residual → LN → FFN1 → GELU → FFN2 →
// residual — then the final layer norm, returning the hidden states.
func trunk[V any](m *Model, ops trunkOps[V], x V) V {
	for li, blk := range m.Blocks {
		h := ops.layerNorm(x, blk.LN1g, blk.LN1b)
		att := ops.attention(li, ops.linear(li, RoleQKV, blk.QKV, h))
		x = ops.add(x, ops.linear(li, RoleO, blk.O, att))
		h = ops.layerNorm(x, blk.LN2g, blk.LN2b)
		inner := ops.gelu(ops.linear(li, RoleFFN1, blk.FFN1, h))
		x = ops.add(x, ops.linear(li, RoleFFN2, blk.FFN2, inner))
	}
	return ops.layerNorm(x, m.FinalLNg, m.FinalLNb)
}

// tapeOps is the autograd implementation of trunkOps.
type tapeOps struct{ c Config }

func (tapeOps) layerNorm(x, gamma, beta *autograd.Value) *autograd.Value {
	return autograd.LayerNorm(x, gamma, beta, 1e-5)
}

func (tapeOps) linear(_ int, _ LinearRole, l *Linear, x *autograd.Value) *autograd.Value {
	return l.Forward(x)
}

func (o tapeOps) attention(_ int, qkv *autograd.Value) *autograd.Value {
	h := o.c.Hidden
	q := autograd.SliceCols(qkv, 0, h)
	k := autograd.SliceCols(qkv, h, 2*h)
	v := autograd.SliceCols(qkv, 2*h, 3*h)
	if o.c.Causal {
		return autograd.MultiHeadAttentionCausal(q, k, v, o.c.SeqLen, o.c.Heads)
	}
	return autograd.MultiHeadAttention(q, k, v, o.c.SeqLen, o.c.Heads)
}

func (tapeOps) gelu(x *autograd.Value) *autograd.Value { return autograd.GELU(x) }

func (tapeOps) add(x, y *autograd.Value) *autograd.Value { return autograd.Add(x, y) }

// HiddenStates runs the transformer trunk in autograd mode, returning the
// final-layer-norm hidden states ((batch·seq)×H). Forward and LM-style
// training both build on it.
func (m *Model) HiddenStates(b *Batch) *autograd.Value {
	return trunk(m, tapeOps{m.Config}, m.embed(b))
}

// Forward runs the autograd forward pass, returning per-sequence logits
// (batch×Classes). Used for training and eLUT-NN calibration.
func (m *Model) Forward(b *Batch) *autograd.Value {
	pooled := autograd.PoolRowGroups(m.HiddenStates(b), m.Config.SeqLen)
	return m.Head.Forward(pooled)
}

// Loss computes cross-entropy plus, during calibration, β times the summed
// per-layer reconstruction losses (Eq. 1). The reconstruction terms are
// produced by ForwardCalibration; plain Forward callers get just CE.
func (m *Model) Loss(b *Batch) *autograd.Value {
	return autograd.CrossEntropyLogits(m.Forward(b), b.Labels)
}
