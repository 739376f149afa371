package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// LMHeadAt turns the model into a token predictor: logits over the
// vocabulary for row pos of each sequence, computed by projecting through
// the (tied) embedding table. Generation with a partially filled window
// reads the last REAL position instead of the padded tail — under the
// causal mask the padding rows after pos are invisible to it, so the
// logits equal those of a full window that happened to end at pos. It panics unless
// the model is TokenInput and 0 ≤ pos < SeqLen.
func (m *Model) LMHeadAt(b *Batch, pos int) *tensor.Tensor {
	if m.Config.Kind != TokenInput {
		panic("nn: LMHead requires TokenInput")
	}
	c := m.Config
	if pos < 0 || pos >= c.SeqLen {
		panic(fmt.Sprintf("nn: LMHeadAt position %d outside window [0,%d)", pos, c.SeqLen))
	}
	x := m.embedInfer(b)
	for _, blk := range m.Blocks {
		h := tensor.LayerNormRows(x, blk.LN1g.T, blk.LN1b.T, 1e-5)
		qkv := blk.QKV.Infer(h)
		att := inferAttention(qkv, c)
		x = tensor.AddInPlace(blk.O.Infer(att), x)
		h = tensor.LayerNormRows(x, blk.LN2g.T, blk.LN2b.T, 1e-5)
		inner := tensor.GELU(blk.FFN1.Infer(h))
		x = tensor.AddInPlace(blk.FFN2.Infer(inner), x)
	}
	x = tensor.LayerNormRows(x, m.FinalLNg.T, m.FinalLNb.T, 1e-5)
	// Position pos of each sequence, projected onto the embedding table
	// (weight tying, the standard LM head).
	batch := b.BatchN
	last := tensor.New(batch, c.Hidden)
	for s := 0; s < batch; s++ {
		copy(last.Row(s), x.Row(s*c.SeqLen+pos))
	}
	return tensor.MatMulT(last, m.Embed.T)
}

// Generate continues each prompt autoregressively for steps tokens using
// greedy decoding (or temperature sampling when rng is non-nil and
// temperature > 0). The model must be causal; the context window slides
// once prompts exceed SeqLen.
//
// The window is LEFT-aligned: tokens occupy positions 0..L−1 and the
// tail is padding, with logits read at position L−1. Padding after the
// query position is causally masked, so short prompts see no pad tokens
// at all (the previous right-aligned layout put padding at early
// positions, where the causal mask could not hide it). Left alignment
// also keeps every token's absolute position stable while the window
// fills, which is what makes the KV-cached fastpath in decode.go
// bit-exact with this function.
func (m *Model) Generate(prompt []int, steps int, temperature float64, rng *rand.Rand) ([]int, error) {
	c := m.Config
	if c.Kind != TokenInput {
		return nil, fmt.Errorf("nn: Generate requires TokenInput")
	}
	if !c.Causal {
		return nil, fmt.Errorf("nn: Generate requires a causal model")
	}
	if len(prompt) == 0 {
		return nil, fmt.Errorf("nn: empty prompt")
	}
	// One window buffer for the whole generation, maintained
	// incrementally: append while filling, shift-by-one once full. The
	// full history is not needed — the window is the model's entire view.
	window := make([]int, c.SeqLen)
	l := len(prompt)
	if l > c.SeqLen {
		l = c.SeqLen
	}
	copy(window, prompt[len(prompt)-l:])
	out := make([]int, 0, steps)
	batch := &Batch{TokenIDs: window, BatchN: 1}
	for step := 0; step < steps; step++ {
		logits := m.LMHeadAt(batch, l-1)
		next := pickToken(logits.Row(0), temperature, rng)
		out = append(out, next)
		if l < c.SeqLen {
			window[l] = next
			l++
		} else {
			copy(window, window[1:])
			window[c.SeqLen-1] = next
		}
	}
	return out, nil
}

// pickToken selects greedily, or samples from softmax(logits/T).
func pickToken(logits []float32, temperature float64, rng *rand.Rand) int {
	if temperature <= 0 || rng == nil {
		best := 0
		for i, v := range logits {
			if v > logits[best] {
				best = i
			}
		}
		return best
	}
	scaled := tensor.New(1, len(logits))
	for i, v := range logits {
		scaled.Data[i] = v / float32(temperature)
	}
	probs := tensor.SoftmaxRows(scaled)
	r := rng.Float64()
	var acc float64
	for i, p := range probs.Data {
		acc += float64(p)
		if r <= acc {
			return i
		}
	}
	return len(logits) - 1
}
