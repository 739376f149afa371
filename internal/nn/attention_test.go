package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// oracleAttention is the materialised attention the plain path ran
// before the streaming core, and the form autograd's forward still
// runs: per (sequence, head), copy Q/K/V out, MatMulT → Scale → −1e9
// causal mask → SoftmaxRows → MatMul (which skips zero probabilities),
// then scatter the head back.
func oracleAttention(qkv *tensor.Tensor, seqLen int, c Config) *tensor.Tensor {
	n := qkv.Dim(0)
	h := c.Hidden
	batch := n / seqLen
	dh := h / c.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	out := tensor.New(n, h)
	for bi := 0; bi < batch; bi++ {
		for hd := 0; hd < c.Heads; hd++ {
			q := tensor.New(seqLen, dh)
			k := tensor.New(seqLen, dh)
			v := tensor.New(seqLen, dh)
			for s := 0; s < seqLen; s++ {
				row := qkv.Row(bi*seqLen + s)
				copy(q.Row(s), row[hd*dh:(hd+1)*dh])
				copy(k.Row(s), row[h+hd*dh:h+(hd+1)*dh])
				copy(v.Row(s), row[2*h+hd*dh:2*h+(hd+1)*dh])
			}
			scores := tensor.Scale(tensor.MatMulT(q, k), scale)
			if c.Causal {
				for si := 0; si < seqLen; si++ {
					row := scores.Row(si)
					for sj := si + 1; sj < seqLen; sj++ {
						row[sj] = -1e9
					}
				}
			}
			p := tensor.SoftmaxRows(scores)
			o := tensor.MatMul(p, v)
			for s := 0; s < seqLen; s++ {
				copy(out.Row(bi*seqLen + s)[hd*dh:(hd+1)*dh], o.Row(s))
			}
		}
	}
	return out
}

// attnCase is one point of the oracle grid.
type attnCase struct {
	seqLen, dh, heads, batch int
	causal                   bool
}

func (tc attnCase) config() Config {
	return Config{Hidden: tc.heads * tc.dh, Heads: tc.heads, Causal: tc.causal}
}

func (tc attnCase) String() string {
	return fmt.Sprintf("seq=%d dh=%d heads=%d batch=%d causal=%v", tc.seqLen, tc.dh, tc.heads, tc.batch, tc.causal)
}

// attnGrid is every combination of the shapes the streaming core must
// match the oracle on: sequence lengths below, at and far past the
// 4-wide tiles, head widths that are and are not multiples of 4.
func attnGrid() []attnCase {
	var cs []attnCase
	for _, seqLen := range []int{1, 3, 5, 64} {
		for _, dh := range []int{3, 5, 8} {
			for _, heads := range []int{1, 2, 4} {
				for batch := 1; batch <= 3; batch++ {
					for _, causal := range []bool{false, true} {
						cs = append(cs, attnCase{seqLen, dh, heads, batch, causal})
					}
				}
			}
		}
	}
	return cs
}

func randQKV(rng *rand.Rand, rows, hidden int) *tensor.Tensor {
	return tensor.RandN(rng, 1, rows, 3*hidden)
}

func TestAttentionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range attnGrid() {
		c := tc.config()
		qkv := randQKV(rng, tc.batch*tc.seqLen, c.Hidden)
		assertSameBits(t, tc.String(), inferAttention(qkv, tc.seqLen, c), oracleAttention(qkv, tc.seqLen, c))
	}
}

// TestAttentionMatchesOracleAdversarial pins the two places where
// "add a zero product" and "skip it" differ. In head 0 of sequence 0,
// two keys (one inside a 4-wide tile, one in the tail) score so low that
// their probability underflows to exactly +0 while their value rows hold
// ±Inf and NaN: the oracle skips them and stays finite, so a tile that
// multiplied through would write NaN. In head 1 of sequence 1 every
// value is −0: the oracle's sums start from +0 and end at +0, which a
// core that seeded a sum with its first product would turn into −0.
func TestAttentionMatchesOracleAdversarial(t *testing.T) {
	const seqLen, dh, heads, batch = 7, 5, 2, 2
	negZero := float32(math.Copysign(0, -1))
	nonFinite := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, causal := range []bool{false, true} {
		c := Config{Hidden: heads * dh, Heads: heads, Causal: causal}
		h := c.Hidden
		qkv := randQKV(rand.New(rand.NewSource(72)), batch*seqLen, h)
		for s := 0; s < seqLen; s++ {
			row := qkv.Row(s)
			for d := 0; d < dh; d++ {
				row[d] = 1 // every query of head 0 points the same way
			}
		}
		for _, j := range []int{1, 5} {
			row := qkv.Row(j)
			for d := 0; d < dh; d++ {
				row[h+d] = -1e4
				row[2*h+d] = nonFinite[d%len(nonFinite)]
			}
		}
		for s := 0; s < seqLen; s++ {
			row := qkv.Row(seqLen + s)
			for d := 0; d < dh; d++ {
				row[2*h+dh+d] = negZero
			}
		}
		want := oracleAttention(qkv, seqLen, c)
		for s := 0; s < seqLen; s++ {
			for d, v := range want.Row(s)[:dh] {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("causal=%v: oracle row %d col %d is %g; the case no longer isolates the zero skip", causal, s, d, v)
				}
			}
			for d, v := range want.Row(seqLen + s)[dh:] {
				if math.Float32bits(v) != 0 {
					t.Fatalf("causal=%v: oracle row %d col %d is %#08x, want +0", causal, seqLen+s, dh+d, math.Float32bits(v))
				}
			}
		}
		assertSameBits(t, fmt.Sprintf("adversarial causal=%v", causal), inferAttention(qkv, seqLen, c), want)
	}
}

// TestDecodeAttentionMatchesOracle runs the decode step's attendRow for
// every position of one causal sequence against the K/V arenas and
// compares each row with the oracle's.
func TestDecodeAttentionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, tc := range attnGrid() {
		if tc.batch != 1 || !tc.causal {
			continue
		}
		c := tc.config()
		h := c.Hidden
		qkv := randQKV(rng, tc.seqLen, h)
		want := oracleAttention(qkv, tc.seqLen, c)
		kv := kvBlock{k: make([]float32, tc.seqLen*h), v: make([]float32, tc.seqLen*h)}
		scores := make([]float32, tc.seqLen)
		got := tensor.New(tc.seqLen, h)
		for p := 0; p < tc.seqLen; p++ {
			row := qkv.Row(p)
			copy(kv.k[p*h:(p+1)*h], row[h:2*h])
			copy(kv.v[p*h:(p+1)*h], row[2*h:])
			attendRow(&kv, row[:h], got.Row(p), scores, p, c)
		}
		assertSameBits(t, "decode "+tc.String(), got, want)
	}
}

// TestAttentionAllocsIndependentOfTasks: one inferAttention call
// allocates its output and one scratch buffer, however many (sequence,
// head) tasks it fans out.
func TestAttentionAllocsIndependentOfTasks(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under -race (sync.Pool drops items)")
	}
	const seqLen, dh = 16, 8
	rng := rand.New(rand.NewSource(74))
	allocs := func(batch, heads int) float64 {
		c := Config{Hidden: heads * dh, Heads: heads, Causal: true}
		qkv := randQKV(rng, batch*seqLen, c.Hidden)
		return testing.AllocsPerRun(20, func() { inferAttention(qkv, seqLen, c) })
	}
	one, many := allocs(1, 1), allocs(3, 4)
	if one != many {
		t.Fatalf("allocs/op: %v at 1 task, %v at 12 tasks; want equal", one, many)
	}
}

// mustPanicNN runs f and fails unless it panics with an "nn:" message.
func mustPanicNN(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "nn: ") {
			t.Fatalf("%s: panic %q, want an nn: message", what, msg)
		}
	}()
	f()
}

func TestInferRejectsRaggedBatch(t *testing.T) {
	c := Tiny(TokenInput, 8, 2)
	m := NewModel(c, 75)
	for _, n := range []int{0, 4, 9, 15} {
		b := &Batch{TokenIDs: make([]int, n), BatchN: 1}
		mustPanicNN(t, fmt.Sprintf("Infer on %d tokens", n), func() { m.Infer(b, nil) })
	}
	p := Tiny(PatchInput, 8, 2)
	mp := NewModel(p, 76)
	b := &Batch{Patches: tensor.New(9, p.PatchDim), BatchN: 1}
	mustPanicNN(t, "Infer on 9 patches", func() { mp.Infer(b, nil) })
}

func TestLMHeadAtRejectsRaggedBatch(t *testing.T) {
	c := Tiny(TokenInput, 8, 2)
	c.Causal = true
	m := NewModel(c, 77)
	for _, tc := range []struct{ tokens, batchN int }{{9, 1}, {4, 1}, {16, 1}, {8, 2}, {8, 0}, {0, 0}} {
		b := &Batch{TokenIDs: make([]int, tc.tokens), BatchN: tc.batchN}
		mustPanicNN(t, fmt.Sprintf("LMHeadAt on %d tokens, BatchN %d", tc.tokens, tc.batchN),
			func() { m.LMHeadAt(b, 0) })
	}
}
