package nn

// KV-cached autoregressive decode (DESIGN.md §14). Generate re-runs the
// full SeqLen×Layers forward pass per token; a DecodeSession instead
// keeps per-block K/V arenas and advances one single-row step per token:
// embed one token, project one row per linear (GEMM matvec or the
// single-row LUT kernels from internal/lutnn), attend against the cached
// K/V rows, and read the logits — O(L) attention work and O(1) linear
// rows per token instead of O(SeqLen) rows through the whole stack.
//
// The block sequence exists twice in this package: once in the generic
// trunk (model.go), which the prompt prefill and the rebase refill run
// over plain tensors with a K/V store hook, and once in decodeStep.run,
// the stacked step that advances 1 session (Feed) or B sessions
// (DecodeBatch.Feed) by one position.
//
// Bit-exactness with Generate (the PR-3 oracle pattern) rests on three
// facts, each enforced by a shared kernel or a golden test:
//
//  1. Left-aligned windows (see Generate) give every cached row a stable
//     absolute position, so a K/V row computed at step t is the same
//     float32 row the full forward pass would compute at step t+k.
//  2. The reference's causally masked scores are exactly −1e9, and
//     softmax turns them into exactly +0 (exp of ≈−1e9 underflows to
//     zero in float64); the reference MatMul then *skips* zero
//     coefficients (the sparsity fast path in tensor.matmulInto), so the
//     masked tail contributes no floating-point operations at all. A
//     single-row kernel that never materialises the tail and skips
//     exactly-zero probabilities reproduces the reference bit for bit.
//  3. Every per-row primitive (LayerNormRowsInto, SoftmaxRowInto,
//     GELURowInto, MatVecTInto, lutnn.ForwardRowInto) is the same code
//     the batch path runs, row for row.
//
// Once the window is full the cache cannot slide (absolute positions
// shift), so Feed falls back to a full ≤SeqLen-row "rebase" refill per
// token — exactly Generate's cost in that regime, never worse.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// kvBlock is one transformer block's K/V arena: SeqLen×Hidden rows each,
// row p holding the cached projection of window position p. The arenas
// are allocated once per session and reused across steps and rebases.
type kvBlock struct {
	k, v []float32
}

// DecodeSession is the KV-cached decode state for one sequence. It is
// not safe for concurrent use; concurrent sequences get one session each
// (see DecodeBatch and serving/live).
type DecodeSession struct {
	m   *Model
	seq []int // full token history; the last ≤SeqLen are the window
	l   int   // cached window length (rows 0..l−1 of every arena are live)
	kv  []kvBlock

	step   decodeStep // the one-row step Feed runs
	scores []float32  // SeqLen: attention scratch, also used inside a batch
	probs  []float32  // SeqLen
	logits []float32  // Vocab
}

// NewDecodeSession validates the model and prompt, allocates the arenas,
// and prefills the cache from the prompt (the last SeqLen tokens when
// the prompt is longer), leaving Logits ready for the first Pick.
func NewDecodeSession(m *Model, prompt []int) (*DecodeSession, error) {
	c := m.Config
	if c.Kind != TokenInput {
		return nil, fmt.Errorf("nn: decode requires TokenInput")
	}
	if !c.Causal {
		return nil, fmt.Errorf("nn: decode requires a causal model")
	}
	if err := checkPrompt(prompt, c.Vocab); err != nil {
		return nil, err
	}
	s := &DecodeSession{
		m:      m,
		seq:    append(make([]int, 0, len(prompt)+c.SeqLen), prompt...),
		kv:     make([]kvBlock, len(m.Blocks)),
		step:   decodeStep{m: m},
		scores: make([]float32, c.SeqLen),
		probs:  make([]float32, c.SeqLen),
		logits: make([]float32, c.Vocab),
	}
	for i := range s.kv {
		s.kv[i].k = make([]float32, c.SeqLen*c.Hidden)
		s.kv[i].v = make([]float32, c.SeqLen*c.Hidden)
	}
	window := prompt
	if len(window) > c.SeqLen {
		window = window[len(window)-c.SeqLen:]
	}
	s.refill(window)
	decodeRecordPrefill(len(window))
	return s, nil
}

// Logits returns the next-token logits for the current sequence. The
// slice aliases session scratch: read it before the next Feed.
func (s *DecodeSession) Logits() []float32 { return s.logits }

// Pick samples the next token from the current logits (greedy when
// temperature ≤ 0 or rng is nil) without advancing the session.
func (s *DecodeSession) Pick(temperature float64, rng *rand.Rand) int {
	return pickToken(s.logits, temperature, rng)
}

// Feed advances the session by one token and recomputes the next-token
// logits. While the window is filling this is a one-row cached step;
// once full, the window slides and the cache is rebased with a full
// refill (absolute positions shift, so cached rows are unusable — see
// the package comment).
func (s *DecodeSession) Feed(tok int) error {
	if err := checkToken(tok, s.m.Config.Vocab); err != nil {
		return err
	}
	if s.l == s.m.Config.SeqLen {
		s.rebase(tok)
		return nil
	}
	st := &s.step
	st.rows = append(st.rows[:0], s)
	st.toks = append(st.toks[:0], tok)
	st.run()
	return nil
}

// rebase appends tok to a session whose window is full and recomputes
// the cache over the slid window.
func (s *DecodeSession) rebase(tok int) {
	n := s.m.Config.SeqLen
	s.seq = append(s.seq, tok)
	s.refill(s.seq[len(s.seq)-n:])
	decodeRecordRebase(n)
}

// refill recomputes the cache from scratch for the given window tokens
// (1 ≤ len ≤ SeqLen): the plain trunk over exactly len(tokens) rows,
// storing every block's K/V rows into the arenas and leaving the last
// row's logits in s.logits. Used for prompt prefill and for the
// sliding-window rebase. Rows at positions ≥ len(tokens) of a full
// window are padding the causal mask hides from every real row, so
// computing only the real rows is bit-identical to LMHeadAt on the
// padded window (see the package comment and inferAttention).
func (s *DecodeSession) refill(tokens []int) {
	m, c := s.m, s.m.Config
	n := len(tokens)
	ops := plainOps{c: c, seqLen: n, kv: s.kv}
	x := trunk(m, ops, m.embedInfer(&Batch{TokenIDs: tokens, BatchN: 1}))
	tensor.MatVecTInto(s.logits, x.Row(n-1), m.Embed.T.Data, c.Vocab, c.Hidden)
	s.l = n
}

// decodeStep is the cached decode step for one or more sessions whose
// windows are not full, with its scratch: rows[r] takes token toks[r]
// at its position l, the sessions' activation rows are stacked into
// one N=len(rows) tensor per linear, and per-session state (K/V arenas,
// attention, logits) stays per session. Every stacked operator is
// row-local and the one-row kernels are bit-identical to the batch
// kernels, so stepping sessions together equals stepping each alone.
// The scratch tensors keep their headers while the row count holds and
// grow only past the high-water row count, so a step allocates nothing
// in steady state.
type decodeStep struct {
	m     *Model
	rows  []*DecodeSession
	toks  []int
	layer int // block whose attention attendChunk runs

	x, h, qkv, att, proj, inner *tensor.Tensor
}

// run advances every session in st.rows by one position.
func (st *decodeStep) run() {
	m, c := st.m, st.m.Config
	b := len(st.rows)
	st.shape(b)
	for r, s := range st.rows {
		row := st.x.Row(r)
		copy(row, m.Embed.T.Row(st.toks[r]))
		pos := m.Pos.T.Row(s.l)
		for j := range row {
			row[j] += pos[j]
		}
	}
	attWork := b * c.Heads * (c.SeqLen*2*c.Hidden/c.Heads + c.Hidden)
	for bi, blk := range m.Blocks {
		tensor.LayerNormRowsInto(st.h, st.x, blk.LN1g.T, blk.LN1b.T, 1e-5)
		linearInto(blk.QKV, st.qkv, st.h)
		st.layer = bi
		st.fan(attWork, attendChunk)
		linearInto(blk.O, st.proj, st.att)
		tensor.AddInPlace(st.x, st.proj)
		tensor.LayerNormRowsInto(st.h, st.x, blk.LN2g.T, blk.LN2b.T, 1e-5)
		linearInto(blk.FFN1, st.inner, st.h)
		tensor.GELURowInto(st.inner.Data, st.inner.Data)
		linearInto(blk.FFN2, st.proj, st.inner)
		tensor.AddInPlace(st.x, st.proj)
	}
	tensor.LayerNormRowsInto(st.h, st.x, m.FinalLNg.T, m.FinalLNb.T, 1e-5)
	st.fan(2*b*c.Hidden*c.Vocab, logitsChunk)
	for r, s := range st.rows {
		s.seq = append(s.seq, st.toks[r])
		s.l++
	}
	decodeRecordStep(b)
}

// fan runs chunk over the step's rows: directly for one row, so a solo
// Feed makes no pool call (and adds nothing to the pool's inline
// counter), and through parallel.ForCtx for more.
func (st *decodeStep) fan(work int, chunk func(ctx any, lo, hi int)) {
	if b := len(st.rows); b == 1 {
		chunk(st, 0, 1)
	} else {
		parallel.ForCtx(b, work, st, chunk)
	}
}

// shape sizes the scratch for b rows, rebuilding the headers only when
// b changes.
func (st *decodeStep) shape(b int) {
	if st.x != nil && st.x.Dim(0) == b {
		return
	}
	c := st.m.Config
	st.x = regrow(st.x, b, c.Hidden)
	st.h = regrow(st.h, b, c.Hidden)
	st.qkv = regrow(st.qkv, b, 3*c.Hidden)
	st.att = regrow(st.att, b, c.Hidden)
	st.proj = regrow(st.proj, b, c.Hidden)
	st.inner = regrow(st.inner, b, c.FFN)
}

// regrow returns a rows×cols tensor over t's backing array, allocating
// only when that array is too small.
func regrow(t *tensor.Tensor, rows, cols int) *tensor.Tensor {
	n := rows * cols
	if t == nil || cap(t.Data) < n {
		return tensor.New(rows, cols)
	}
	return tensor.FromSlice(t.Data[:n], rows, cols)
}

// attendChunk stores rows [lo, hi)'s K/V rows of block st.layer into
// their sessions' arenas and attends each row against its own cache.
// Chunks touch disjoint sessions, so the fan-out is deterministic and
// race-free.
func attendChunk(ctx any, lo, hi int) {
	st := ctx.(*decodeStep)
	c := st.m.Config
	hd := c.Hidden
	for r := lo; r < hi; r++ {
		s := st.rows[r]
		p := s.l
		kv := &s.kv[st.layer]
		qkv := st.qkv.Row(r)
		copy(kv.k[p*hd:(p+1)*hd], qkv[hd:2*hd])
		copy(kv.v[p*hd:(p+1)*hd], qkv[2*hd:3*hd])
		attendRow(kv, qkv[:hd], st.att.Row(r), s.scores, s.probs, p, c)
	}
}

// logitsChunk projects rows [lo, hi)'s final hidden states onto the
// (tied) embedding table, into each session's logits.
func logitsChunk(ctx any, lo, hi int) {
	st := ctx.(*decodeStep)
	c := st.m.Config
	for r := lo; r < hi; r++ {
		tensor.MatVecTInto(st.rows[r].logits, st.h.Row(r), st.m.Embed.T.Data, c.Vocab, c.Hidden)
	}
}

// attendRow is single-row multi-head attention for the query row q
// (length Hidden) at position p against cached rows 0..p, writing the
// concatenated head outputs into out. scores/probs are caller scratch of
// length ≥ p+1. The float operation order mirrors inferAttention
// exactly: per-head dot products in MatMulT order, a separate scale
// pass, SoftmaxRowInto, then a probability-weighted sum that skips
// exactly-zero coefficients like tensor.matmulInto.
func attendRow(kv *kvBlock, q, out, scores, probs []float32, p int, c Config) {
	hdim := c.Hidden
	dh := hdim / c.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	n := p + 1
	scores = scores[:n]
	probs = probs[:n]
	for head := 0; head < c.Heads; head++ {
		qh := q[head*dh : (head+1)*dh]
		for j := 0; j < n; j++ {
			kr := kv.k[j*hdim+head*dh : j*hdim+(head+1)*dh]
			var dot float32
			for d := range qh {
				dot += qh[d] * kr[d]
			}
			scores[j] = dot
		}
		for j := range scores {
			scores[j] *= scale
		}
		tensor.SoftmaxRowInto(probs, scores)
		oh := out[head*dh : (head+1)*dh]
		clear(oh)
		for j := 0; j < n; j++ {
			pj := probs[j]
			//pimdl:lint-ignore float-compare exact-zero skip mirrors tensor.matmulInto's sparsity fast path; required for bit-exactness
			if pj == 0 {
				continue
			}
			vr := kv.v[j*hdim+head*dh : j*hdim+(head+1)*dh]
			for d := range oh {
				oh[d] += pj * vr[d]
			}
		}
	}
}

// GenerateCached is Generate on the KV-cached fastpath: token-for-token
// identical output (greedy, or sampled with the same rng stream), with
// one prompt prefill plus one single-row step per token while the window
// fills, and a rebase refill per token once it slides.
func (m *Model) GenerateCached(prompt []int, steps int, temperature float64, rng *rand.Rand) ([]int, error) {
	s, err := NewDecodeSession(m, prompt)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, steps)
	for i := 0; i < steps; i++ {
		next := s.Pick(temperature, rng)
		out = append(out, next)
		if i+1 < steps {
			if err := s.Feed(next); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// --- batched multi-sequence decode ----------------------------------------

// DecodeBatch steps B concurrent sessions together through one
// decodeStep, so the batch kernels (and the shared worker pool under
// them) amortize table and weight streaming across sequences; the
// caller chooses the members. Results are bit-identical to stepping
// each session alone.
type DecodeBatch struct {
	sessions []*DecodeSession
	step     decodeStep
}

// NewDecodeBatch creates an empty batch for the model.
func NewDecodeBatch(m *Model) *DecodeBatch { return &DecodeBatch{step: decodeStep{m: m}} }

// SetSessions replaces the batch membership (a continuous batcher
// re-forms the batch as requests join and finish). All sessions must
// share the batch's model, and none may appear twice.
func (db *DecodeBatch) SetSessions(ss []*DecodeSession) error {
	for i, s := range ss {
		if s.m != db.step.m {
			return fmt.Errorf("nn: decode batch requires sessions of one model")
		}
		for _, prev := range ss[:i] {
			if prev == s {
				return fmt.Errorf("nn: session %d appears twice in the decode batch", i)
			}
		}
	}
	db.sessions = append(db.sessions[:0], ss...)
	return nil
}

// Feed advances every session by its token (toks[i] goes to session i).
// Every token is checked before any session moves. Sessions whose
// window is full take the individual rebase path; the rest step
// together. Results are identical to calling Feed on each session in
// order.
func (db *DecodeBatch) Feed(toks []int) error {
	if len(toks) != len(db.sessions) {
		return fmt.Errorf("nn: %d tokens for %d sessions", len(toks), len(db.sessions))
	}
	c := db.step.m.Config
	for _, tok := range toks {
		if err := checkToken(tok, c.Vocab); err != nil {
			return err
		}
	}
	st := &db.step
	st.rows, st.toks = st.rows[:0], st.toks[:0]
	for i, s := range db.sessions {
		if s.l == c.SeqLen {
			s.rebase(toks[i])
			continue
		}
		st.rows = append(st.rows, s)
		st.toks = append(st.toks, toks[i])
	}
	if b := len(st.rows); b > 0 {
		st.run()
		if b > 1 {
			decodeRecordBatch(b)
		}
	}
	return nil
}
