package nn

// KV-cached autoregressive decode (DESIGN.md §14). Generate re-runs the
// full SeqLen×Layers forward pass per token; a DecodeSession instead
// keeps per-block K/V arenas and advances one single-row step per token:
// embed one token, project one row per linear (GEMM matvec or the
// single-row LUT kernels from internal/lutnn), attend against the cached
// K/V rows, and read the logits — O(L) attention work and O(1) linear
// rows per token instead of O(SeqLen) rows through the whole stack.
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
//  3. Every per-row primitive (LayerNormRowInto, SoftmaxRowInto,
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

	// Single-row scratch, allocated once.
	x      []float32 // Hidden: residual stream
	h      []float32 // Hidden: post-layernorm row
	qkvRow []float32 // 3·Hidden
	attRow []float32 // Hidden
	proj   []float32 // Hidden: O/FFN2 projection output
	inner  []float32 // FFN
	scores []float32 // SeqLen
	probs  []float32 // SeqLen
	logits []float32 // Vocab
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
	if len(prompt) == 0 {
		return nil, fmt.Errorf("nn: empty prompt")
	}
	for _, tok := range prompt {
		if tok < 0 || tok >= c.Vocab {
			return nil, fmt.Errorf("nn: prompt token %d outside vocab [0,%d)", tok, c.Vocab)
		}
	}
	s := &DecodeSession{
		m:      m,
		seq:    append([]int(nil), prompt...),
		kv:     make([]kvBlock, len(m.Blocks)),
		x:      make([]float32, c.Hidden),
		h:      make([]float32, c.Hidden),
		qkvRow: make([]float32, 3*c.Hidden),
		attRow: make([]float32, c.Hidden),
		proj:   make([]float32, c.Hidden),
		inner:  make([]float32, c.FFN),
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
// logits. While the window is filling this is a single-row cached step;
// once full, the window slides and the cache is rebased with a full
// refill (absolute positions shift, so cached rows are unusable — see
// the package comment).
func (s *DecodeSession) Feed(tok int) error {
	c := s.m.Config
	if tok < 0 || tok >= c.Vocab {
		return fmt.Errorf("nn: token %d outside vocab [0,%d)", tok, c.Vocab)
	}
	s.seq = append(s.seq, tok)
	if s.l < c.SeqLen {
		s.stepRow(tok, s.l)
		decodeRecordStep(1)
	} else {
		s.refill(s.seq[len(s.seq)-c.SeqLen:])
		decodeRecordRebase(c.SeqLen)
	}
	return nil
}

// stepRow runs one cached single-row step: token tok enters the window
// at position p (= current cache length), every block projects exactly
// one row, and attention runs against rows 0..p of the arenas.
func (s *DecodeSession) stepRow(tok, p int) {
	m, c := s.m, s.m.Config
	hd := c.Hidden
	// Embedding + positional row, same float order as embedInfer
	// (copy, then add position elementwise).
	copy(s.x, m.Embed.T.Row(tok))
	pos := m.Pos.T.Row(p)
	for j := range s.x {
		s.x[j] += pos[j]
	}
	for bi, blk := range m.Blocks {
		tensor.LayerNormRowInto(s.h, s.x, blk.LN1g.T.Data, blk.LN1b.T.Data, 1e-5)
		linearRowInto(blk.QKV, s.qkvRow, s.h)
		kv := &s.kv[bi]
		copy(kv.k[p*hd:(p+1)*hd], s.qkvRow[hd:2*hd])
		copy(kv.v[p*hd:(p+1)*hd], s.qkvRow[2*hd:3*hd])
		attendRow(kv, s.qkvRow[:hd], s.attRow, s.scores, s.probs, p, c)
		linearRowInto(blk.O, s.proj, s.attRow)
		for j := range s.x {
			s.x[j] += s.proj[j]
		}
		tensor.LayerNormRowInto(s.h, s.x, blk.LN2g.T.Data, blk.LN2b.T.Data, 1e-5)
		linearRowInto(blk.FFN1, s.inner, s.h)
		tensor.GELURowInto(s.inner, s.inner)
		linearRowInto(blk.FFN2, s.proj, s.inner)
		for j := range s.x {
			s.x[j] += s.proj[j]
		}
	}
	tensor.LayerNormRowInto(s.h, s.x, m.FinalLNg.T.Data, m.FinalLNb.T.Data, 1e-5)
	tensor.MatVecTInto(s.logits, s.h, m.Embed.T.Data, c.Vocab, c.Hidden)
	s.l = p + 1
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

// linearRowInto applies one linear layer to a single activation row,
// honouring the layer's backend: the exact MatMulT row kernel plus bias
// for GEMM, or the fused single-row LUT path (which includes the bias).
// It panics if a LUT backend is selected on an unconverted layer — that
// is a construction bug SetBackend already rejects, not a runtime input.
func linearRowInto(l *Linear, dst, src []float32) {
	switch l.Backend {
	case BackendLUT, BackendLUTInt8:
		if l.LUT == nil {
			panic("nn: LUT backend selected but layer not converted")
		}
		l.LUT.ForwardRowInto(dst, src)
	default:
		w := l.W.T
		tensor.MatVecTInto(dst, src, w.Data, w.Dim(0), w.Dim(1))
		bias := l.B.T.Data
		for j := range dst {
			dst[j] += bias[j]
		}
	}
}

// refill recomputes the cache from scratch for the given window tokens
// (1 ≤ len ≤ SeqLen): a multi-row forward pass over exactly len(tokens)
// rows that stores every block's K/V rows into the arenas and leaves the
// last row's logits in s.logits. Used for prompt prefill and for the
// sliding-window rebase. Rows at positions ≥ len(tokens) of a full
// window are padding the causal mask hides from every real row, so
// computing only the real rows is bit-identical to LMHeadAt on the
// padded window (see the package comment).
func (s *DecodeSession) refill(tokens []int) {
	m, c := s.m, s.m.Config
	n := len(tokens)
	hd := c.Hidden
	x := tensor.New(n, hd)
	for i, tok := range tokens {
		copy(x.Row(i), m.Embed.T.Row(tok))
		pos := m.Pos.T.Row(i)
		row := x.Row(i)
		for j := range row {
			row[j] += pos[j]
		}
	}
	for bi, blk := range m.Blocks {
		h := tensor.LayerNormRows(x, blk.LN1g.T, blk.LN1b.T, 1e-5)
		qkv := blk.QKV.Infer(h)
		kv := &s.kv[bi]
		for i := 0; i < n; i++ {
			row := qkv.Row(i)
			copy(kv.k[i*hd:(i+1)*hd], row[hd:2*hd])
			copy(kv.v[i*hd:(i+1)*hd], row[2*hd:3*hd])
		}
		att := refillAttention(qkv, n, c)
		x = tensor.AddInPlace(blk.O.Infer(att), x)
		h = tensor.LayerNormRows(x, blk.LN2g.T, blk.LN2b.T, 1e-5)
		inner := tensor.GELU(blk.FFN1.Infer(h))
		x = tensor.AddInPlace(blk.FFN2.Infer(inner), x)
	}
	x = tensor.LayerNormRows(x, m.FinalLNg.T, m.FinalLNb.T, 1e-5)
	tensor.MatVecTInto(s.logits, x.Row(n-1), m.Embed.T.Data, c.Vocab, hd)
	s.l = n
}

// refillAttention is inferAttention for a single sequence of n ≤ SeqLen
// real rows: identical tensor-level operations (head split, MatMulT,
// Scale, causal mask, SoftmaxRows, MatMul) with the sequence length n
// instead of SeqLen. Rows beyond n of a padded window never influence
// rows below n (mask → exact +0 probability → skipped by matmulInto),
// so the n-row result equals the first n rows of the padded reference.
func refillAttention(qkv *tensor.Tensor, n int, c Config) *tensor.Tensor {
	h := c.Hidden
	dh := h / c.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	out := tensor.New(n, h)
	for hd := 0; hd < c.Heads; hd++ {
		q := tensor.New(n, dh)
		k := tensor.New(n, dh)
		v := tensor.New(n, dh)
		for si := 0; si < n; si++ {
			row := qkv.Row(si)
			copy(q.Row(si), row[hd*dh:(hd+1)*dh])
			copy(k.Row(si), row[h+hd*dh:h+(hd+1)*dh])
			copy(v.Row(si), row[2*h+hd*dh:2*h+(hd+1)*dh])
		}
		scores := tensor.Scale(tensor.MatMulT(q, k), scale)
		for si := 0; si < n; si++ {
			row := scores.Row(si)
			for sj := si + 1; sj < n; sj++ {
				row[sj] = -1e9
			}
		}
		p := tensor.SoftmaxRows(scores)
		o := tensor.MatMul(p, v)
		for si := 0; si < n; si++ {
			copy(out.Row(si)[hd*dh:(hd+1)*dh], o.Row(si))
		}
	}
	return out
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

// DecodeBatch steps B concurrent sessions together, stacking their
// single-row activations into one N=B tensor per linear operator so the
// batch kernels (and the shared worker pool under them) amortize table
// and weight streaming across sequences; the caller chooses the members.
// Per-sequence state (K/V arenas,
// attention, logits) stays per-session; every stacked operator is
// row-local, so batched results are bit-identical to stepping each
// session alone.
type DecodeBatch struct {
	m        *Model
	sessions []*DecodeSession

	// traceID is the exemplar identity a batched step stamps onto the
	// pimdl_decode_batch_rows histogram. Nothing sets it any more, so it
	// is always 0 (no exemplar); it goes with the next change to Feed.
	traceID uint64

	// Stacked scratch, grown to the high-water batch size.
	x, h, qkv, att, proj, inner []float32
}

// NewDecodeBatch creates an empty batch for the model.
func NewDecodeBatch(m *Model) *DecodeBatch { return &DecodeBatch{m: m} }

// SetSessions replaces the batch membership (a continuous batcher
// re-forms the batch as requests join and finish). All sessions must
// share the batch's model.
func (db *DecodeBatch) SetSessions(ss []*DecodeSession) error {
	for _, s := range ss {
		if s.m != db.m {
			return fmt.Errorf("nn: decode batch requires sessions of one model")
		}
	}
	db.sessions = db.sessions[:0]
	db.sessions = append(db.sessions, ss...)
	return nil
}

// Feed advances every session by its token (toks[i] goes to session i).
// Sessions whose window is full take the individual rebase path; the
// rest step together through stacked N=B kernels. Results are identical
// to calling Feed on each session in order.
func (db *DecodeBatch) Feed(toks []int) error {
	if len(toks) != len(db.sessions) {
		return fmt.Errorf("nn: %d tokens for %d sessions", len(toks), len(db.sessions))
	}
	c := db.m.Config
	var rows []*DecodeSession
	var rowToks []int
	for i, s := range db.sessions {
		if toks[i] < 0 || toks[i] >= c.Vocab {
			return fmt.Errorf("nn: token %d outside vocab [0,%d)", toks[i], c.Vocab)
		}
		if s.l < c.SeqLen {
			rows = append(rows, s)
			rowToks = append(rowToks, toks[i])
		} else if err := s.Feed(toks[i]); err != nil {
			return err
		}
	}
	switch len(rows) {
	case 0:
		return nil
	case 1:
		return rows[0].Feed(rowToks[0])
	}
	db.stepRows(rows, rowToks)
	decodeRecordBatch(len(rows), db.traceID)
	return nil
}

// stepRows is the stacked single-row step for b ≥ 2 sessions.
func (db *DecodeBatch) stepRows(rows []*DecodeSession, toks []int) {
	m, c := db.m, db.m.Config
	b := len(rows)
	hd := c.Hidden
	x := db.grow(&db.x, b*hd)
	h := db.grow(&db.h, b*hd)
	qkv := db.grow(&db.qkv, b*3*hd)
	att := db.grow(&db.att, b*hd)
	proj := db.grow(&db.proj, b*hd)
	inner := db.grow(&db.inner, b*c.FFN)
	hT := tensor.FromSlice(h, b, hd)
	qkvT := tensor.FromSlice(qkv, b, 3*hd)
	attT := tensor.FromSlice(att, b, hd)
	projT := tensor.FromSlice(proj, b, hd)
	innerT := tensor.FromSlice(inner, b, c.FFN)

	for r, s := range rows {
		row := x[r*hd : (r+1)*hd]
		copy(row, m.Embed.T.Row(toks[r]))
		pos := m.Pos.T.Row(s.l)
		for j := range row {
			row[j] += pos[j]
		}
	}
	attWork := b * c.Heads * (c.SeqLen*2*hd/c.Heads + hd)
	for bi, blk := range m.Blocks {
		for r := 0; r < b; r++ {
			tensor.LayerNormRowInto(h[r*hd:(r+1)*hd], x[r*hd:(r+1)*hd],
				blk.LN1g.T.Data, blk.LN1b.T.Data, 1e-5)
		}
		linearBatchInto(blk.QKV, qkvT, hT)
		// K/V store + per-sequence attention, parallel over sequences:
		// each chunk touches disjoint sessions, so the grid stays
		// deterministic and race-free.
		parallel.For(b, attWork, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				s := rows[r]
				p := s.l
				kv := &s.kv[bi]
				qrow := qkv[r*3*hd : (r+1)*3*hd]
				copy(kv.k[p*hd:(p+1)*hd], qrow[hd:2*hd])
				copy(kv.v[p*hd:(p+1)*hd], qrow[2*hd:3*hd])
				attendRow(kv, qrow[:hd], att[r*hd:(r+1)*hd], s.scores, s.probs, p, c)
			}
		})
		linearBatchInto(blk.O, projT, attT)
		for j := range x {
			x[j] += proj[j]
		}
		for r := 0; r < b; r++ {
			tensor.LayerNormRowInto(h[r*hd:(r+1)*hd], x[r*hd:(r+1)*hd],
				blk.LN2g.T.Data, blk.LN2b.T.Data, 1e-5)
		}
		linearBatchInto(blk.FFN1, innerT, hT)
		tensor.GELURowInto(inner, inner)
		linearBatchInto(blk.FFN2, projT, innerT)
		for j := range x {
			x[j] += proj[j]
		}
	}
	for r := 0; r < b; r++ {
		tensor.LayerNormRowInto(h[r*hd:(r+1)*hd], x[r*hd:(r+1)*hd],
			m.FinalLNg.T.Data, m.FinalLNb.T.Data, 1e-5)
	}
	logitWork := 2 * b * hd * c.Vocab
	parallel.For(b, logitWork, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			tensor.MatVecTInto(rows[r].logits, h[r*hd:(r+1)*hd], m.Embed.T.Data, c.Vocab, hd)
		}
	})
	for r, s := range rows {
		s.seq = append(s.seq, toks[r])
		s.l++
		decodeRecordStep(1)
	}
}

// grow returns *buf resized to n, reallocating only past the high-water
// mark so steady-state batched steps reuse one backing array.
func (db *DecodeBatch) grow(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// linearBatchInto applies one linear layer to b stacked rows, honouring
// the backend: MatMulTInto + bias for GEMM (the same row kernel the
// single-row path uses, fanned out on the worker pool) or the fused
// batch LUT kernel (bit-identical per row to ForwardRowInto — both match
// the serial oracle). Like linearRowInto, it panics on a LUT backend
// without a converted layer (a construction bug, not a runtime input).
func linearBatchInto(l *Linear, dst, src *tensor.Tensor) {
	switch l.Backend {
	case BackendLUT, BackendLUTInt8:
		if l.LUT == nil {
			panic("nn: LUT backend selected but layer not converted")
		}
		l.LUT.ForwardInto(dst, src)
	default:
		tensor.MatMulTInto(dst, src, l.W.T)
		tensor.AddBias(dst, l.B.T)
	}
}
