package nn

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Plain (non-autograd) multi-head attention has one core, attendHead:
// prefill and refill fan it out over (sequence, head) tasks, and a
// decode step loops it over the heads of one cached row. It is
// bit-identical to the materialised form the tape runs (MatMulT → Scale
// → −1e9 mask → SoftmaxRows → MatMul; the test oracle keeps it): every
// score and output element keeps its own accumulator, starts from +0
// and adds its terms in the same order. Stopping a causal row at the
// diagonal is exact because a −1e9 score softmaxes to exactly +0, which
// tensor.MatMul skips.

// attnScale is the score scale 1/√dh.
//
//pimdl:hotpath
func attnScale(dh int) float32 { return float32(1 / math.Sqrt(float64(dh))) }

// attendHead computes one head's attention output for one query row q
// (length dh) into out (length dh) against n = len(scores) keys and
// values read in place: key j is k[j*stride:][:dh] and value j is
// v[j*stride:][:dh]. scores is caller scratch; it ends up holding the
// probabilities.
//
// Scores are tiled four keys wide like tensor.MatVecTInto, and P·V four
// value rows wide; neither tiling changes an operation. A tile holding
// an exactly-zero probability falls back to the per-row loop that skips
// it, as tensor.MatMul does: adding 0·v is not a no-op when v is ±Inf
// or NaN.
//
//pimdl:hotpath
func attendHead(out, q, k, v, scores []float32, stride int, scale float32) {
	dh := len(q)
	n := len(scores)
	j := 0
	for ; j+4 <= n; j += 4 {
		k0 := k[j*stride:][:dh]
		k1 := k[(j+1)*stride:][:dh]
		k2 := k[(j+2)*stride:][:dh]
		k3 := k[(j+3)*stride:][:dh]
		var s0, s1, s2, s3 float32
		for d, qv := range q {
			s0 += qv * k0[d]
			s1 += qv * k1[d]
			s2 += qv * k2[d]
			s3 += qv * k3[d]
		}
		s := scores[j : j+4]
		s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		kr := k[j*stride:][:dh]
		var s float32
		for d, qv := range q {
			s += qv * kr[d]
		}
		scores[j] = s
	}
	for j := range scores {
		scores[j] *= scale
	}
	tensor.SoftmaxRowInto(scores, scores)

	clear(out)
	j = 0
	for ; j+4 <= n; j += 4 {
		p := scores[j : j+4]
		p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
		//pimdl:lint-ignore float-compare exact-zero probabilities are skipped like tensor.matmulInto's sparsity fast path; required for bit-exactness
		if p0 == 0 || p1 == 0 || p2 == 0 || p3 == 0 {
			for i, pj := range p {
				addScaledRow(out, pj, v[(j+i)*stride:][:dh])
			}
			continue
		}
		v0 := v[j*stride:][:dh]
		v1 := v[(j+1)*stride:][:dh]
		v2 := v[(j+2)*stride:][:dh]
		v3 := v[(j+3)*stride:][:dh]
		for d, o := range out {
			o += p0 * v0[d]
			o += p1 * v1[d]
			o += p2 * v2[d]
			o += p3 * v3[d]
			out[d] = o
		}
	}
	for ; j < n; j++ {
		addScaledRow(out, scores[j], v[j*stride:][:dh])
	}
}

// addScaledRow adds p·vr to out unless p is exactly zero.
//
//pimdl:hotpath
func addScaledRow(out []float32, p float32, vr []float32) {
	//pimdl:lint-ignore float-compare exact-zero skip mirrors tensor.matmulInto's sparsity fast path; required for bit-exactness
	if p == 0 {
		return
	}
	vr = vr[:len(out)]
	for d := range out {
		out[d] += p * vr[d]
	}
}

// attnCall is one inferAttention call's shared state: the fused QKV
// rows, the output, and seqLen scores of scratch per task.
type attnCall struct {
	qkv, out, scores []float32
	seqLen, heads    int
	hidden, dh       int
	causal           bool
	scale            float32
}

// inferAttention runs multi-head attention over a fused QKV matrix
// ((batch·seqLen)×3H) in plain-tensor mode, causally masked when the
// model is causal, fanning (sequence, head) tasks out on the shared
// pool. Each task writes only its own head columns of its own rows, so
// the result does not depend on the worker count. A decode refill
// passes its window length as seqLen. The row count must be a positive
// multiple of seqLen; Infer and LMHeadAt check it.
func inferAttention(qkv *tensor.Tensor, seqLen int, c Config) *tensor.Tensor {
	n := qkv.Dim(0)
	tasks := n / seqLen * c.Heads
	dh := c.Hidden / c.Heads
	out := tensor.New(n, c.Hidden)
	a := &attnCall{
		qkv: qkv.Data, out: out.Data, scores: make([]float32, tasks*seqLen),
		seqLen: seqLen, heads: c.Heads, hidden: c.Hidden, dh: dh,
		causal: c.Causal, scale: attnScale(dh),
	}
	keys := seqLen * seqLen
	if c.Causal {
		keys = seqLen * (seqLen + 1) / 2
	}
	parallel.ForCtx(tasks, 4*tasks*keys*dh, a, attnChunk)
	return out
}

// attnChunk runs tasks [lo, hi): task t is head t%heads of sequence
// t/heads, every query row of it.
//
//pimdl:hotpath
func attnChunk(ctx any, lo, hi int) {
	a := ctx.(*attnCall)
	h, dh, sl := a.hidden, a.dh, a.seqLen
	stride := 3 * h
	for t := lo; t < hi; t++ {
		row0, off := t/a.heads*sl, t%a.heads*dh
		k := a.qkv[row0*stride+h+off:]
		v := a.qkv[row0*stride+2*h+off:]
		scores := a.scores[t*sl : (t+1)*sl]
		for s := 0; s < sl; s++ {
			r := row0 + s
			nk := sl
			if a.causal {
				nk = s + 1
			}
			attendHead(a.out[r*h+off:][:dh], a.qkv[r*stride+off:][:dh], k, v, scores[:nk], stride, a.scale)
		}
	}
}

// attendRow is single-row multi-head attention for the query row q
// (length Hidden) at position p against the cached rows 0..p of kv,
// writing the concatenated head outputs into out. scores is caller
// scratch of length ≥ p+1. Each head runs the core prefill runs, so a
// cached step equals the matching row of a full forward bit for bit.
//
//pimdl:hotpath
func attendRow(kv *kvBlock, q, out, scores []float32, p int, c Config) {
	dh := c.Hidden / c.Heads
	scale := attnScale(dh)
	for off := 0; off < c.Hidden; off += dh {
		attendHead(out[off:off+dh], q[off:off+dh], kv.k[off:], kv.v[off:], scores[:p+1], c.Hidden, scale)
	}
}
