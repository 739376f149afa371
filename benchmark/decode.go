package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/lutnn"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

const batchSessions = 8

type decodeState struct {
	m       *nn.Model
	qtables []*lutnn.QuantizedLUT
	prompts [][]int // batchSessions seeded prompts
	steps   int     // greedy tokens per session; prompt + steps stays inside the window, so no rebase
}

func buildDecode(seed int64, sc scale) (*decodeState, error) {
	c := benchConfig(sc, true)
	rng := rand.New(rand.NewSource(seed))
	st := &decodeState{m: nn.NewModel(c, seed), steps: 100}
	promptLen := 16
	if sc.tiny {
		st.steps, promptLen = 8, 4
	}
	calib := calibBatches(rng, c)
	for i := 0; i < batchSessions; i++ {
		p := make([]int, promptLen)
		for j := range p {
			p[j] = rng.Intn(c.Vocab)
		}
		st.prompts = append(st.prompts, p)
	}
	var err error
	if st.qtables, err = convertLUT(st.m, calib, seed); err != nil {
		return nil, err
	}
	for i := 0; i < warmups; i++ {
		if _, err := soloSession(st, i, nil); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// session is what one solo decode produced and how long its parts took.
type session struct {
	tokens []int
	first  []float32 // next-token logits right after prefill
	ttft   float64   // NewDecodeSession + first Pick
	gaps   []float64 // one Feed + Pick per generated token after the first
}

// soloSession decodes st.steps greedy tokens from prompt i. With a span
// recorder it also records every call into nn as a span.
func soloSession(st *decodeState, i int, sp *spanRec) (*session, error) {
	prompt := st.prompts[i%len(st.prompts)]
	out := &session{tokens: make([]int, 0, st.steps), gaps: make([]float64, 0, st.steps-1)}
	root := -1
	if sp != nil {
		root = sp.begin("decode.session", -1, i)
		defer sp.close(root)
	}
	t0 := time.Now()
	s, err := nn.NewDecodeSession(st.m, prompt)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tok := s.Pick(0, nil)
	t2 := time.Now()
	out.ttft = t2.Sub(t0).Seconds()
	out.first = append([]float32(nil), s.Logits()...)
	out.tokens = append(out.tokens, tok)
	if sp != nil {
		sp.add("nn.NewDecodeSession", root, i, t0, t1, float64(len(prompt)))
		sp.add("nn.Pick", root, i, t1, t2, 1)
	}
	for len(out.tokens) < st.steps {
		g0 := time.Now()
		if err := s.Feed(tok); err != nil {
			return nil, err
		}
		g1 := time.Now()
		tok = s.Pick(0, nil)
		g2 := time.Now()
		out.gaps = append(out.gaps, g2.Sub(g0).Seconds())
		out.tokens = append(out.tokens, tok)
		if sp != nil {
			sp.add("nn.Feed", root, i, g0, g1, 1)
			sp.add("nn.Pick", root, i, g1, g2, 1)
		}
	}
	return out, nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// soloPhase runs solo sessions for d, cycling the prompts at least once,
// and checks that a prompt always decodes to the same tokens. It returns
// the first session of every prompt, all inter-token gaps and all TTFTs.
func soloPhase(b *bench, what string, st *decodeState, d time.Duration, sp *spanRec) (ref []*session, gaps, ttfts []float64) {
	ref = make([]*session, len(st.prompts))
	b.timed(what, d, len(st.prompts), func(i int) error {
		s, err := soloSession(st, i, sp)
		if err != nil {
			return err
		}
		gaps = append(gaps, s.gaps...)
		ttfts = append(ttfts, s.ttft)
		p := i % len(st.prompts)
		if ref[p] == nil {
			ref[p] = s
			b.hashInts(s.tokens)
		} else if !sameInts(ref[p].tokens, s.tokens) {
			return fmt.Errorf("prompt %d decoded to different tokens than its first session", p)
		}
		return nil
	})
	return ref, gaps, ttfts
}

// batchRun steps all prompts together through one DecodeBatch and
// returns each session's tokens and the per-step times (Feed + Picks).
func batchRun(st *decodeState, op int, sp *spanRec) ([][]int, []float64, error) {
	db := nn.NewDecodeBatch(st.m)
	sessions := make([]*nn.DecodeSession, len(st.prompts))
	toks := make([]int, len(st.prompts))
	out := make([][]int, len(st.prompts))
	for i, p := range st.prompts {
		s, err := nn.NewDecodeSession(st.m, p)
		if err != nil {
			return nil, nil, err
		}
		sessions[i] = s
		toks[i] = s.Pick(0, nil)
		out[i] = append(out[i], toks[i])
	}
	if err := db.SetSessions(sessions); err != nil {
		return nil, nil, err
	}
	var steps []float64
	for n := 1; n < st.steps; n++ {
		t0 := time.Now()
		if err := db.Feed(toks); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		for i, s := range sessions {
			toks[i] = s.Pick(0, nil)
			out[i] = append(out[i], toks[i])
		}
		steps = append(steps, time.Since(t0).Seconds())
		if sp != nil {
			sp.add("nn.DecodeBatch.Feed", -1, op, t0, t1, float64(len(sessions)))
		}
	}
	return out, steps, nil
}

// batchPhase runs batched decodes for d and checks them against the
// solo sessions of the same prompts.
func batchPhase(b *bench, st *decodeState, d time.Duration, ref []*session, sp *spanRec) (steps []float64) {
	b.timed("batch-8 decode", d, 1, func(i int) error {
		toks, s, err := batchRun(st, i, sp)
		if err != nil {
			return err
		}
		steps = append(steps, s...)
		for p := range toks {
			if !sameInts(toks[p], ref[p].tokens) {
				return fmt.Errorf("DecodeBatch session %d differs from its solo session", p)
			}
		}
		return nil
	})
	return steps
}

func runDecode(b *bench) error {
	st, err := setup(b, func() (*decodeState, error) { return buildDecode(b.seed, b.sc) })
	if err != nil {
		return err
	}
	if b.traced {
		return traceDecode(b, st)
	}
	d := b.sc.phase(3)

	cpu0 := cpuSeconds()
	fp32, gaps, ttfts := soloPhase(b, "FP32-LUT solo", st, d, nil)
	cpu := cpuSeconds() - cpu0
	b.latency(gaps, 1)
	b.emit("work_per_s", ratio(1, median(gaps)), fmt.Sprintf("one token over the median of %d inter-token gaps, %d sessions; median TTFT %.3f ms", len(gaps), len(ttfts), 1e3*median(ttfts)))
	b.emit("cpu_us_per_work", 1e6*ratio(cpu, float64(len(gaps)+len(ttfts))), "getrusage over the primary phase, per generated token")

	steps := batchPhase(b, st, d, fp32, nil)
	b.emit("scaled_per_s", ratio(float64(len(st.prompts)), median(steps)), fmt.Sprintf("%d tokens over the median of %d batched steps", len(st.prompts), len(steps)))

	quality := int8Fidelity(st.m, st.qtables, captureActs(st.m, windowBatch(st)))
	enableINT8(st.m, st.qtables)
	for i := 0; i < warmups; i++ {
		if _, err := soloSession(st, i, nil); err != nil {
			return err
		}
	}
	int8, gaps8, _ := soloPhase(b, "INT8-LUT solo", st, d, nil)
	b.emit("variant_per_s", ratio(1, median(gaps8)), fmt.Sprintf("one token over the median of %d inter-token gaps", len(gaps8)))

	var rel []float64
	for p := range fp32 {
		rel = append(rel, tensor.RelativeError(tensor.FromSlice(int8[p].first, len(int8[p].first)),
			tensor.FromSlice(fp32[p].first, len(fp32[p].first))))
	}
	b.check(mean(rel) < int8ErrBound, "INT8-LUT first-step logits relative error %.4g exceeds %g", mean(rel), int8ErrBound)
	b.out.printf("INT8-LUT first-step logits relative error against FP32-LUT: %.4g (bound %g)\n", mean(rel), int8ErrBound)
	b.pin("int8_logits_rel_err", mean(rel))
	b.pin("quality_frac", quality)
	b.emit("quality_frac", quality, "exact for a seed")

	checkNaive(b, st, min(8, st.steps))
	return nil
}

// checkNaive checks the KV-cached path against the uncached Generate
// and returns both wall times.
func checkNaive(b *bench, st *decodeState, steps int) (naive, cached float64) {
	var want, got []int
	b.do("Generate", func() (err error) {
		t0 := time.Now()
		want, err = st.m.Generate(st.prompts[0], steps, 0, nil)
		naive = time.Since(t0).Seconds()
		return err
	})
	b.do("GenerateCached", func() (err error) {
		t0 := time.Now()
		got, err = st.m.GenerateCached(st.prompts[0], steps, 0, nil)
		cached = time.Since(t0).Seconds()
		return err
	})
	b.check(sameInts(want, got), "GenerateCached tokens differ from Generate")
	return naive, cached
}

func traceDecode(b *bench, st *decodeState) error {
	d := b.sc.phase(6)
	ref, refGaps, _ := soloPhase(b, "untraced reference", st, d, nil)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	first := len(b.spans.spans)
	_, gaps, ttfts := soloPhase(b, "traced solo", st, d, b.spans)
	runtime.ReadMemStats(&ms1)
	b.emit("trace.overhead_frac", median(gaps)/median(refGaps)-1, fmt.Sprintf("%d traced vs %d untraced gaps", len(gaps), len(refGaps)))
	durs := map[string][]float64{}
	for _, s := range b.spans.spans[first:] {
		durs[s.Name] = append(durs[s.Name], s.End-s.Start)
	}
	b.emit("nn.ttft_ms", 1e3*median(ttfts), fmt.Sprintf("median of %d sessions", len(ttfts)))
	b.emit("nn.prefill_session_ms", 1e3*median(durs["nn.NewDecodeSession"]), fmt.Sprintf("%d-token prompts", len(st.prompts[0])))
	b.emit("nn.decode_step_ms", 1e3*median(durs["nn.Feed"]), fmt.Sprintf("median of %d", len(durs["nn.Feed"])))
	b.emit("nn.pick_us", 1e6*median(durs["nn.Pick"]), fmt.Sprintf("median of %d", len(durs["nn.Pick"])))
	b.emit("nn.decode_gap_p99_ms", 1e3*percentile(gaps, 99), fmt.Sprintf("p99 of %d gaps", len(gaps)))
	b.emit("nn.allocs_per_token", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(gaps)+len(ttfts)), "runtime.MemStats, span recording included")

	steps := batchPhase(b, st, d, ref, b.spans)
	var feeds []float64
	for _, s := range b.spans.spans {
		if s.Name == "nn.DecodeBatch.Feed" {
			feeds = append(feeds, s.End-s.Start)
		}
	}
	b.emit("nn.batch8_step_ms", 1e3*median(feeds), fmt.Sprintf("median of %d", len(feeds)))
	b.emit("nn.batch8_over_solo", ratio(median(steps)/float64(len(st.prompts)), median(gaps)), "per-token step time, batch over solo")

	naive, cached := checkNaive(b, st, min(32, st.steps))
	b.emit("nn.naive_over_cached", ratio(naive, cached), fmt.Sprintf("%d tokens", min(32, st.steps)))

	traceRowKernels(b, st)

	// One dispatch of the shared pool over an empty body, with a work
	// estimate just above the threshold that makes For go parallel.
	const dispatches = 20000
	secs := b.spans.call("parallel.For", -1, 0, dispatches, func() {
		for i := 0; i < dispatches; i++ {
			parallel.For(64, 1<<18, func(lo, hi int) {})
		}
	})
	b.emit("parallel.for_dispatch_ns", 1e9*secs/dispatches, fmt.Sprintf("%d dispatches, %d workers", dispatches, parallel.Workers()))
	return nil
}

// windowBatch is one full window starting with prompt 0 (zero padded):
// the batch whose tapped activations feed the row-kernel replays and the
// INT8 fidelity figure.
func windowBatch(st *decodeState) *nn.Batch {
	batch := &nn.Batch{BatchN: 1, TokenIDs: make([]int, st.m.Config.SeqLen)}
	copy(batch.TokenIDs, st.prompts[0])
	return batch
}

// traceRowKernels replays the single-row lutnn kernels on rows captured
// from the model's own activations and checks them against the
// benchmark's references.
func traceRowKernels(b *bench, st *decodeState) {
	acts := captureActs(st.m, windowBatch(st))
	root := b.spans.begin("replay", -1, 0)
	defer b.spans.close(root)

	const rows = 16
	var ccs, gather, fwd32, fwd8, pruned, candidates, calls float64
	qi := 0
	for li, blk := range st.m.Blocks {
		for _, r := range nn.Roles {
			ly, a := blk.Linear(r).LUT, acts[tapKey{li, r}]
			q := st.qtables[qi]
			qi++
			rs := lutnn.NewRowSearcher(ly.Codebooks)
			dl := lutnn.NewDecodeLUT(ly.Table)
			f32 := &lutnn.Layer{Codebooks: ly.Codebooks, Table: ly.Table, Bias: ly.Bias}
			i8 := &lutnn.Layer{Codebooks: ly.Codebooks, Table: ly.Table, QTable: q, Bias: ly.Bias}
			f32.EnableDecode()
			i8.EnableDecode()
			idx := make([]uint8, rows*ly.Codebooks.CB)
			out := make([]float32, rows*ly.Table.F)
			cb, f := ly.Codebooks.CB, ly.Table.F
			each := func(fn func(i int)) func() {
				return func() {
					for i := 0; i < rows; i++ {
						fn(i)
					}
				}
			}
			ccs += b.spans.replay("lutnn.SearchRowInto", root, li, rows, each(func(i int) {
				rs.SearchRowInto(idx[i*cb:(i+1)*cb], a.Row(i))
			}))
			for i := 0; i < rows; i++ {
				pruned += float64(rs.SearchRowInto(idx[i*cb:(i+1)*cb], a.Row(i)))
			}
			candidates += float64(rows * cb * ly.Codebooks.CT)
			head := tensor.SliceRows(a, 0, rows)
			bad := nearestViolations(ly.Codebooks, head, idx)
			b.check(bad == 0, "block %d %v: %d row-search indices are not a nearest centroid", li, r, bad)
			gather += b.spans.replay("lutnn.LookupRowInto", root, li, rows, each(func(i int) {
				dl.LookupRowInto(out[i*f:(i+1)*f], idx[i*cb:(i+1)*cb])
			}))
			b.check(sameBits(out, refLookup(ly.Table, idx, rows)), "block %d %v: LookupRowInto differs from the cb-order reference", li, r)
			fwd32 += b.spans.replay("lutnn.ForwardRowInto", root, li, rows, each(func(i int) {
				f32.ForwardRowInto(out[i*f:(i+1)*f], a.Row(i))
			}))
			fwd8 += b.spans.replay("lutnn.ForwardRowInto.int8", root, li, rows, each(func(i int) {
				i8.ForwardRowInto(out[i*f:(i+1)*f], a.Row(i))
			}))
			calls += rows
		}
	}
	note := fmt.Sprintf("mean over %d rows x %d layers", rows, len(st.m.Blocks)*len(nn.Roles))
	b.emit("lutnn.ccs_row_ns", 1e9*ccs/calls, note)
	b.emit("lutnn.ccs_row_pruned_frac", ratio(pruned, candidates), "SearchRowInto return value over CB*CT")
	b.emit("lutnn.gather_row_fp32_ns", 1e9*gather/calls, note)
	b.emit("lutnn.forward_row_fp32_ns", 1e9*fwd32/calls, note)
	b.emit("lutnn.forward_row_int8_ns", 1e9*fwd8/calls, note)
}
