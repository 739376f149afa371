package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/kmeans"
	"repro/internal/lutnn"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// lutParams is the paper's BERT setting (V=4, CT=16).
var lutParams = lutnn.Params{V: 4, CT: 16}

// clusterRows caps the rows fed to k-means. The calibration sets below
// hold exactly this many rows, so ConvertBaseline never subsamples:
// when it does, CollectActivations draws from one rng in map order and
// the conversion stops being reproducible.
const clusterRows = 512

// benchConfig is the shared encoder shape (bench-enc; bench-dec is the
// same with a causal mask and a longer window). It is the ISSUE's
// H=256 model at 2 blocks instead of 4 so that three set-ups and the
// timed phases fit the per-run time cap.
func benchConfig(sc scale, causal bool) nn.Config {
	c := nn.Config{Name: "bench-enc", Kind: nn.TokenInput, Vocab: 1024, Hidden: 256,
		Layers: 2, Heads: 4, FFN: 1024, SeqLen: 64, Classes: 4, Causal: causal}
	if sc.tiny {
		c.Vocab, c.Hidden, c.Layers, c.Heads, c.FFN, c.SeqLen = 64, 32, 1, 2, 64, 16
	}
	if causal {
		c.Name = "bench-dec"
		c.SeqLen *= 2
	}
	return c
}

func tokenBatch(rng *rand.Rand, c nn.Config, seqs int) *nn.Batch {
	b := &nn.Batch{BatchN: seqs, TokenIDs: make([]int, seqs*c.SeqLen)}
	for i := range b.TokenIDs {
		b.TokenIDs[i] = rng.Intn(c.Vocab)
	}
	return b
}

// calibBatches returns two batches holding clusterRows rows in total
// (fewer at tiny scale).
func calibBatches(rng *rand.Rand, c nn.Config) []*nn.Batch {
	seqs := max(clusterRows/2/c.SeqLen, 1)
	return []*nn.Batch{tokenBatch(rng, c, seqs), tokenBatch(rng, c, seqs)}
}

// convertLUT converts m with the baseline LUT-NN conversion and leaves
// it on the FP32-LUT backend. It also quantizes every table without
// attaching it: Layer.Forward uses QTable whenever it is non-nil, so
// the FP32 phases must run with QTable nil, and building the INT8
// tables here keeps their cost inside setup_s.
func convertLUT(m *nn.Model, calib []*nn.Batch, seed int64) ([]*lutnn.QuantizedLUT, error) {
	err := m.ConvertBaseline(calib, nn.ConvertConfig{Params: lutParams, Seed: seed, MaxClusterRows: clusterRows})
	if err != nil {
		return nil, err
	}
	m.SetBackend(nn.BackendLUT)
	var q []*lutnn.QuantizedLUT
	for _, blk := range m.Blocks {
		for _, r := range nn.Roles {
			l := blk.Linear(r)
			if l.LUT.QTable != nil {
				return nil, fmt.Errorf("QTable set before the FP32-LUT phase")
			}
			q = append(q, l.LUT.Table.Quantize())
		}
	}
	return q, nil
}

// enableINT8 attaches the tables convertLUT quantized and switches the
// model to the INT8-LUT backend.
func enableINT8(m *nn.Model, q []*lutnn.QuantizedLUT) {
	i := 0
	for _, blk := range m.Blocks {
		for _, r := range nn.Roles {
			blk.Linear(r).LUT.QTable = q[i]
			i++
		}
	}
	m.SetBackend(nn.BackendLUTInt8)
}

type prefillState struct {
	m          *nn.Model
	calib      []*nn.Batch
	b1, b2, b8 *nn.Batch
	qtables    []*lutnn.QuantizedLUT
}

func buildPrefill(seed int64, sc scale, lut bool) (*prefillState, error) {
	c := benchConfig(sc, false)
	rng := rand.New(rand.NewSource(seed))
	st := &prefillState{m: nn.NewModel(c, seed), calib: calibBatches(rng, c),
		b1: tokenBatch(rng, c, 1), b2: tokenBatch(rng, c, 2), b8: tokenBatch(rng, c, 8)}
	if lut {
		var err error
		if st.qtables, err = convertLUT(st.m, st.calib, seed); err != nil {
			return nil, err
		}
	}
	for i := 0; i < warmups; i++ {
		st.m.Infer(st.b2, nil)
	}
	return st, nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// inferPhase times Model.Infer on batch and checks that every forward
// reproduces the first one's logits bit for bit. It returns the
// per-forward latencies and the logits.
func inferPhase(b *bench, what string, m *nn.Model, batch *nn.Batch, d time.Duration) ([]float64, *tensor.Tensor) {
	var first *tensor.Tensor
	lat := b.timed(what, d, 1, func(int) error {
		logits := m.Infer(batch, nil)
		if first == nil {
			first = logits
		} else if !sameBits(first.Data, logits.Data) {
			return fmt.Errorf("logits differ from forward 0")
		}
		return nil
	})
	if first != nil {
		b.hashFloat32s(first.Data)
	}
	return lat, first
}

// tokenRate is tokens per second at the median forward latency.
func tokenRate(batch *nn.Batch, lat []float64) float64 {
	return ratio(float64(len(batch.TokenIDs)), median(lat))
}

// int8ErrBound is the stated bound on the relative L2 error of INT8-LUT
// logits against FP32-LUT logits: the error stays below the signal. On
// these randomly initialised models a small table error flips centroid
// choices in later blocks, so the end-to-end error is large (0.2 to 0.6)
// and swings with the seed; quality_frac therefore reads the per-layer
// table fidelity instead, which is steady.
const int8ErrBound = 1.0

// int8Fidelity is 1 minus the relative L2 error of the INT8 tables'
// lookup against the FP32 tables' on the same indices, averaged over
// every converted linear, on the activations the model feeds each one.
func int8Fidelity(m *nn.Model, q []*lutnn.QuantizedLUT, acts map[tapKey]*tensor.Tensor) float64 {
	var rel []float64
	qi := 0
	for li, blk := range m.Blocks {
		for _, r := range nn.Roles {
			ly, a := blk.Linear(r).LUT, acts[tapKey{li, r}]
			idx := ly.Codebooks.Search(a)
			rel = append(rel, tensor.RelativeError(q[qi].Lookup(idx, a.Dim(0)), ly.Table.Lookup(idx, a.Dim(0))))
			qi++
		}
	}
	return 1 - mean(rel)
}

func runPrefill(b *bench, lut bool) error {
	st, err := setup(b, func() (*prefillState, error) { return buildPrefill(b.seed, b.sc, lut) })
	if err != nil {
		return err
	}
	if b.traced {
		return tracePrefill(b, st, lut)
	}
	d := b.sc.phase(3)
	note := func(batch *nn.Batch, lat []float64) string {
		return fmt.Sprintf("%d tokens over the median of %d forwards", len(batch.TokenIDs), len(lat))
	}

	cpu0 := cpuSeconds()
	lat, fp32 := inferPhase(b, "primary", st.m, st.b2, d)
	cpu := cpuSeconds() - cpu0
	b.latency(lat, 1)
	b.emit("work_per_s", tokenRate(st.b2, lat), note(st.b2, lat))
	b.emit("cpu_us_per_work", 1e6*ratio(cpu, float64(len(st.b2.TokenIDs)*len(lat))), "getrusage over the primary phase")

	lat8, _ := inferPhase(b, "scaled", st.m, st.b8, d)
	b.emit("scaled_per_s", tokenRate(st.b8, lat8), note(st.b8, lat8))

	variant, quality := st.b1, 0.0
	if lut {
		variant = st.b2
		quality = int8Fidelity(st.m, st.qtables, captureActs(st.m, st.b2))
		enableINT8(st.m, st.qtables)
		for i := 0; i < warmups; i++ {
			st.m.Infer(variant, nil)
		}
	}
	latV, logitsV := inferPhase(b, "variant", st.m, variant, d)
	b.emit("variant_per_s", tokenRate(variant, latV), note(variant, latV))
	if lut {
		rel := tensor.RelativeError(logitsV, fp32)
		b.check(rel < int8ErrBound, "INT8-LUT logits relative error %.4g exceeds %g", rel, int8ErrBound)
		b.out.printf("INT8-LUT logits relative error against FP32-LUT: %.4g (bound %g)\n", rel, int8ErrBound)
		b.pin("int8_logits_rel_err", rel)
	} else {
		quality = 1 - matmulRefError(st)
	}
	b.pin("quality_frac", quality)
	b.emit("quality_frac", quality, "exact for a seed")
	return nil
}

// matmulRefError is the relative L2 error of the float32 QKV projection
// of block 0 against a float64 reference on the same activations.
func matmulRefError(st *prefillState) float64 {
	acts := captureActs(st.m, st.b2)[tapKey{0, nn.RoleQKV}]
	w := st.m.Blocks[0].QKV.W.T
	got := tensor.MatMulT(acts, w)
	var num, den float64
	for i := 0; i < acts.Dim(0); i++ {
		a := acts.Row(i)
		for f := 0; f < w.Dim(0); f++ {
			wr := w.Row(f)
			var ref float64
			for k := range a {
				ref += float64(a[k]) * float64(wr[k])
			}
			d := float64(got.Row(i)[f]) - ref
			num += d * d
			den += ref * ref
		}
	}
	return math.Sqrt(ratio(num, den))
}

// tapKey identifies one convertible linear's input activations.
type tapKey struct {
	layer int
	role  nn.LinearRole
}

// captureActs clones every convertible linear's input once, untimed.
func captureActs(m *nn.Model, batch *nn.Batch) map[tapKey]*tensor.Tensor {
	out := map[tapKey]*tensor.Tensor{}
	m.Infer(batch, func(layer int, role nn.LinearRole, a *tensor.Tensor) {
		out[tapKey{layer, role}] = a.Clone()
	})
	return out
}

// --- traced pass -------------------------------------------------------------

// segment names in forward order; see the nn.seg_* rows of metrics.go.
var segNames = [...]string{"nn.seg_embed_s", "nn.seg_qkv_attn_s", "nn.seg_o_s", "nn.seg_ffn1_s", "nn.seg_ffn2_s", "nn.seg_head_s"}

// tracedInfer runs one forward with a tap that only reads the clock,
// and records the forward as a span tiled by its segments.
func tracedInfer(b *bench, m *nn.Model, batch *nn.Batch, op int) (fwd float64, segs [len(segNames)]float64) {
	layers := len(m.Blocks)
	start := time.Now()
	prev, seg := start, 0
	type cut struct {
		seg      int
		from, to time.Time
	}
	cuts := make([]cut, 0, 4*layers+2)
	m.Infer(batch, func(layer int, role nn.LinearRole, _ *tensor.Tensor) {
		now := time.Now()
		cuts = append(cuts, cut{seg, prev, now})
		prev = now
		switch role {
		case nn.RoleQKV:
			seg = 1
		case nn.RoleO:
			seg = 2
		case nn.RoleFFN1:
			seg = 3
		case nn.RoleFFN2:
			seg = 4
			if layer == layers-1 {
				seg = 5
			}
		}
	})
	end := time.Now()
	cuts = append(cuts, cut{seg, prev, end})
	root := b.spans.add("nn.Infer", -1, op, start, end, float64(len(batch.TokenIDs)))
	for _, c := range cuts {
		b.spans.add(segNames[c.seg], root, op, c.from, c.to, 0)
		segs[c.seg] += c.to.Sub(c.from).Seconds()
	}
	return end.Sub(start).Seconds(), segs
}

func tracePrefill(b *bench, st *prefillState, lut bool) error {
	m, batch := st.m, st.b2
	c := m.Config
	d := b.sc.phase(6)

	// Untraced reference, then the traced forwards.
	ref, _ := inferPhase(b, "untraced reference", m, batch, d)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var fwds []float64
	var segSum [len(segNames)][]float64
	b.timed("traced forward", d, 1, func(i int) error {
		fwd, segs := tracedInfer(b, m, batch, i)
		fwds = append(fwds, fwd)
		for s, v := range segs {
			segSum[s] = append(segSum[s], v)
		}
		return nil
	})
	runtime.ReadMemStats(&ms1)
	n := float64(len(fwds))
	fwd := median(fwds)
	b.emit("trace.overhead_frac", median(fwds)/median(ref)-1, fmt.Sprintf("%d traced vs %d untraced forwards", len(fwds), len(ref)))
	b.emit("nn.fwd_s", fwd, fmt.Sprintf("median of %d forwards", len(fwds)))
	var tiled float64
	segMean := map[string]float64{}
	for s, name := range segNames {
		segMean[name] = mean(segSum[s])
		tiled += segMean[name]
		b.emit(name, segMean[name], "mean per forward")
	}
	segErr := math.Abs(tiled-mean(fwds)) / mean(fwds)
	b.check(segErr < 0.01, "segments tile %.3g of the forward away", segErr)
	b.emit("nn.seg_sum_err", segErr, "|sum of segment means - mean forward| / mean forward")
	b.emit("nn.alloc_mb_per_fwd", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n/(1<<20), "runtime.MemStats")
	b.emit("nn.allocs_per_fwd", float64(ms1.Mallocs-ms0.Mallocs)/n, "runtime.MemStats")
	b.emit("nn.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, fmt.Sprintf("over %d forwards", len(fwds)))

	// Kernel replays on activations captured once from the tap.
	acts := captureActs(m, batch)
	root := b.spans.begin("replay", -1, 0)
	defer b.spans.close(root)
	var qkvLinear float64
	if lut {
		qkvLinear = replayLUT(b, st, acts, root)
	} else {
		qkvLinear = replayGEMM(b, st, acts, root)
	}
	b.emit("tensor.attn_s", segMean["nn.seg_qkv_attn_s"]-qkvLinear, "derived: QKV-to-O segment minus standalone QKV linear")

	// Elementwise operators at the model's shapes, per forward.
	rows := len(batch.TokenIDs)
	x := acts[tapKey{0, nn.RoleQKV}]
	blk := m.Blocks[0]
	ln := b.spans.replay("tensor.LayerNormRows", root, 0, float64(rows), func() { tensor.LayerNormRows(x, blk.LN1g.T, blk.LN1b.T, 1e-5) })
	b.emit("tensor.layernorm_s", ln*float64(2*c.Layers+1), fmt.Sprintf("%d calls per forward", 2*c.Layers+1))
	inner := acts[tapKey{0, nn.RoleFFN2}]
	gelu := b.spans.replay("tensor.GELU", root, 0, float64(rows), func() { tensor.GELU(inner) })
	b.emit("tensor.gelu_s", gelu*float64(c.Layers), fmt.Sprintf("%d calls per forward", c.Layers))
	scores := tensor.RandN(rand.New(rand.NewSource(b.seed)), 1, c.SeqLen, c.SeqLen)
	heads := batch.BatchN * c.Heads * c.Layers
	soft := b.spans.replay("tensor.SoftmaxRows", root, 0, float64(c.SeqLen), func() { tensor.SoftmaxRows(scores) })
	b.emit("tensor.softmax_s", soft*float64(heads), fmt.Sprintf("%d calls per forward", heads))
	return nil
}

// replayGEMM times MatMulT per role on the captured activations and
// returns the standalone QKV linear time per forward.
func replayGEMM(b *bench, st *prefillState, acts map[tapKey]*tensor.Tensor, root int) float64 {
	var total, flops, qkv float64
	for li, blk := range st.m.Blocks {
		for _, r := range nn.Roles {
			a, w := acts[tapKey{li, r}], blk.Linear(r).W.T
			secs := b.spans.replay("tensor.MatMulT", root, li, float64(a.Dim(0)), func() { tensor.MatMulT(a, w) })
			total += secs
			flops += 2 * float64(a.Dim(0)) * float64(a.Dim(1)) * float64(w.Dim(0))
			if r == nn.RoleQKV {
				qkv += secs
			}
		}
	}
	b.emit("tensor.matmul_s", total, "summed over roles and blocks, per forward")
	b.emit("tensor.matmul_gflops", ratio(flops, total)/1e9, "2NHF computed")
	return qkv
}

// replayLUT times the lutnn batch kernels per role on the captured
// activations, checks them against references owned by the benchmark,
// and returns the standalone fused QKV linear time per forward.
func replayLUT(b *bench, st *prefillState, acts map[tapKey]*tensor.Tensor, root int) float64 {
	var ccs, ccsOps, look32, look8, bytes32, fused32, fused8, qkv float64
	qi := 0
	for li, blk := range st.m.Blocks {
		for _, r := range nn.Roles {
			a, ly := acts[tapKey{li, r}], blk.Linear(r).LUT
			q := st.qtables[qi]
			qi++
			n, cb, f := a.Dim(0), ly.Codebooks.CB, ly.Table.F
			idx := make([]uint8, n*cb)
			out := tensor.New(n, f)
			span := func(name string, fn func()) float64 { return b.spans.replay(name, root, li, float64(n), fn) }
			ccs += span("lutnn.SearchInto", func() { ly.Codebooks.SearchInto(idx, a) })
			ccsOps += float64(lutnn.CCSOps(n, a.Dim(1), ly.Codebooks.CT).Total())
			bad := nearestViolations(ly.Codebooks, a, idx)
			b.check(bad == 0, "block %d %v: %d CCS indices are not a nearest centroid", li, r, bad)

			look32 += span("lutnn.LookupInto", func() { ly.Table.LookupInto(out, idx, n) })
			b.check(sameBits(out.Data, refLookup(ly.Table, idx, n)), "block %d %v: LookupInto differs from the cb-order reference", li, r)
			bytes32 += 4 * float64(n) * float64(cb) * float64(f)
			look8 += span("lutnn.QLookupInto", func() { q.LookupInto(out, idx, n) })

			f32 := &lutnn.Layer{Codebooks: ly.Codebooks, Table: ly.Table, Bias: ly.Bias}
			s := span("lutnn.ForwardInto", func() { f32.ForwardInto(out, a) })
			fused32 += s
			if r == nn.RoleQKV {
				qkv += s
			}
			i8 := &lutnn.Layer{Codebooks: ly.Codebooks, Table: ly.Table, QTable: q, Bias: ly.Bias}
			fused8 += span("lutnn.ForwardInto.int8", func() { i8.ForwardInto(out, a) })
		}
	}
	copyGBps := b.vals["host.copy_gbps"]
	b.emit("lutnn.ccs_s", ccs, "summed over roles and blocks, per forward")
	b.emit("lutnn.ccs_gops", ratio(ccsOps, ccs)/1e9, "CCSOps computed")
	b.emit("lutnn.lookup_fp32_s", look32, "per forward")
	b.emit("lutnn.lookup_fp32_gbps", ratio(bytes32, look32)/1e9, "N*CB*F*4 table bytes computed")
	b.emit("lutnn.lookup_fp32_roof_frac", ratio(ratio(bytes32, look32)/1e9, copyGBps), "over host.copy_gbps")
	b.emit("lutnn.lookup_int8_s", look8, "per forward")
	b.emit("lutnn.lookup_int8_gbps", ratio(bytes32/4, look8)/1e9, "N*CB*F table bytes computed")
	b.emit("lutnn.lookup_int8_roof_frac", ratio(ratio(bytes32/4, look8)/1e9, copyGBps), "over host.copy_gbps")
	b.emit("lutnn.int8_over_fp32", ratio(look8, look32), "lookup_int8_s / lookup_fp32_s")
	b.emit("lutnn.fused_fp32_s", fused32, "per forward")
	b.emit("lutnn.fused_int8_s", fused8, "per forward")
	b.emit("lutnn.fused_over_parts", ratio(fused32, ccs+look32), "fused_fp32_s / (ccs_s + lookup_fp32_s)")

	// Build cost on the first QKV layer's calibration activations (taken
	// on the GEMM backend, as ConvertBaseline takes them), and one
	// codebook's k-means.
	st.m.SetBackend(nn.BackendGEMM)
	a0 := st.m.CollectActivations(st.calib, clusterRows, b.seed)[0][nn.RoleQKV]
	st.m.SetBackend(nn.BackendLUT)
	w0 := st.m.Blocks[0].QKV.W.T
	var cbs *lutnn.Codebooks
	secs := b.spans.call("lutnn.BuildCodebooks", root, 0, float64(a0.Dim(0)), func() {
		cbs, _ = lutnn.BuildCodebooks(a0, lutParams, b.seed) // shapes were validated by the conversion in set-up
	})
	b.emit("lutnn.build_codebooks_s", secs, fmt.Sprintf("%d rows, %d codebooks", a0.Dim(0), cbs.CB))
	secs = b.spans.call("lutnn.BuildLUT", root, 0, float64(w0.Dim(0)), func() {
		_, _ = lutnn.BuildLUT(cbs, w0) // same shapes as the converted layer
	})
	b.emit("lutnn.build_lut_s", secs, "first QKV layer")
	var fp32MB, int8MB float64
	secs = b.spans.call("lutnn.Quantize", root, 0, 0, func() {
		for _, blk := range st.m.Blocks {
			for _, r := range nn.Roles {
				t := blk.Linear(r).LUT.Table
				fp32MB += float64(t.SizeBytes(4)) / (1 << 20)
				int8MB += float64(t.Quantize().SizeBytes()) / (1 << 20)
			}
		}
	})
	b.emit("lutnn.quantize_s", secs, "every converted layer")
	b.emit("lutnn.table_mb_fp32", fp32MB, "SizeBytes(4) summed")
	b.emit("lutnn.table_mb_int8", int8MB, "SizeBytes summed")

	rows, v := a0.Dim(0), lutParams.V
	sub := make([]float32, rows*v)
	for i := 0; i < rows; i++ {
		copy(sub[i*v:(i+1)*v], a0.Row(i)[:v])
	}
	var res *kmeans.Result
	secs = b.spans.call("kmeans.Run", root, 0, float64(rows), func() {
		res = kmeans.Run(sub, rows, v, kmeans.Config{K: lutParams.CT, Seed: b.seed, Restarts: 1})
	})
	b.emit("kmeans.run_ms", 1e3*secs, fmt.Sprintf("%d points x %d dims, k=%d, %d iterations", rows, v, lutParams.CT, res.Iterations))
	b.emit("kmeans.points_per_s", ratio(float64(rows*res.Iterations), secs), "points x iterations")
	return qkv
}

// refLookup is the benchmark's own serial lookup: codebooks in
// ascending order, float32 accumulation.
func refLookup(l *lutnn.LUT, idx []uint8, n int) []float32 {
	out := make([]float32, n*l.F)
	for i := 0; i < n; i++ {
		dst := out[i*l.F : (i+1)*l.F]
		for cb := 0; cb < l.CB; cb++ {
			src := l.Slice(cb, int(idx[i*l.CB+cb]))
			for f, v := range src {
				dst[f] += v
			}
		}
	}
	return out
}

// nearestViolations counts indices whose centroid is farther, in
// float64, than the nearest one by more than 1e-5 (relative slack).
func nearestViolations(c *lutnn.Codebooks, acts *tensor.Tensor, idx []uint8) int {
	bad := 0
	dist := func(sub, cent []float32) float64 {
		var d float64
		for k := range sub {
			e := float64(sub[k]) - float64(cent[k])
			d += e * e
		}
		return d
	}
	for i := 0; i < acts.Dim(0); i++ {
		row := acts.Row(i)
		for cb := 0; cb < c.CB; cb++ {
			sub := row[cb*c.V : (cb+1)*c.V]
			best := math.Inf(1)
			for ct := 0; ct < c.CT; ct++ {
				best = math.Min(best, dist(sub, c.Centroid(cb, ct)))
			}
			if got := dist(sub, c.Centroid(cb, int(idx[i*c.CB+cb]))); got > best+1e-5*(1+best) {
				bad++
			}
		}
	}
	return bad
}
