package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/autograd"
	"repro/internal/lutnn"
	"repro/internal/tensor"
)

// synthTokenBatches builds a learnable token-classification task: the label
// is determined by which "marker" token appears in the sequence.
func synthTokenBatches(rng *rand.Rand, c Config, nBatches, batchN int) []*Batch {
	out := make([]*Batch, nBatches)
	for bi := range out {
		b := &Batch{BatchN: batchN}
		for s := 0; s < batchN; s++ {
			label := rng.Intn(c.Classes)
			ids := make([]int, c.SeqLen)
			for i := range ids {
				ids[i] = 2 + c.Classes + rng.Intn(c.Vocab-2-c.Classes)
			}
			// Plant the class marker token at a random position.
			ids[rng.Intn(c.SeqLen)] = 2 + label
			b.TokenIDs = append(b.TokenIDs, ids...)
			b.Labels = append(b.Labels, label)
		}
		out[bi] = b
	}
	return out
}

// synthPatchBatches builds a ViT-style task: patches are class templates
// plus noise.
func synthPatchBatches(rng *rand.Rand, c Config, nBatches, batchN int) []*Batch {
	// Templates are drawn from a fixed seed so train and test batches share
	// the same class structure.
	templates := tensor.RandN(rand.New(rand.NewSource(424242)), 1, c.Classes, c.PatchDim)
	out := make([]*Batch, nBatches)
	for bi := range out {
		b := &Batch{BatchN: batchN}
		patches := tensor.New(batchN*c.SeqLen, c.PatchDim)
		for s := 0; s < batchN; s++ {
			label := rng.Intn(c.Classes)
			for p := 0; p < c.SeqLen; p++ {
				row := patches.Row(s*c.SeqLen + p)
				tmpl := templates.Row(label)
				for j := range row {
					row[j] = tmpl[j] + float32(rng.NormFloat64()*0.3)
				}
			}
			b.Labels = append(b.Labels, label)
		}
		b.Patches = patches
		out[bi] = b
	}
	return out
}

func TestModelForwardShapes(t *testing.T) {
	c := Tiny(TokenInput, 8, 3)
	m := NewModel(c, 1)
	rng := rand.New(rand.NewSource(2))
	b := synthTokenBatches(rng, c, 1, 4)[0]
	logits := m.Forward(b)
	if logits.T.Dim(0) != 4 || logits.T.Dim(1) != 3 {
		t.Fatalf("logits shape %v", logits.T.Shape())
	}
}

func TestInferMatchesForward(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	m := NewModel(c, 3)
	rng := rand.New(rand.NewSource(4))
	b := synthTokenBatches(rng, c, 1, 3)[0]
	ag := m.Forward(b).T
	inf := m.Infer(b, nil)
	if tensor.MaxAbsDiff(ag, inf) > 1e-4 {
		t.Fatalf("Infer diverges from Forward by %g", tensor.MaxAbsDiff(ag, inf))
	}
}

func TestInferMatchesForwardPatchInput(t *testing.T) {
	c := Tiny(PatchInput, 5, 3)
	m := NewModel(c, 5)
	rng := rand.New(rand.NewSource(6))
	b := synthPatchBatches(rng, c, 1, 3)[0]
	ag := m.Forward(b).T
	inf := m.Infer(b, nil)
	if tensor.MaxAbsDiff(ag, inf) > 1e-4 {
		t.Fatalf("Infer diverges from Forward by %g", tensor.MaxAbsDiff(ag, inf))
	}
}

func TestTrainingLearnsTokenTask(t *testing.T) {
	c := Tiny(TokenInput, 8, 2)
	m := NewModel(c, 7)
	rng := rand.New(rand.NewSource(8))
	train := synthTokenBatches(rng, c, 12, 8)
	test := synthTokenBatches(rng, c, 4, 8)
	m.Train(train, TrainConfig{LearningRate: 3e-3, Epochs: 20, ClipNorm: 1})
	if acc := m.Accuracy(test); acc < 0.8 {
		t.Fatalf("model failed to learn: accuracy %.2f", acc)
	}
}

func TestTrainingLearnsPatchTask(t *testing.T) {
	c := Tiny(PatchInput, 4, 3)
	m := NewModel(c, 9)
	rng := rand.New(rand.NewSource(10))
	train := synthPatchBatches(rng, c, 10, 8)
	test := synthPatchBatches(rng, c, 4, 8)
	m.Train(train, TrainConfig{LearningRate: 3e-3, Epochs: 15, ClipNorm: 1})
	if acc := m.Accuracy(test); acc < 0.8 {
		t.Fatalf("model failed to learn: accuracy %.2f", acc)
	}
}

func TestCollectActivationsShapes(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	m := NewModel(c, 11)
	rng := rand.New(rand.NewSource(12))
	batches := synthTokenBatches(rng, c, 2, 4)
	acts := m.CollectActivations(batches, 1000, 13)
	if len(acts) != c.Layers {
		t.Fatalf("captured %d layers, want %d", len(acts), c.Layers)
	}
	for li := 0; li < c.Layers; li++ {
		for _, r := range Roles {
			a, ok := acts[li][r]
			if !ok {
				t.Fatalf("missing activations for layer %d %v", li, r)
			}
			wantW := c.Hidden
			if r == RoleFFN2 {
				wantW = c.FFN
			}
			if a.Dim(1) != wantW {
				t.Fatalf("layer %d %v width %d, want %d", li, r, a.Dim(1), wantW)
			}
			if a.Dim(0) != 2*4*c.SeqLen {
				t.Fatalf("layer %d %v rows %d", li, r, a.Dim(0))
			}
		}
	}
}

func TestCollectActivationsSamplesDown(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	m := NewModel(c, 14)
	rng := rand.New(rand.NewSource(15))
	batches := synthTokenBatches(rng, c, 3, 4)
	acts := m.CollectActivations(batches, 10, 16)
	if got := acts[0][RoleQKV].Dim(0); got != 10 {
		t.Fatalf("sampled rows %d, want 10", got)
	}
}

// TestConvertBaselineReproducibleWhenSubsampling converts one model
// repeatedly with calibration rows above MaxClusterRows: the subsampling
// draws share one rng across layers, so they must not depend on map
// iteration order.
func TestConvertBaselineReproducibleWhenSubsampling(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	m := NewModel(c, 21)
	batches := synthTokenBatches(rand.New(rand.NewSource(22)), c, 3, 4)
	cfg := ConvertConfig{Params: lutnn.Params{V: 2, CT: 8}, Seed: 23, MaxClusterRows: 16}
	codebooks := func() [][]float32 {
		if err := m.ConvertBaseline(batches, cfg); err != nil {
			t.Fatal(err)
		}
		var out [][]float32
		for _, blk := range m.Blocks {
			for _, r := range Roles {
				out = append(out, blk.Linear(r).LUT.Codebooks.Data)
			}
		}
		return out
	}
	want := codebooks()
	for run := 1; run < 5; run++ {
		for i, got := range codebooks() {
			if !sameBits(got, want[i]) {
				t.Fatalf("run %d: linear %d codebooks differ from run 0", run, i)
			}
		}
	}
}

func TestConvertBaselineAttachesAllLayers(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	m := NewModel(c, 17)
	rng := rand.New(rand.NewSource(18))
	batches := synthTokenBatches(rng, c, 2, 4)
	cfg := ConvertConfig{Params: lutnn.Params{V: 2, CT: 8}, Seed: 19}
	if err := m.ConvertBaseline(batches, cfg); err != nil {
		t.Fatal(err)
	}
	for li, blk := range m.Blocks {
		for _, r := range Roles {
			if blk.Linear(r).LUT == nil {
				t.Fatalf("layer %d %v not converted", li, r)
			}
		}
	}
	m.SetBackend(BackendLUT)
	_ = m.Infer(batches[0], nil) // must not panic
	m.SetBackend(BackendLUTInt8)
	_ = m.Infer(batches[0], nil)
}

func TestSetBackendPanicsWithoutConversion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel(Tiny(TokenInput, 4, 2), 20).SetBackend(BackendLUT)
}

// TestSetBackendLUTAfterINT8 switches a converted model FP32 -> INT8 ->
// FP32 -> INT8: each FP32 leg must reproduce the never-quantized logits
// bit for bit on the batch path and the decode row path, and each INT8
// leg the first INT8 logits.
func TestSetBackendLUTAfterINT8(t *testing.T) {
	m := causalModel(t, 8, BackendLUT, 131)
	prompt := []int{3, 1, 4, 1, 5}
	batch := &Batch{TokenIDs: []int{3, 1, 4, 1, 5, 9, 2, 6}, BatchN: 1}
	logits := func() (batchPath, rowPath []float32) {
		s, err := NewDecodeSession(m, prompt)
		if err != nil {
			t.Fatal(err)
		}
		return m.Infer(batch, nil).Data, append([]float32(nil), s.Logits()...)
	}
	fp32Batch, fp32Row := logits()
	m.SetBackend(BackendLUTInt8)
	int8Batch, int8Row := logits()
	if sameBits(int8Batch, fp32Batch) {
		t.Fatal("INT8 and FP32 logits are identical; the test cannot tell the backends apart")
	}
	for leg := 0; leg < 2; leg++ {
		m.SetBackend(BackendLUT)
		b, r := logits()
		if !sameBits(b, fp32Batch) || !sameBits(r, fp32Row) {
			t.Fatalf("leg %d: BackendLUT after BackendLUTInt8 does not reproduce the FP32 logits", leg)
		}
		m.SetBackend(BackendLUTInt8)
		b, r = logits()
		if !sameBits(b, int8Batch) || !sameBits(r, int8Row) {
			t.Fatalf("leg %d: re-quantized INT8 logits differ from the first INT8 logits", leg)
		}
	}
}

// sameBits reports whether a and b are equal bit for bit.
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

func TestELUTNNRecoversAccuracy(t *testing.T) {
	// The Table 4/5 shape at toy scale: original ≈ eLUT-NN ≥ baseline
	// LUT-NN when every linear layer is replaced.
	c := Tiny(TokenInput, 8, 2)
	m := NewModel(c, 21)
	rng := rand.New(rand.NewSource(22))
	train := synthTokenBatches(rng, c, 12, 8)
	test := synthTokenBatches(rng, c, 4, 8)
	m.Train(train, TrainConfig{LearningRate: 3e-3, Epochs: 20, ClipNorm: 1})
	accOrig := m.Accuracy(test)
	if accOrig < 0.8 {
		t.Skipf("base model too weak (%.2f) for conversion comparison", accOrig)
	}

	// Aggressive compression (V=8, CT=4) so the baseline visibly degrades.
	cfg := ConvertConfig{Params: lutnn.Params{V: 8, CT: 4}, Seed: 23,
		Beta: 1e-3, LearningRate: 3e-4, Iterations: 300}
	if err := m.ConvertBaseline(train[:8], cfg); err != nil {
		t.Fatal(err)
	}
	m.SetBackend(BackendLUT)
	accBase := m.Accuracy(test)
	calBase := m.Accuracy(train[:8])

	m.SetBackend(BackendGEMM)
	if err := m.CalibrateELUT(train[:8], cfg); err != nil {
		t.Fatal(err)
	}
	m.SetBackend(BackendLUT)
	accELUT := m.Accuracy(test)
	calELUT := m.Accuracy(train[:8])

	t.Logf("orig %.3f | test: baseline %.3f eLUT %.3f | calib-set: baseline %.3f eLUT %.3f",
		accOrig, accBase, accELUT, calBase, calELUT)
	if accBase > accOrig-0.1 {
		t.Skipf("baseline did not degrade (%.3f vs %.3f); nothing to recover", accBase, accOrig)
	}
	// eLUT-NN must not regress below the baseline conversion, and must
	// improve the model's fit on the calibration set (the signal the
	// reconstruction loss + STE actually optimize). Full-scale recovery is
	// exercised by the Table 4/5 experiment, which uses a deeper model.
	if accELUT < accBase-0.05 {
		t.Fatalf("eLUT-NN (%.3f) worse than baseline (%.3f)", accELUT, accBase)
	}
	if calELUT < calBase {
		t.Fatalf("calibration did not improve calibration-set accuracy (%.3f -> %.3f)", calBase, calELUT)
	}
}

func TestCalibrationLeavesNoState(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	m := NewModel(c, 24)
	rng := rand.New(rand.NewSource(25))
	batches := synthTokenBatches(rng, c, 2, 4)
	cfg := ConvertConfig{Params: lutnn.Params{V: 2, CT: 8}, Seed: 26,
		Beta: 1e-3, LearningRate: 1e-3, Iterations: 5}
	if err := m.CalibrateELUT(batches, cfg); err != nil {
		t.Fatal(err)
	}
	for _, blk := range m.Blocks {
		for _, r := range Roles {
			l := blk.Linear(r)
			if l.Calib != nil || l.Rec != nil {
				t.Fatal("calibration state not detached")
			}
			if l.LUT == nil {
				t.Fatal("missing LUT after calibration")
			}
		}
	}
	if got := len(m.CodebookParams()); got != 0 {
		t.Fatalf("codebook params leaked: %d", got)
	}
}

func TestLUTFootprintBytes(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	m := NewModel(c, 27)
	rng := rand.New(rand.NewSource(28))
	batches := synthTokenBatches(rng, c, 1, 4)
	cfg := ConvertConfig{Params: lutnn.Params{V: 2, CT: 8}, Seed: 29}
	if err := m.ConvertBaseline(batches, cfg); err != nil {
		t.Fatal(err)
	}
	// Per block: QKV (CB=8, F=48) + O (8,16) + FFN1 (8,32) + FFN2 (16,16)
	// entries = 8·8·48 + 8·8·16 + 8·8·32 + 16·8·16 = 3072+1024+2048+2048
	perBlock := (8*8*48 + 8*8*16 + 8*8*32 + 16*8*16) * 4
	want := perBlock * c.Layers
	if got := m.LUTFootprintBytes(4); got != want {
		t.Fatalf("footprint %d, want %d", got, want)
	}
}

func TestRecTermProducedDuringCalibrationForward(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	m := NewModel(c, 30)
	rng := rand.New(rand.NewSource(31))
	b := synthTokenBatches(rng, c, 1, 4)[0]
	cfg := ConvertConfig{Params: lutnn.Params{V: 2, CT: 8}, Seed: 32}
	if err := m.ConvertBaseline([]*Batch{b}, cfg); err != nil {
		t.Fatal(err)
	}
	l := m.Blocks[0].QKV
	l.Calib = lutnn.NewTrainableCodebooks(l.LUT.Codebooks)
	_ = m.Forward(b)
	if l.Rec == nil {
		t.Fatal("no reconstruction term recorded")
	}
	if l.Rec.T.Data[0] < 0 {
		t.Fatal("reconstruction loss must be non-negative")
	}
	l.Calib = nil
	_ = m.Forward(b)
	if l.Rec != nil {
		t.Fatal("rec term should clear when calibration detached")
	}
}

func TestLinearRoleShapes(t *testing.T) {
	c := BERTBase
	for _, tc := range []struct {
		r       LinearRole
		out, in int
	}{
		{RoleQKV, 2304, 768},
		{RoleO, 768, 768},
		{RoleFFN1, 3072, 768},
		{RoleFFN2, 768, 3072},
	} {
		o, i := c.LinearShape(tc.r)
		if o != tc.out || i != tc.in {
			t.Fatalf("%v shape (%d,%d), want (%d,%d)", tc.r, o, i, tc.out, tc.in)
		}
	}
}

func TestPresetConfigsValid(t *testing.T) {
	for _, c := range []Config{BERTBase, BERTLarge, ViTHuge} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestGradientsFlowThroughWholeModel(t *testing.T) {
	c := Tiny(TokenInput, 4, 2)
	m := NewModel(c, 33)
	rng := rand.New(rand.NewSource(34))
	b := synthTokenBatches(rng, c, 1, 2)[0]
	opt := autograd.NewAdam(0.1, m.Params()...)
	opt.ZeroGrad()
	loss := m.Loss(b)
	loss.Backward()
	for i, p := range m.Params() {
		if p.Grad == nil {
			t.Fatalf("param %d got no gradient", i)
		}
	}
}

func TestCausalModelTrains(t *testing.T) {
	c := Tiny(TokenInput, 8, 2)
	c.Causal = true
	m := NewModel(c, 40)
	rng := rand.New(rand.NewSource(41))
	train := synthTokenBatches(rng, c, 12, 8)
	test := synthTokenBatches(rng, c, 4, 8)
	m.Train(train, TrainConfig{LearningRate: 3e-3, Epochs: 20, ClipNorm: 1})
	if acc := m.Accuracy(test); acc < 0.75 {
		t.Fatalf("causal model failed to learn: %.2f", acc)
	}
	// Infer must match Forward under the causal mask too.
	b := test[0]
	if tensor.MaxAbsDiff(m.Forward(b).T, m.Infer(b, nil)) > 1e-4 {
		t.Fatal("causal Infer diverges from Forward")
	}
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	c.Causal = true
	m := NewModel(c, 50)
	out1, err := m.Generate([]int{1, 2, 3}, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != 5 {
		t.Fatalf("generated %d tokens", len(out1))
	}
	for _, tok := range out1 {
		if tok < 0 || tok >= c.Vocab {
			t.Fatalf("token %d out of vocab", tok)
		}
	}
	out2, err := m.Generate([]int{1, 2, 3}, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("greedy decoding should be deterministic")
		}
	}
}

func TestGenerateRequiresCausal(t *testing.T) {
	m := NewModel(Tiny(TokenInput, 6, 2), 51)
	if _, err := m.Generate([]int{1}, 2, 0, nil); err == nil {
		t.Fatal("non-causal model accepted")
	}
	c := Tiny(TokenInput, 6, 2)
	c.Causal = true
	m2 := NewModel(c, 52)
	if _, err := m2.Generate(nil, 2, 0, nil); err == nil {
		t.Fatal("empty prompt accepted")
	}
}

func TestGenerateLearnsRepetition(t *testing.T) {
	// Train an LM-style task through the classifier-free path: check the
	// head produces valid distributions and sampling works.
	c := Tiny(TokenInput, 6, 2)
	c.Causal = true
	m := NewModel(c, 53)
	rng := rand.New(rand.NewSource(54))
	out, err := m.Generate([]int{4, 4, 4}, 8, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("generated %d", len(out))
	}
}

func TestLMHeadShape(t *testing.T) {
	c := Tiny(TokenInput, 6, 2)
	c.Causal = true
	m := NewModel(c, 55)
	b := &Batch{TokenIDs: make([]int, 2*c.SeqLen), BatchN: 2}
	logits := m.LMHeadAt(b, c.SeqLen-1)
	if logits.Dim(0) != 2 || logits.Dim(1) != c.Vocab {
		t.Fatalf("LM head shape %v", logits.Shape())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := Tiny(TokenInput, 6, 3)
	m := NewModel(c, 60)
	rng := rand.New(rand.NewSource(61))
	b := synthTokenBatches(rng, c, 1, 4)[0]
	want := m.Infer(b, nil)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Infer(b, nil)
	if !tensor.Equal(got, want) {
		t.Fatal("loaded checkpoint diverges")
	}
	if loaded.Config.Name != c.Name || loaded.Config.Hidden != c.Hidden {
		t.Fatal("config lost")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCheckpointTruncated(t *testing.T) {
	c := Tiny(TokenInput, 4, 2)
	m := NewModel(c, 62)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadModel(bytes.NewReader(half)); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestWarmupCosineShape(t *testing.T) {
	base := 1.0
	total := 100
	// Warmup: increasing over the first 10 steps.
	prev := 0.0
	for s := 0; s < 10; s++ {
		lr := WarmupCosine(s, total, base)
		if lr <= prev {
			t.Fatalf("warmup not increasing at step %d", s)
		}
		prev = lr
	}
	// Peak ≈ base right after warmup, then decaying.
	peak := WarmupCosine(10, total, base)
	if peak < 0.9*base {
		t.Fatalf("peak %g too low", peak)
	}
	end := WarmupCosine(total-1, total, base)
	if end > 0.2*base || end < 0.05*base {
		t.Fatalf("final LR %g, want ≈0.1·base", end)
	}
}

func TestTrainWithScheduleAndDecayLearns(t *testing.T) {
	c := Tiny(TokenInput, 8, 2)
	m := NewModel(c, 70)
	rng := rand.New(rand.NewSource(71))
	train := synthTokenBatches(rng, c, 12, 8)
	test := synthTokenBatches(rng, c, 4, 8)
	m.Train(train, TrainConfig{
		LearningRate: 5e-3, Epochs: 20, ClipNorm: 1,
		WeightDecay: 1e-4, Schedule: WarmupCosine,
	})
	if acc := m.Accuracy(test); acc < 0.75 {
		t.Fatalf("scheduled training failed: %.2f", acc)
	}
}
