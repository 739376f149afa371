package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lutnn"
	"repro/internal/metrics"
)

// Decode-fastpath oracle tests (DESIGN.md §14): KV-cached decode must be
// token-for-token identical to the uncached Generate path — the PR-3
// bit-exact golden pattern applied to generation.

// causalModel builds a tiny causal LM, optionally converted to a LUT
// backend (calibration batches are synthesized from the same config).
func causalModel(t *testing.T, seqLen int, backend Backend, seed int64) *Model {
	t.Helper()
	c := Tiny(TokenInput, seqLen, 2)
	c.Causal = true
	m := NewModel(c, seed)
	if backend != BackendGEMM {
		rng := rand.New(rand.NewSource(seed + 1))
		batches := synthTokenBatches(rng, c, 2, 4)
		cfg := ConvertConfig{Params: lutnn.Params{V: 2, CT: 8}, Seed: seed + 2}
		if err := m.ConvertBaseline(batches, cfg); err != nil {
			t.Fatal(err)
		}
		m.SetBackend(backend)
	}
	return m
}

func TestGenerateCachedMatchesGenerateGreedy(t *testing.T) {
	backends := []struct {
		name string
		be   Backend
	}{
		{"gemm", BackendGEMM},
		{"lut", BackendLUT},
		{"int8", BackendLUTInt8},
	}
	prompts := [][]int{
		{3},                               // single token
		{1, 2, 3},                         // partial window
		{1, 2, 3, 4, 5, 6, 7, 8},          // exactly SeqLen (8)
		{5, 4, 3, 2, 1, 2, 3, 4, 5, 6, 7}, // longer than SeqLen
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			m := causalModel(t, 8, bk.be, 101)
			for pi, prompt := range prompts {
				// 12 steps crosses the window boundary for every prompt,
				// exercising fill, slide-rebase, and post-slide regimes.
				want, err := m.Generate(prompt, 12, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.GenerateCached(prompt, 12, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("prompt %d: cached token %d = %d, uncached = %d\ncached   %v\nuncached %v",
							pi, i, got[i], want[i], got, want)
					}
				}
			}
		})
	}
}

func TestGenerateCachedMatchesGenerateSampled(t *testing.T) {
	m := causalModel(t, 8, BackendGEMM, 103)
	prompt := []int{2, 7, 1}
	want, err := m.Generate(prompt, 10, 0.8, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.GenerateCached(prompt, 10, 0.8, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sampled token %d: cached %d, uncached %d", i, got[i], want[i])
		}
	}
}

// TestDecodeLogitsBitExact is the strongest form of the oracle: at every
// step of a generation that crosses the slide boundary, the session's
// logits must equal the uncached LMHeadAt logits bit for bit — not just
// produce the same argmax.
func TestDecodeLogitsBitExact(t *testing.T) {
	for _, bk := range []struct {
		name string
		be   Backend
	}{{"gemm", BackendGEMM}, {"lut", BackendLUT}} {
		t.Run(bk.name, func(t *testing.T) {
			m := causalModel(t, 8, bk.be, 107)
			c := m.Config
			prompt := []int{4, 2, 6}
			s, err := NewDecodeSession(m, prompt)
			if err != nil {
				t.Fatal(err)
			}
			// Uncached shadow window, maintained like Generate.
			window := make([]int, c.SeqLen)
			l := copy(window, prompt)
			for step := 0; step < 12; step++ {
				ref := m.LMHeadAt(&Batch{TokenIDs: window, BatchN: 1}, l-1).Row(0)
				got := s.Logits()
				for i := range ref {
					if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
						t.Fatalf("step %d logit %d differs bitwise: %x vs %x (%g vs %g)",
							step, i, math.Float32bits(got[i]), math.Float32bits(ref[i]),
							got[i], ref[i])
					}
				}
				next := pickToken(ref, 0, nil)
				if err := s.Feed(next); err != nil {
					t.Fatal(err)
				}
				if l < c.SeqLen {
					window[l] = next
					l++
				} else {
					copy(window, window[1:])
					window[c.SeqLen-1] = next
				}
			}
		})
	}
}

// TestDecodeBatchMatchesIndividual steps four sessions of different
// prompt lengths together (so they fill, slide, and rebase at different
// times) and requires the exact token streams of solo cached decoding —
// which TestGenerateCachedMatchesGenerateGreedy ties back to Generate.
func TestDecodeBatchMatchesIndividual(t *testing.T) {
	for _, bk := range []struct {
		name string
		be   Backend
	}{{"gemm", BackendGEMM}, {"lut", BackendLUT}} {
		t.Run(bk.name, func(t *testing.T) {
			m := causalModel(t, 8, bk.be, 109)
			prompts := [][]int{
				{1},
				{2, 3, 4},
				{9, 8, 7, 6, 5, 4, 3, 2}, // already full
				{1, 1, 2, 2, 3, 3},
			}
			const steps = 10
			want := make([][]int, len(prompts))
			for i, p := range prompts {
				out, err := m.GenerateCached(p, steps, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = out
			}

			db := NewDecodeBatch(m)
			sessions := make([]*DecodeSession, len(prompts))
			for i, p := range prompts {
				s, err := NewDecodeSession(m, p)
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
			}
			if err := db.SetSessions(sessions); err != nil {
				t.Fatal(err)
			}
			toks := make([]int, len(sessions))
			got := make([][]int, len(sessions))
			for step := 0; step < steps; step++ {
				for i, s := range sessions {
					toks[i] = s.Pick(0, nil)
					got[i] = append(got[i], toks[i])
				}
				if step+1 < steps {
					if err := db.Feed(toks); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("sequence %d token %d: batched %d, solo %d\nbatched %v\nsolo    %v",
							i, j, got[i][j], want[i][j], got[i], want[i])
					}
				}
			}
		})
	}
}

// TestDecodeMetricsSeries checks that the decode paths feed the
// pimdl_decode_* series of the default registry. The registry is
// process-global, so the test asserts deltas, not absolute values.
func TestDecodeMetricsSeries(t *testing.T) {
	m := causalModel(t, 8, BackendGEMM, 115)
	before := metrics.Default().Flatten()

	// 3 prompt rows prefilled, then 3 cached steps (the 4th token is
	// picked, not fed).
	if _, err := m.GenerateCached([]int{1, 2, 3}, 4, 0, nil); err != nil {
		t.Fatal(err)
	}
	// 1+2 prompt rows prefilled, then one stacked step of 2 rows.
	db := NewDecodeBatch(m)
	var sessions []*DecodeSession
	for _, p := range [][]int{{4}, {5, 6}} {
		s, err := NewDecodeSession(m, p)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	if err := db.SetSessions(sessions); err != nil {
		t.Fatal(err)
	}
	if err := db.Feed([]int{7, 8}); err != nil {
		t.Fatal(err)
	}

	after := metrics.Default().Flatten()
	for series, want := range map[string]float64{
		"pimdl_decode_steps_total":               5,
		"pimdl_decode_prefill_rows_total":        6,
		"pimdl_decode_rebases_total":             0,
		"pimdl_decode_batch_steps_total":         1,
		"pimdl_decode_batch_rows_count":          1,
		"pimdl_decode_batch_rows_sum":            2,
		`pimdl_decode_batch_rows_bucket{le="1"}`: 0,
		`pimdl_decode_batch_rows_bucket{le="2"}`: 1,
	} {
		v, ok := after[series]
		if !ok {
			t.Fatalf("series %s missing from the default registry", series)
		}
		if got := v - before[series]; got != want {
			t.Errorf("%s grew by %g, want %g", series, got, want)
		}
	}
}

func TestDecodeSessionValidation(t *testing.T) {
	m := causalModel(t, 8, BackendGEMM, 111)
	if _, err := NewDecodeSession(m, nil); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if _, err := NewDecodeSession(m, []int{m.Config.Vocab}); err == nil {
		t.Fatal("out-of-vocab prompt token accepted")
	}
	s, err := NewDecodeSession(m, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(-1); err == nil {
		t.Fatal("out-of-vocab Feed accepted")
	}
	nc := NewModel(Tiny(TokenInput, 8, 2), 112)
	if _, err := NewDecodeSession(nc, []int{1}); err == nil {
		t.Fatal("non-causal model accepted")
	}
	// Batch membership is model-checked.
	db := NewDecodeBatch(m)
	other := causalModel(t, 8, BackendGEMM, 113)
	so, err := NewDecodeSession(other, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetSessions([]*DecodeSession{so}); err == nil {
		t.Fatal("foreign-model session accepted")
	}
	if err := db.Feed([]int{0}); err == nil {
		t.Fatal("token-count mismatch accepted")
	}
}

// --- pickToken coverage ----------------------------------------------------

func TestPickTokenGreedyTieBreak(t *testing.T) {
	// First strict maximum wins: later equal values must not displace it.
	if got := pickToken([]float32{1, 5, 3, 5}, 0, nil); got != 1 {
		t.Fatalf("tie-break picked %d, want first max (1)", got)
	}
	if got := pickToken([]float32{7}, 0, nil); got != 0 {
		t.Fatalf("single-logit pick %d", got)
	}
	// Temperature > 0 with nil rng still means greedy.
	if got := pickToken([]float32{0, 2, 1}, 1.0, nil); got != 1 {
		t.Fatalf("nil-rng pick %d, want greedy 1", got)
	}
}

func TestPickTokenSamplingDeterministic(t *testing.T) {
	logits := []float32{0.1, 1.2, -0.5, 2.0, 0.0}
	a := make([]int, 20)
	rngA := rand.New(rand.NewSource(42))
	for i := range a {
		a[i] = pickToken(logits, 0.7, rngA)
	}
	rngB := rand.New(rand.NewSource(42))
	for i := range a {
		if b := pickToken(logits, 0.7, rngB); b != a[i] {
			t.Fatalf("draw %d: %d != %d with identical seeds", i, b, a[i])
		}
	}
	// Sampling must stay in range and, at low temperature, concentrate on
	// the argmax.
	rngC := rand.New(rand.NewSource(7))
	hits := 0
	for i := 0; i < 50; i++ {
		got := pickToken(logits, 0.05, rngC)
		if got < 0 || got >= len(logits) {
			t.Fatalf("sampled index %d out of range", got)
		}
		if got == 3 {
			hits++
		}
	}
	if hits < 45 {
		t.Fatalf("low-temperature sampling hit the argmax only %d/50 times", hits)
	}
}

// maxSource is a rand.Source that always yields the largest draw
// rand.Float64 can produce (1 − 2⁻⁵³ ≈ 0.99999999999999988) — above any
// float32 softmax cumulative sum that rounds below 1. Int63 must NOT
// return 1<<63−1: float64(1<<63−1) rounds up to 2⁶³ and Float64's
// internal f==1 resample would spin forever on a constant source, so we
// return the largest int64 exactly representable below 2⁶³.
type maxSource struct{}

func (maxSource) Int63() int64 { return 1<<63 - 1024 }
func (maxSource) Seed(int64)   {}

func TestPickTokenFallbackBranch(t *testing.T) {
	// Find logits whose float32 softmax sums to strictly less than
	// Float64's maximum draw; with the max-draw rng, r exceeds the final
	// cumulative sum and pickToken must take the fallback return.
	rng := rand.New(rand.NewSource(3))
	r := rand.New(maxSource{}).Float64()
	for attempt := 0; attempt < 200; attempt++ {
		logits := make([]float32, 7)
		for i := range logits {
			logits[i] = rng.Float32()*4 - 2
		}
		// Reproduce pickToken's accumulation to know whether the sum
		// falls short of r.
		var maxv float32
		maxv = logits[0]
		for _, v := range logits[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		e := make([]float32, len(logits))
		for i, v := range logits {
			e[i] = float32(math.Exp(float64(v - maxv)))
			sum += e[i]
		}
		inv := 1 / sum
		var acc float64
		for i := range e {
			acc += float64(e[i] * inv)
		}
		if acc < r {
			got := pickToken(logits, 1.0, rand.New(maxSource{}))
			if got != len(logits)-1 {
				t.Fatalf("fallback returned %d, want %d", got, len(logits)-1)
			}
			return
		}
	}
	t.Skip("no logit vector with cumulative softmax below the max draw found")
}

func BenchmarkDecodeStep(b *testing.B) {
	c := Tiny(TokenInput, 64, 2)
	c.Causal = true
	m := NewModel(c, 7)
	s, err := NewDecodeSession(m, []int{1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.l >= c.SeqLen-1 {
			b.StopTimer()
			s, _ = NewDecodeSession(m, []int{1})
			b.StartTimer()
		}
		_ = s.Feed(i % c.Vocab)
	}
}
