package obs

import (
	"math"
	"sync"
	"testing"
)

func newTestTracer(t *testing.T, cfg Config) *Tracer {
	t.Helper()
	tc, err := NewTracer(cfg)
	if err != nil {
		t.Fatalf("NewTracer(%+v): %v", cfg, err)
	}
	return tc
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Capacity: 0, SampleRate: 0.5},
		{Capacity: -3, SampleRate: 0.5},
		{Capacity: 8, SampleRate: -0.1},
		{Capacity: 8, SampleRate: 1.5},
	}
	for _, cfg := range bad {
		if _, err := NewTracer(cfg); err == nil {
			t.Errorf("NewTracer(%+v): want error, got nil", cfg)
		}
	}
	if _, err := NewTracer(Config{Capacity: 1, SampleRate: 0}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestTraceIDDeterministicNonzero(t *testing.T) {
	a := newTestTracer(t, Config{Capacity: 4, SampleRate: 1, Seed: 42})
	b := newTestTracer(t, Config{Capacity: 4, SampleRate: 1, Seed: 42})
	c := newTestTracer(t, Config{Capacity: 4, SampleRate: 1, Seed: 43})
	seen := map[uint64]bool{}
	for id := int64(0); id < 1000; id++ {
		ta := a.TraceID(id)
		if ta == 0 {
			t.Fatalf("TraceID(%d) = 0; zero is the unsampled sentinel", id)
		}
		if tb := b.TraceID(id); tb != ta {
			t.Fatalf("same seed, same req %d: %016x != %016x", id, ta, tb)
		}
		if seen[ta] {
			t.Fatalf("TraceID collision at req %d", id)
		}
		seen[ta] = true
		if c.TraceID(id) == ta {
			t.Errorf("different seeds produced equal trace ID for req %d", id)
		}
	}
}

func TestSamplingDeterministicAndCalibrated(t *testing.T) {
	tc := newTestTracer(t, Config{Capacity: 1 << 16, SampleRate: 0.25, Seed: 7})
	kept := 0
	const n = 20000
	for id := int64(0); id < n; id++ {
		k1 := tc.sampleKeep(tc.TraceID(id))
		k2 := tc.sampleKeep(tc.TraceID(id))
		if k1 != k2 {
			t.Fatalf("sampleKeep not deterministic for req %d", id)
		}
		if k1 {
			kept++
		}
	}
	frac := float64(kept) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("keep fraction %.4f far from configured 0.25", frac)
	}
}

func TestStartNilAndDisabled(t *testing.T) {
	var nilTC *Tracer
	if tr := nilTC.Start(1, 0); tr != nil {
		t.Fatal("nil tracer must return nil trace")
	}
	// Every Trace method must tolerate nil.
	var tr *Trace
	if id := tr.StartSpan(NoSpan, "x", PhaseQueue, 0); id != NoSpan {
		t.Fatalf("nil trace StartSpan = %d, want NoSpan", id)
	}
	tr.EndSpan(0, 1)
	tr.Annotate(0, Str("k", "v"))
	if nilTC.Finish(tr, "served", 1, false) {
		t.Fatal("nil tracer Finish must report not-kept")
	}
	if got := nilTC.Traces(); got != nil {
		t.Fatalf("nil tracer Traces = %v, want nil", got)
	}
	if nilTC.Lookup(1) != nil {
		t.Fatal("nil tracer Lookup must return nil")
	}
	if s := nilTC.Stats(); s != (Stats{}) {
		t.Fatalf("nil tracer Stats = %+v, want zero", s)
	}

	tc := newTestTracer(t, Config{Capacity: 4, SampleRate: 1})
	SetEnabled(false)
	defer SetEnabled(true)
	if tr := tc.Start(1, 0); tr != nil {
		t.Fatal("Start with recording disabled must return nil")
	}
}

func TestSpanLifecycleAndFinish(t *testing.T) {
	tc := newTestTracer(t, Config{Capacity: 8, SampleRate: 1, Seed: 3})
	tr := tc.Start(5, 10.0)
	if tr == nil {
		t.Fatal("Start returned nil")
	}
	q := tr.StartSpan(0, "queue", PhaseQueue, 10.0)
	tr.EndSpan(q, 10.5)
	b := tr.StartSpan(0, "batch", PhaseBatch, 10.5)
	tr.EndSpan(b, 10.7)
	att := tr.StartSpan(0, "attempt", "", 10.7)
	tr.Annotate(att, Str("backend", "pim"), Int("attempt", 0))
	p := tr.StartSpan(att, "execute", PhasePIM, 10.7)
	// Leave att and p open: Finish must close them at the end stamp.
	if !tc.Finish(tr, "served", 11.0, false) {
		t.Fatal("Finish with SampleRate 1 must keep")
	}
	if tc.Finish(tr, "served", 12.0, false) {
		t.Fatal("double Finish must be a kept=false no-op")
	}
	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	if spans[0].Name != "request" || spans[0].End != 11.0 {
		t.Errorf("root span = %+v, want request ending at 11", spans[0])
	}
	for _, s := range spans[3:] {
		if s.End != 11.0 {
			t.Errorf("open span %q not closed at finish: end %g", s.Name, s.End)
		}
	}
	if _, ok := map[SpanID]bool{att: true}[p]; ok {
		t.Fatal("span IDs must be distinct")
	}
	if tr.Outcome() != "served" || tr.end != 11.0 || tr.Critical() {
		t.Errorf("terminal state = (%q, %g, %v)", tr.Outcome(), tr.end, tr.Critical())
	}
	if got := tr.Latency(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Latency = %g, want 1", got)
	}
	if tc.Lookup(tr.TraceID) != tr {
		t.Error("Lookup by trace ID failed for kept trace")
	}
}

func TestRingBoundingAndCriticalPriority(t *testing.T) {
	tc := newTestTracer(t, Config{Capacity: 3, SampleRate: 1, Seed: 1})
	// Two critical + four ordinary completions through a capacity-3 ring:
	// evictions must target the ordinary entries first.
	for i := int64(0); i < 2; i++ {
		tr := tc.Start(i, float64(i))
		tc.Finish(tr, "failed", float64(i)+1, true)
	}
	for i := int64(10); i < 14; i++ {
		tr := tc.Start(i, float64(i))
		tc.Finish(tr, "served", float64(i)+1, false)
	}
	got := tc.Traces()
	if len(got) != 3 {
		t.Fatalf("ring holds %d traces, want capacity 3", len(got))
	}
	crit := 0
	for _, tr := range got {
		if tr.Critical() {
			crit++
		}
	}
	if crit != 2 {
		t.Errorf("kept %d critical traces, want both survivors", crit)
	}
	st := tc.Stats()
	if st.Evicted != 3 {
		t.Errorf("Evicted = %d, want 3", st.Evicted)
	}
	if st.Started != 6 || st.Finished != 6 || st.Sampled != 6 || st.Dropped != 0 {
		t.Errorf("Stats = %+v", st)
	}

	// An all-critical full ring still evicts (oldest outright).
	tc2 := newTestTracer(t, Config{Capacity: 2, SampleRate: 0, Seed: 1})
	for i := int64(0); i < 3; i++ {
		tr := tc2.Start(i, float64(i))
		tc2.Finish(tr, "shed", float64(i), true)
	}
	got2 := tc2.Traces()
	if len(got2) != 2 || got2[0].ReqID != 1 || got2[1].ReqID != 2 {
		ids := []int64{}
		for _, tr := range got2 {
			ids = append(ids, tr.ReqID)
		}
		t.Errorf("all-critical eviction kept %v, want [1 2]", ids)
	}
}

func TestSampleRateZeroDropsOrdinaryKeepsCritical(t *testing.T) {
	tc := newTestTracer(t, Config{Capacity: 8, SampleRate: 0, Seed: 9})
	ord := tc.Start(1, 0)
	if tc.Finish(ord, "served", 1, false) {
		t.Fatal("SampleRate 0 must drop ordinary completions")
	}
	crit := tc.Start(2, 0)
	if !tc.Finish(crit, "timeout", 1, true) {
		t.Fatal("critical traces must bypass sampling")
	}
	st := tc.Stats()
	if st.Dropped != 1 || st.Sampled != 1 {
		t.Errorf("Stats = %+v, want 1 dropped / 1 sampled", st)
	}
	if tc.Lookup(ord.TraceID) != nil {
		t.Error("dropped trace must not resolve via Lookup")
	}
}

func TestTracesSortedByArrival(t *testing.T) {
	tc := newTestTracer(t, Config{Capacity: 16, SampleRate: 1, Seed: 2})
	arrivals := []float64{5, 1, 3, 1}
	ids := []int64{40, 30, 20, 10}
	for i := range arrivals {
		tr := tc.Start(ids[i], arrivals[i])
		tc.Finish(tr, "served", arrivals[i]+1, false)
	}
	got := tc.Traces()
	wantIDs := []int64{10, 30, 20, 40} // arrival asc, tie (1,1) by req ID
	for i, tr := range got {
		if tr.ReqID != wantIDs[i] {
			t.Fatalf("Traces()[%d].ReqID = %d, want %d", i, tr.ReqID, wantIDs[i])
		}
	}
}

func TestTracerRaceSafety(t *testing.T) {
	tc := newTestTracer(t, Config{Capacity: 64, SampleRate: 0.5, Seed: 11})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64(g*1000 + i)
				tr := tc.Start(id, float64(i))
				sp := tr.StartSpan(0, "queue", PhaseQueue, float64(i))
				tr.Annotate(sp, Int("g", int64(g)))
				tr.EndSpan(sp, float64(i)+0.5)
				tc.Finish(tr, "served", float64(i)+1, i%17 == 0)
			}
		}(g)
	}
	wg.Wait()
	st := tc.Stats()
	if st.Started != 1600 || st.Finished != 1600 {
		t.Fatalf("Stats = %+v, want 1600 started/finished", st)
	}
	if got := len(tc.Traces()); got > 64 {
		t.Fatalf("ring exceeded capacity: %d", got)
	}
}
