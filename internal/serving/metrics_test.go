package serving

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// metricsDelta runs fn and returns the change of every default-registry
// series across it.
func metricsDelta(fn func()) map[string]float64 {
	before := metrics.Default().Flatten()
	fn()
	after := metrics.Default().Flatten()
	for k, v := range before {
		after[k] -= v
	}
	return after
}

// TestPercentileEdgeCases pins the documented Percentile contract: empty
// trace, out-of-range p, and NaN p.
func TestPercentileEdgeCases(t *testing.T) {
	empty := &Trace{}
	for _, p := range []float64{-10, 0, 50, 100, 200, math.NaN()} {
		if got := empty.Percentile(p); got != 0 {
			t.Fatalf("empty trace Percentile(%g) = %g, want 0", p, got)
		}
	}

	tr := &Trace{}
	for i := 1; i <= 4; i++ {
		tr.Completions = append(tr.Completions,
			Completion{Arrival: 0, Done: float64(i), Batch: 1})
	}
	// Latencies are 1..4; min = 1, max = 4.
	cases := []struct{ p, want float64 }{
		{-5, 1},         // below range clamps to the minimum
		{0, 1},          // p=0 is the minimum
		{math.NaN(), 1}, // NaN treated as 0
		{25, 1},         // nearest-rank: ceil(0.25*4)=1st
		{50, 2},         //               ceil(0.50*4)=2nd
		{100, 4},        // p=100 is the maximum
		{250, 4},        // above range clamps to the maximum
	}
	for _, c := range cases {
		if got := tr.Percentile(c.p); got != c.want {
			t.Fatalf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

// TestServingMetricsMatchTrace: the counters recorded during a robust
// simulation equal the trace's own totals, and the latency histogram saw
// exactly the served requests.
func TestServingMetricsMatchTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	arr := PoissonArrivals(rng, 200, 400)
	lat := func(b int) float64 { return 0.01 + 0.001*float64(b) }
	rob := Robustness{Deadline: 0.05, FailRate: 0.2, MaxRetries: 2, Backoff: 0.005, Seed: 7}

	var tr *Trace
	sumBefore := servingMetrics.latency.Sum()
	d := metricsDelta(func() {
		var err error
		tr, err = SimulateRobust(arr, lat, Policy{MaxBatch: 8, MaxWait: 0.02}, rob)
		if err != nil {
			t.Fatal(err)
		}
	})

	checks := map[string]float64{
		"pimdl_serving_requests_total": float64(len(tr.Completions)),
		"pimdl_serving_batches_total":  float64(tr.Batches),
		"pimdl_serving_retries_total":  float64(tr.Retries),
		"pimdl_serving_timeouts_total": float64(tr.Timeouts),
		"pimdl_serving_failures_total": float64(tr.Failures),
		"pimdl_serving_expired_total":  float64(tr.Expired),
	}
	for k, want := range checks {
		if got := d[k]; got != want {
			t.Fatalf("%s = %g, want %g", k, got, want)
		}
	}
	if got := d["pimdl_serving_latency_seconds_count"]; got != float64(len(tr.Completions)) {
		t.Fatalf("latency histogram count %g, want %d", got, len(tr.Completions))
	}
	// The registry is process-global, so under -count=N the sum already
	// holds earlier runs' latencies and after−before would cancel away
	// low bits. Accumulating onto the pre-run value in observation order
	// is exactly the histogram's own arithmetic.
	sum := sumBefore
	for _, c := range tr.Completions {
		sum += c.Latency()
	}
	if got := servingMetrics.latency.Sum(); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("latency histogram sum %g, want %g", got, sum)
	}
	if got := d["pimdl_serving_batch_size_count"]; got != float64(tr.Batches) {
		t.Fatalf("batch-size histogram count %g, want %d", got, tr.Batches)
	}
	// Sanity on the simulation itself: the robustness knobs exercised the
	// drop paths, so the counters above checked something non-zero.
	if tr.Retries == 0 || tr.Timeouts == 0 {
		t.Fatalf("scenario too tame: retries=%d timeouts=%d", tr.Retries, tr.Timeouts)
	}
}

// TestServingMetricsDropPaths forces every drop path at once — a flaky
// backend that exhausts its retry budget (failures), a tight deadline
// (timeouts) — and checks the counters account for all of it: every
// arrival is either a completion, a timeout or a failure, and the
// latency histogram saw only the completions.
func TestServingMetricsDropPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	arr := PoissonArrivals(rng, 300, 500)
	lat := func(b int) float64 { return 0.02 + 0.002*float64(b) }
	rob := Robustness{Deadline: 0.08, FailRate: 0.6, MaxRetries: 1, Backoff: 0.01, Seed: 5}

	var tr *Trace
	d := metricsDelta(func() {
		var err error
		tr, err = SimulateRobust(arr, lat, Policy{MaxBatch: 4, MaxWait: 0.01}, rob)
		if err != nil {
			t.Fatal(err)
		}
	})

	// The scenario must actually exercise all three terminal paths.
	if tr.Failures == 0 || tr.Timeouts == 0 || tr.Retries == 0 {
		t.Fatalf("scenario too tame: failures=%d timeouts=%d retries=%d",
			tr.Failures, tr.Timeouts, tr.Retries)
	}
	if got := len(tr.Completions) + tr.Timeouts + tr.Failures; got != len(arr) {
		t.Fatalf("terminal states %d != arrivals %d", got, len(arr))
	}
	checks := map[string]float64{
		"pimdl_serving_requests_total": float64(len(tr.Completions)),
		"pimdl_serving_timeouts_total": float64(tr.Timeouts),
		"pimdl_serving_failures_total": float64(tr.Failures),
		"pimdl_serving_retries_total":  float64(tr.Retries),
	}
	for k, want := range checks {
		if got := d[k]; got != want {
			t.Fatalf("%s = %g, want %g", k, got, want)
		}
	}
	// Dropped requests must not leak into the latency distribution.
	if got := d["pimdl_serving_latency_seconds_count"]; got != float64(len(tr.Completions)) {
		t.Fatalf("latency histogram count %g, want %d (completions only)", got, len(tr.Completions))
	}
}

// TestServingHistogramQuantilesTrackPercentile: the streaming quantiles
// land in the same bucket neighbourhood as the exact sorted-slice path.
func TestServingHistogramQuantilesTrackPercentile(t *testing.T) {
	h := metrics.NewRegistry().NewHistogram("lat", "", metrics.ExpBuckets(1e-4, 2, 21))
	rng := rand.New(rand.NewSource(13))
	arr := PoissonArrivals(rng, 150, 500)
	lat := func(b int) float64 { return 0.01 + 0.002*float64(b) }
	tr, err := Simulate(arr, lat, Policy{MaxBatch: 8, MaxWait: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Completions {
		h.Observe(c.Latency())
	}
	for _, p := range []float64{50, 95, 99} {
		exact := tr.Percentile(p)
		approx := h.Quantile(p / 100)
		// Bucket interpolation is at worst one ×2 bucket off.
		if approx < exact/2 || approx > exact*2 {
			t.Fatalf("p%g: histogram %g vs exact %g", p, approx, exact)
		}
	}
}
