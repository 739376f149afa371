package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("pimdl_test_events_total", "events")
	fc := r.NewFloatCounter("pimdl_test_seconds_total", "seconds")
	g := r.NewGauge("pimdl_test_depth", "depth")

	for i := 0; i < 10; i++ {
		c.Inc()
	}
	c.Add(5)
	if got := c.Value(); got != 15 {
		t.Fatalf("counter %d, want 15", got)
	}
	fc.Add(1.5)
	fc.Add(2.25)
	if got := fc.Value(); got != 3.75 {
		t.Fatalf("float counter %g, want 3.75", got)
	}
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge %g, want 3", got)
	}
	g.SetMax(2)
	if got := g.Value(); got != 3 {
		t.Fatalf("SetMax lowered gauge to %g", got)
	}
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax %g, want 7", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("pimdl_test_latency_seconds", "latency", ExpBuckets(0.001, 2, 16))

	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile %g, want 0", got)
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000.0) // uniform on (0, 1]
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if math.Abs(h.Sum()-500.5) > 1e-9 {
		t.Fatalf("sum %g, want 500.5", h.Sum())
	}
	if h.Min() != 0.001 || h.Max() != 1 {
		t.Fatalf("min/max %g/%g", h.Min(), h.Max())
	}
	// Uniform distribution: interpolated quantiles should be within one
	// bucket's width of the true value.
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 0.5, 0.3},
		{0.95, 0.95, 0.3},
		{0.99, 0.99, 0.3},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%g = %g, want %g +/- %g", tc.q, got, tc.want, tc.tol)
		}
	}
	// Quantiles are monotone in q and clamped to [min, max].
	prev := 0.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev-1e-12 {
			t.Fatalf("quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		if v < h.Min() || v > h.Max() {
			t.Fatalf("quantile %g outside observed range", v)
		}
		prev = v
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Fatalf("NaN quantile %g", got)
	}
	if got := h.Quantile(-3); got != h.Min() {
		t.Fatalf("q<0 %g, want min %g", got, h.Min())
	}
	if got := h.Quantile(42); got != h.Max() {
		t.Fatalf("q>1 %g, want max %g", got, h.Max())
	}
}

func TestHistogramSingleObservationExactQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("pimdl_test_one", "one", ExpBuckets(0.001, 10, 6))
	h.Observe(0.42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0.42 {
			t.Fatalf("q%g = %g, want exactly 0.42", q, got)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("pimdl_test_over", "over", []float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.99); got != 200 {
		t.Fatalf("overflow quantile %g, want max 200", got)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	f := r.NewCounterFamily("pimdl_test_ops_total", "ops", "class")
	r.NewCounter("pimdl_test_a_total", "a")
	r.NewGauge("pimdl_test_z", "z")
	f.With("zeta").Add(3)
	f.With("alpha").Add(1)

	snap := r.Snapshot()
	keys := make([]string, len(snap))
	for i, s := range snap {
		keys[i] = s.Key()
	}
	want := []string{
		"pimdl_test_a_total",
		`pimdl_test_ops_total{class="alpha"}`,
		`pimdl_test_ops_total{class="zeta"}`,
		"pimdl_test_z",
	}
	if len(keys) != len(want) {
		t.Fatalf("keys %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("key[%d] = %q, want %q (full: %v)", i, keys[i], want[i], keys)
		}
	}
	// Two snapshots of the same state are identical.
	again := r.Snapshot()
	for i := range snap {
		if snap[i] != again[i] {
			t.Fatalf("snapshot not stable at %d: %+v vs %+v", i, snap[i], again[i])
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("pimdl_test_dup", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGauge("pimdl_test_dup", "y")
}

func TestWriteJSONAndPrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("pimdl_test_events_total", "number of events")
	fam := r.NewFloatCounterFamily("pimdl_test_time_seconds_total", "time by phase", "phase")
	h := r.NewHistogram("pimdl_test_lat", "latency", []float64{0.5, 1})
	c.Add(7)
	fam.With("kernel").Add(0.25)
	h.Observe(0.3)
	h.Observe(0.7)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON invalid: %v\n%s", err, buf.String())
	}
	if doc["pimdl_test_events_total"].(float64) != 7 {
		t.Fatalf("JSON counter: %v", doc["pimdl_test_events_total"])
	}
	fm := doc["pimdl_test_time_seconds_total"].(map[string]any)
	if fm["kernel"].(float64) != 0.25 {
		t.Fatalf("JSON family: %v", fm)
	}
	hm := doc["pimdl_test_lat"].(map[string]any)
	if hm["count"].(float64) != 2 || hm["sum"].(float64) != 1 {
		t.Fatalf("JSON histogram: %v", hm)
	}

	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP pimdl_test_events_total number of events",
		"# TYPE pimdl_test_events_total counter",
		"pimdl_test_events_total 7",
		`pimdl_test_time_seconds_total{phase="kernel"} 0.25`,
		"# TYPE pimdl_test_lat histogram",
		`pimdl_test_lat_bucket{le="0.5"} 1`,
		`pimdl_test_lat_bucket{le="+Inf"} 2`,
		"pimdl_test_lat_count 2",
		"pimdl_test_lat_sum 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

func TestWriteFileFormats(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("pimdl_test_x_total", "x").Add(1)
	dir := t.TempDir()

	jsonPath := dir + "/snap.json"
	if err := r.WriteFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("not JSON: %s", data)
	}

	promPath := dir + "/snap.prom"
	if err := r.WriteFile(promPath); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# TYPE pimdl_test_x_total counter") {
		t.Fatalf("not prometheus text: %s", data)
	}

	if err := r.WriteFile("/nonexistent-dir-xyz/snap.json"); err == nil {
		t.Fatal("writing to a missing directory did not error")
	}
}

func TestFlattenKeys(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("pimdl_test_c_total", "c").Add(2)
	r.NewCounterFamily("pimdl_test_f_total", "f", "k").With("v").Add(3)
	flat := r.Flatten()
	if flat["pimdl_test_c_total"] != 2 {
		t.Fatalf("flat counter: %v", flat)
	}
	if flat[`pimdl_test_f_total{k="v"}`] != 3 {
		t.Fatalf("flat family: %v", flat)
	}
}

func TestEnabledToggle(t *testing.T) {
	if !Enabled() {
		t.Fatal("metrics should default to enabled")
	}
	SetEnabled(false)
	if Enabled() {
		t.Fatal("SetEnabled(false) had no effect")
	}
	SetEnabled(true)
}

func TestBucketHelpers(t *testing.T) {
	e := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if e[i] != want {
			t.Fatalf("ExpBuckets %v", e)
		}
	}
}
