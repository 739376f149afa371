package metrics

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentHammer drives every metric type from GOMAXPROCS
// goroutines simultaneously (run under -race by `make test-race`):
// totals must come out exact — sharded counters lose nothing — and the
// snapshot taken afterwards must be deterministically ordered.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("pimdl_test_hammer_total", "hammered counter")
	fc := r.NewFloatCounter("pimdl_test_hammer_seconds_total", "hammered float counter")
	g := r.NewGauge("pimdl_test_hammer_depth", "hammered gauge")
	h := r.NewHistogram("pimdl_test_hammer_hist", "hammered histogram", ExpBuckets(1, 2, 10))
	fam := r.NewCounterFamily("pimdl_test_hammer_fam_total", "hammered family", "worker")

	workers := runtime.GOMAXPROCS(0)
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%26))
			child := fam.With(label)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				fc.Add(0.5)
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%1000 + 1))
				child.Inc()
			}
		}(w)
	}
	wg.Wait()

	n := int64(workers) * perWorker
	if got := c.Value(); got != n {
		t.Fatalf("counter %d, want %d (lost updates)", got, n)
	}
	// 0.5 sums exactly in binary floating point.
	if got := fc.Value(); got != float64(n)*0.5 {
		t.Fatalf("float counter %g, want %g", got, float64(n)*0.5)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge %g, want 0 (paired adds)", got)
	}
	if got := h.Count(); got != n {
		t.Fatalf("histogram count %d, want %d", got, n)
	}
	var famTotal int64
	for _, s := range r.Snapshot() {
		if s.Name == "pimdl_test_hammer_fam_total" {
			famTotal += int64(s.Value)
		}
	}
	if famTotal != n {
		t.Fatalf("family total %d, want %d", famTotal, n)
	}

	// Deterministic snapshot order: repeated snapshots agree exactly.
	first := r.Snapshot()
	second := r.Snapshot()
	if len(first) != len(second) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("snapshot differs at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
	// Samples group by registered metric, and the groups appear in
	// name-sorted registration order.
	var groups []string
	for _, s := range first {
		base := s.Name
		for _, suffix := range []string{"_bucket", "_count", "_sum"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if len(groups) == 0 || groups[len(groups)-1] != base {
			groups = append(groups, base)
		}
	}
	for i := 1; i < len(groups); i++ {
		if groups[i] < groups[i-1] {
			t.Fatalf("metric groups not name-sorted: %q after %q", groups[i], groups[i-1])
		}
	}
}

// TestConcurrentObserveAndSnapshot interleaves snapshotting with live
// writers — the reader must never race or crash, and every final total
// must land exactly once writers stop.
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("pimdl_test_live_total", "live counter")
	h := r.NewHistogram("pimdl_test_live_hist", "live histogram", []float64{10, 20, 30, 40, 50, 60, 70, 80})

	stop := make(chan struct{})
	done := make(chan struct{})
	var writers sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				c.Inc()
				h.Observe(float64(i % 100))
			}
		}()
	}
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
				_ = r.Flatten()
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-done

	if got := c.Value(); got != int64(workers)*5000 {
		t.Fatalf("counter %d, want %d", got, int64(workers)*5000)
	}
	if got := h.Count(); got != int64(workers)*5000 {
		t.Fatalf("histogram %d, want %d", got, int64(workers)*5000)
	}
}
