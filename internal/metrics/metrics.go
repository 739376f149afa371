// Package metrics is the dependency-free observability layer of PIM-DL:
// a race-safe registry of counters, gauges and fixed-bucket histograms
// that every layer of the stack (pim simulator, engine, serving loop,
// worker pool) records into, with deterministic snapshot ordering and two
// expositions — expvar-compatible JSON and Prometheus text.
//
// The design goals, in order:
//
//   - Zero-allocation hot-path increments. Counter.Add and
//     Histogram.Observe perform only atomic operations; counters are
//     sharded across cache-line-padded cells so concurrent writers from
//     different Ps rarely contend on one cache line.
//
//   - Determinism where the repo's golden tests need it. Snapshot output
//     is sorted by series name, so two snapshots of identical activity
//     are byte-identical. Counter values are exact (integer adds);
//     FloatCounter sums are exact for the single-add-per-shard case the
//     pim layer exercises and otherwise accurate to float64 addition.
//
//   - No dependencies. Only the standard library is imported, so the
//     package is usable from every internal package without cycles.
//
// Naming convention (see DESIGN.md §10): every series is
// `pimdl_<layer>_<name>`, with `_total` suffix on monotonic counters and
// `_seconds`/`_bytes` unit suffixes, mirroring Prometheus practice.
//
// Metrics are enabled by default; setting the environment variable
// PIMDL_METRICS to "0", "off" or "false" disables all recording helpers
// (the registry still exists and snapshots report zeros), so the
// recording cost can be measured against a metrics-off run of the same
// benchmark workload.
package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

var enabledFlag atomic.Bool

func init() {
	switch strings.ToLower(os.Getenv("PIMDL_METRICS")) {
	case "0", "off", "false":
		enabledFlag.Store(false)
	default:
		enabledFlag.Store(true)
	}
}

// Enabled reports whether the instrumentation helpers should record.
// Individual metric methods always work; Enabled is the cheap gate the
// per-layer recording code checks once per event batch.
//
//pimdl:hotpath
func Enabled() bool { return enabledFlag.Load() }

// SetEnabled turns recording on or off at runtime (tests, benchmarks).
//
//pimdl:lint-ignore deadexport tests switch recording off to cover the disabled path; binaries use PIMDL_METRICS
func SetEnabled(on bool) { enabledFlag.Store(on) }

// numShards is the shard count of sharded counters; a power of two so
// the shard pick is a mask, and small enough that summing on read stays
// trivial.
const numShards = 8

// shard picks a shard for the calling goroutine. math/rand/v2's global
// generator is per-thread state in the runtime — no locks, no allocation
// — so concurrent writers spread across shards approximately per P.
//
//pimdl:hotpath
func shard() int { return int(rand.Uint64() & (numShards - 1)) }

// cell is one cache-line-padded counter shard (64-byte lines; the value
// occupies the first 8 bytes).
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// fcell is one padded float shard, stored as IEEE-754 bits.
type fcell struct {
	bits atomic.Uint64
	_    [56]byte
}

// Counter is a monotonically increasing integer counter. The zero value
// is unusable; obtain counters from a Registry.
type Counter struct {
	shards [numShards]cell
}

// Inc adds 1.
//
//pimdl:hotpath
func (c *Counter) Inc() { c.shards[shard()].v.Add(1) }

// Add adds n (n must be non-negative for the counter to stay monotonic;
// this is not enforced on the hot path).
//
//pimdl:hotpath
func (c *Counter) Add(n int64) { c.shards[shard()].v.Add(n) }

// Value returns the current total across shards.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// FloatCounter is a monotonically increasing float64 counter, used where
// the recorded quantity is a modelled time in seconds. Adds are
// lock-free CAS loops on IEEE bits, sharded like Counter.
type FloatCounter struct {
	shards [numShards]fcell
}

// Add adds v.
//
//pimdl:hotpath
func (c *FloatCounter) Add(v float64) {
	s := &c.shards[shard()].bits
	for {
		old := s.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if s.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current total across shards (summed in shard order,
// so the result is deterministic for a fixed set of shard values).
func (c *FloatCounter) Value() float64 {
	var t float64
	for i := range c.shards {
		t += math.Float64frombits(c.shards[i].bits.Load())
	}
	return t
}

// Gauge is a float64 value that can go up and down: queue depths, pool
// occupancy, configuration constants.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//pimdl:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
//
//pimdl:hotpath
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// SetMax raises the gauge to v if v is larger (peak trackers).
//
//pimdl:hotpath
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
//
//pimdl:hotpath
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with streaming quantiles: the
// bucket bounds are fixed at construction, observations are single
// atomic adds, and quantiles are interpolated from the bucket counts —
// no sample is ever stored, so memory stays constant under any load.
// Observed min and max are tracked exactly and clamp the interpolation,
// which makes single-observation quantiles exact.
type Histogram struct {
	bounds   []float64 // strictly increasing upper bounds
	counts   []atomic.Int64
	overflow atomic.Int64 // observations above bounds[len-1]
	count    atomic.Int64
	sumBits  atomic.Uint64
	minBits  atomic.Uint64 // +Inf until first observation
	maxBits  atomic.Uint64 // -Inf until first observation
	// exemplars[i] is the most recent nonzero trace ID observed into
	// bucket i (exemplars[len(bounds)] covers the overflow bucket);
	// 0 means "no exemplar". See ObserveExemplar.
	exemplars []atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)),
		exemplars: make([]atomic.Uint64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.overflow.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveExemplar is Observe plus an exemplar: the trace ID of the
// request this value came from is remembered for the bucket the value
// lands in (latest observation wins), linking the latency distribution
// back to a concrete request trace in the obs layer. A zero traceID
// records the value without touching the exemplar slot — zero is the
// "unsampled request" sentinel, and an unsampled trace ID could never
// be resolved anyway.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(traceID)
}

// Exemplars returns the per-bucket exemplar trace IDs keyed by bucket
// upper bound ("+Inf" for overflow), omitting empty slots. The result
// is a fresh map the caller may keep.
func (h *Histogram) Exemplars() map[string]uint64 {
	out := map[string]uint64{}
	for i := range h.exemplars {
		id := h.exemplars[i].Load()
		if id == 0 {
			continue
		}
		label := "+Inf"
		if i < len(h.bounds) {
			label = formatFloat(h.bounds[i])
		}
		out[label] = id
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Min returns the smallest observation (0 before any observation).
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation (0 before any observation).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile returns the q-th quantile (q in [0, 1], clamped) estimated by
// linear interpolation inside the bucket the rank lands in, clamped to
// the observed [min, max]. An empty histogram returns 0. NaN q returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	mn, mx := h.Min(), h.Max()
	var cum float64
	for i := range h.counts {
		ci := h.counts[i].Load()
		if ci == 0 {
			continue
		}
		c := float64(ci)
		if cum+c >= rank {
			lo := mn
			if i > 0 {
				lo = math.Max(mn, h.bounds[i-1])
			}
			hi := math.Min(mx, h.bounds[i])
			frac := (rank - cum) / c
			return clamp(lo+(hi-lo)*frac, mn, mx)
		}
		cum += c
	}
	// Rank lands in the overflow bucket: all we know is (last bound, max].
	return mx
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start, each factor times the previous. It panics if start <= 0,
// factor <= 1 or n < 1 (programmer-error contract, like the standard
// library's slice bounds).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: ExpBuckets(%g, %g, %d) out of range", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
