// Package obs is the request-scoped tracing layer of PIM-DL: span
// trees per request with typed phase attributes, deterministic trace
// IDs, bounded-memory ring sampling, and a tail-latency attribution
// report that decomposes any percentile band of a live run into
// per-phase blame (queueing vs batching vs PIM compute vs retries vs
// failover vs host fallback).
//
// Where internal/metrics answers "what is the p99 right now", this
// package answers "where did THIS request's time go". The two are
// linked twice over: histogram exemplars carry trace IDs of sampled
// requests into the metrics snapshot, and the attribution invariant —
// per-phase seconds sum to the request's recorded end-to-end latency
// within 1e-9 — is the per-request analogue of PR 4's "metrics equal
// the model's own numbers" discipline (DESIGN.md §15).
//
// The design goals, in order:
//
//   - Dependency-free and race-safe. Only the standard library (and
//     internal/metrics for the pimdl_obs_* self-accounting series) is
//     imported; every Tracer and Trace method is safe for concurrent
//     use, so callers on different goroutines can share one trace set
//     under -race.
//
//   - Deterministic under the virtual clock. Timestamps are the serving
//     runtime's virtual seconds (live.RunDeterministic), trace IDs are
//     splitmix64 of (seed, request ID),
//     and the sampling decision is a pure function of the trace ID — a
//     fixed seed reproduces the same sampled set byte for byte.
//
//   - Bounded memory. Completed traces land in a fixed-capacity ring:
//     critical traces (shed, deadline-missed, failed, irrecoverable)
//     are always kept, ordinary completions probabilistically, and when
//     the ring is full the oldest non-critical entry is evicted first.
//
// Recording is gated like metrics: a nil *Tracer is a valid no-op
// everywhere, and SetEnabled(false) (or PIMDL_TRACE=0) turns the
// helpers off globally, so the recording cost can be measured against a
// spans-off run of the same benchmark workload.
package obs

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

var enabledFlag atomic.Bool

func init() {
	switch strings.ToLower(os.Getenv("PIMDL_TRACE")) {
	case "0", "off", "false":
		enabledFlag.Store(false)
	default:
		enabledFlag.Store(true)
	}
}

// Enabled reports whether span recording helpers should record. A nil
// Tracer is always a no-op regardless; this global gate toggles spans
// without rebuilding servers.
//
//pimdl:hotpath
func Enabled() bool { return enabledFlag.Load() }

// SetEnabled turns span recording on or off at runtime (tests).
//
//pimdl:lint-ignore deadexport tests switch spans off to cover the disabled path; binaries use PIMDL_TRACE
func SetEnabled(on bool) { enabledFlag.Store(on) }

// Phase classifies a span's time for the attribution report. Phase
// segments of one trace must not overlap: the report charges every
// phased span's duration to its phase and the remainder of the
// request's lifetime to PhaseOther, so overlapping phases would
// double-count. Decorative spans (attempt parents, routing detail)
// carry the empty phase and are timeline-only.
type Phase string

// The request phases of the live serving pipeline.
const (
	// PhaseQueue: admission to batch pickup (head-of-line wait).
	PhaseQueue Phase = "queue"
	// PhaseBatch: batch pickup to dispatch (continuous-batching wait
	// for co-riders and the shape budget).
	PhaseBatch Phase = "batch"
	// PhasePIM: successful PIM compute (the final attempt's busy time).
	PhasePIM Phase = "pim"
	// PhaseHost: successful host compute — breaker fallback, degrade
	// lane, or a host-routed retry.
	PhaseHost Phase = "host"
	// PhaseRetry: busy time of failed attempts (checksum rejections,
	// irrecoverable dispatches) — pure waste, the blame of DMA storms.
	PhaseRetry Phase = "retry"
	// PhaseBackoff: exponential-backoff pauses between attempts.
	PhaseBackoff Phase = "backoff"
	// PhaseBroadcast / PhaseGather: the sharded cluster's cross-DIMM
	// index broadcast and output gather shares of a PIM attempt.
	PhaseBroadcast Phase = "broadcast"
	PhaseGather    Phase = "gather"
	// PhaseOther is the residual the report assigns to lifetime not
	// covered by any phased span (scheduler gaps, clock skew between
	// pickup and dispatch stamps). Spans never carry it directly.
	PhaseOther Phase = "other"
)

// AttrKind is the type tag of a typed attribute.
type AttrKind uint8

// The attribute kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrFloat
	AttrBool
)

// Attr is one typed span attribute.
type Attr struct {
	Key  string
	Kind AttrKind
	S    string
	I    int64
	F    float64
	B    bool
}

// Str / Int construct typed attributes.
func Str(k, v string) Attr       { return Attr{Key: k, Kind: AttrString, S: v} }
func Int(k string, v int64) Attr { return Attr{Key: k, Kind: AttrInt, I: v} }

// Value renders the attribute value as a string (exports, tables).
func (a Attr) Value() string {
	switch a.Kind {
	case AttrInt:
		return fmt.Sprint(a.I)
	case AttrFloat:
		return fmt.Sprintf("%g", a.F)
	case AttrBool:
		return fmt.Sprint(a.B)
	default:
		return a.S
	}
}

// SpanID indexes a span within its trace; NoSpan means "no parent".
type SpanID int32

// NoSpan is the root sentinel.
const NoSpan SpanID = -1

// Span is one timed segment of a request's lifetime.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Phase  Phase
	// Start / End are virtual seconds; End < Start never occurs for a
	// finished span (the tracer closes still-open spans at the terminal
	// timestamp).
	Start, End float64
	Attrs      []Attr
	// ended tracks whether EndSpan ran, so a legitimate zero-duration
	// span is not mistaken for a still-open one at Finish.
	ended bool
}

// Dur returns the span's duration.
func (s Span) Dur() float64 { return s.End - s.Start }

// Trace is the span tree of one request. All methods are safe for
// concurrent use; a trace is typically written by whichever goroutine
// currently owns the request (submitter → dispatcher → lane worker).
type Trace struct {
	// TraceID is the deterministic nonzero identity: splitmix64 of the
	// tracer seed and the request ID. It is what exemplars and the
	// Perfetto export reference.
	TraceID uint64
	// ReqID is the runtime's request ID (live.Request.ID, decode job
	// sequence number).
	ReqID int64
	// Arrival is the virtual submit time the root span starts at.
	Arrival float64

	mu    sync.Mutex
	spans []Span
	// outcome / end are set by Finish.
	outcome  string
	end      float64
	critical bool
	done     bool
}

// StartSpan opens a child span and returns its ID.
func (t *Trace) StartSpan(parent SpanID, name string, phase Phase, now float64) SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Phase: phase, Start: now, End: now})
	t.mu.Unlock()
	recordSpanStart()
	return id
}

// EndSpan closes the span at now (no-op for NoSpan or a nil trace; a
// span may be ended at most once — later Ends win, which the runtime
// never exercises).
func (t *Trace) EndSpan(id SpanID, now float64) {
	if t == nil || id == NoSpan {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].End = now
		t.spans[id].ended = true
	}
	t.mu.Unlock()
}

// Annotate appends attributes to the span.
func (t *Trace) Annotate(id SpanID, attrs ...Attr) {
	if t == nil || id == NoSpan {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].Attrs = append(t.spans[id].Attrs, attrs...)
	}
	t.mu.Unlock()
}

// Outcome returns the terminal outcome ("" while in flight).
func (t *Trace) Outcome() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outcome
}

// Critical reports whether the trace was finished as critical.
func (t *Trace) Critical() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.critical
}

// Spans returns a copy of the spans in creation order.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		out[i].Attrs = append([]Attr(nil), t.spans[i].Attrs...)
	}
	return out
}

// Latency returns End - Arrival (the recorded end-to-end latency the
// attribution must reconcile with).
func (t *Trace) Latency() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.end - t.Arrival
}

// Config parameterizes a Tracer.
type Config struct {
	// Capacity bounds the completed-trace ring (≥ 1).
	Capacity int
	// SampleRate is the keep probability for non-critical completions,
	// in [0, 1]. Critical traces (shed, timeout, failed, expired,
	// irrecoverable) are always kept.
	SampleRate float64
	// Seed derives trace IDs and the sampling decision.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Capacity < 1 {
		return fmt.Errorf("obs: tracer capacity %d must be positive", c.Capacity)
	}
	if c.SampleRate < 0 || c.SampleRate > 1 {
		return fmt.Errorf("obs: sample rate %g outside [0,1]", c.SampleRate)
	}
	return nil
}

// Tracer owns the completed-trace ring of one run. A nil *Tracer is a
// valid no-op: Start returns nil and every Trace method tolerates nil.
type Tracer struct {
	cfg Config

	mu       sync.Mutex
	ring     []*Trace // kept completions, oldest first
	started  int64
	finished int64
	sampled  int64
	dropped  int64
	evicted  int64
}

// NewTracer builds a tracer.
func NewTracer(cfg Config) (*Tracer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracer{cfg: cfg}, nil
}

// splitmix64 is the SplitMix64 mixer — the same deterministic stream
// derivation the shard layer uses for per-shard fault seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TraceID returns the deterministic nonzero trace identity for a
// request ID under the tracer's seed.
func (tc *Tracer) TraceID(reqID int64) uint64 {
	id := splitmix64(uint64(tc.cfg.Seed) ^ splitmix64(uint64(reqID)))
	if id == 0 {
		id = 1 // 0 is the "unsampled" sentinel in Record.TraceID
	}
	return id
}

// Start opens a trace for a request at its virtual arrival time. The
// root span (ID 0, name "request") covers the whole lifetime. Returns
// nil — a universal no-op — when the tracer is nil or recording is
// globally disabled.
func (tc *Tracer) Start(reqID int64, arrival float64) *Trace {
	if tc == nil || !Enabled() {
		return nil
	}
	t := &Trace{TraceID: tc.TraceID(reqID), ReqID: reqID, Arrival: arrival}
	t.spans = append(t.spans, Span{ID: 0, Parent: NoSpan, Name: "request", Start: arrival, End: arrival})
	tc.mu.Lock()
	tc.started++
	tc.mu.Unlock()
	recordSpanStart()
	return t
}

// sampleKeep is the deterministic probabilistic keep decision: a pure
// function of the trace ID, so a fixed seed reproduces the same set.
func (tc *Tracer) sampleKeep(traceID uint64) bool {
	if tc.cfg.SampleRate >= 1 {
		return true
	}
	if tc.cfg.SampleRate <= 0 {
		return false
	}
	// 53 uniform bits → [0, 1).
	u := float64(splitmix64(traceID)>>11) / float64(1<<53)
	return u < tc.cfg.SampleRate
}

// Finish seals the trace with its terminal outcome at end, closes the
// root span and any still-open spans, and offers it to the ring.
// critical marks traces that bypass probabilistic sampling (the
// always-on classes: shed, deadline-missed, failed, irrecoverable,
// expired). It reports whether the trace was kept — callers use this
// to decide whether to expose the trace ID (exemplars resolve only for
// kept traces).
func (tc *Tracer) Finish(t *Trace, outcome string, end float64, critical bool) bool {
	if tc == nil || t == nil {
		return false
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return false
	}
	t.done = true
	t.outcome = outcome
	t.end = end
	t.critical = critical
	for i := range t.spans {
		if !t.spans[i].ended {
			t.spans[i].End = end
			t.spans[i].ended = true
		}
	}
	t.spans[0].End = end
	t.mu.Unlock()

	keep := critical || tc.sampleKeep(t.TraceID)
	tc.mu.Lock()
	tc.finished++
	if !keep {
		tc.dropped++
		tc.mu.Unlock()
		recordTraceFinish("dropped")
		return false
	}
	if len(tc.ring) >= tc.cfg.Capacity {
		// Evict the oldest non-critical entry; if every entry is
		// critical, evict the oldest outright — the ring stays bounded
		// no matter what the run does.
		victim := 0
		for i, old := range tc.ring {
			if !old.Critical() {
				victim = i
				break
			}
		}
		tc.ring = append(tc.ring[:victim], tc.ring[victim+1:]...)
		tc.evicted++
		recordEviction()
	}
	tc.ring = append(tc.ring, t)
	tc.sampled++
	tc.mu.Unlock()
	if critical {
		recordTraceFinish("critical")
	} else {
		recordTraceFinish("sampled")
	}
	return true
}

// Traces returns the kept traces sorted by arrival (ties by request
// ID) — the deterministic order every report and export walks.
func (tc *Tracer) Traces() []*Trace {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	out := append([]*Trace(nil), tc.ring...)
	tc.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		//pimdl:lint-ignore float-compare sort tie-break; equal arrivals fall through to the ID order
		if out[i].Arrival != out[j].Arrival {
			return out[i].Arrival < out[j].Arrival
		}
		return out[i].ReqID < out[j].ReqID
	})
	return out
}

// Lookup returns the kept trace with the given trace ID, or nil — the
// exemplar-resolution path.
func (tc *Tracer) Lookup(traceID uint64) *Trace {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, t := range tc.ring {
		if t.TraceID == traceID {
			return t
		}
	}
	return nil
}

// Stats is the tracer's own accounting.
type Stats struct {
	Started, Finished, Sampled, Dropped, Evicted int64
}

// Stats returns the accounting counters.
func (tc *Tracer) Stats() Stats {
	if tc == nil {
		return Stats{}
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return Stats{Started: tc.started, Finished: tc.finished,
		Sampled: tc.sampled, Dropped: tc.dropped, Evicted: tc.evicted}
}
