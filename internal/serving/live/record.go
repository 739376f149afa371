package live

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/serving"
)

// OutcomeKind is the terminal state of one submitted request. Every
// arrival produces exactly one record with exactly one OutcomeKind — the
// conservation law the chaos tests pin (Conservation).
type OutcomeKind int

// The request outcomes.
const (
	// OutcomeServed: completed by the primary (batched) lane.
	OutcomeServed OutcomeKind = iota
	// OutcomeDegraded: completed by the degrade lane (host spillover
	// under ShedDegrade).
	OutcomeDegraded
	// OutcomeShedQueue: rejected at admission (queue full).
	OutcomeShedQueue
	// OutcomeTimeout: deadline passed before service began.
	OutcomeTimeout
	// OutcomeFailed: dropped with its batch's retry budget spent.
	OutcomeFailed
)

func (k OutcomeKind) String() string {
	switch k {
	case OutcomeServed:
		return "served"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeShedQueue:
		return "shed"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeFailed:
		return "failed"
	default:
		return fmt.Sprintf("outcome(%d)", int(k))
	}
}

// Record is the terminal account of one request.
type Record struct {
	ID         int64
	Kind, Rows int
	Arrival    float64
	Outcome    OutcomeKind
	// Start/Done/Batch/Backend are set for served and degraded requests.
	Start, Done float64
	Batch       int
	Backend     string
	// Expired marks a request served past its deadline.
	Expired bool
	// TraceID links the record to its kept span trace in the obs layer;
	// 0 means the trace was not sampled (or tracing was off).
	TraceID uint64
}

// Latency returns the request's end-to-end latency (0 if unserved).
func (r Record) Latency() float64 {
	if r.Outcome != OutcomeServed && r.Outcome != OutcomeDegraded {
		return 0
	}
	return r.Done - r.Arrival
}

// BatchRecord is one primary-lane batch execution, across all its
// attempts.
type BatchRecord struct {
	Start, Done float64
	Size, Rows  int
	// Attempts is the total execution attempts (≥ 1); AttemptDurs their
	// individual modelled durations; Backends who ran each attempt.
	Attempts    int
	AttemptDurs []float64
	Backends    []string
	DMARetries  int
	// Failovers counts cluster tiles served off their preferred replica
	// across the batch's attempts; LiveShards is the live shard count of
	// the final attempt (both sharded PIM backend only, zero otherwise).
	Failovers  int
	LiveShards int
	// Failed marks a batch dropped with its retry budget spent.
	Failed bool
	// TraceID is the first kept member trace of the batch (0 when no
	// member was sampled) — the batch-size histogram's exemplar.
	TraceID uint64
}

// Event is one timeline annotation: a chaos plan change or a breaker
// transition. Kind is one of "chaos", "breaker"; Note is free-form.
type Event struct {
	At   float64
	Kind string
	Note string
}

// Summary are the run's accounting totals.
type Summary struct {
	Submitted int
	Served    int
	Degraded  int
	ShedQueue int
	Timeouts  int
	Failures  int
	Expired   int
	// Batches / Attempts / Retries / DMARetries cover the primary lane.
	Batches    int
	Attempts   int
	Retries    int // attempts beyond the first, across batches
	DMARetries int
	Failovers  int // cluster tiles served off their preferred replica
	HostServed int // primary-lane requests served by the host fallback
}

// Conservation checks the accounting identity: every submitted request
// reached exactly one terminal state.
func (s Summary) Conservation() error {
	total := s.Served + s.Degraded + s.ShedQueue + s.Timeouts + s.Failures
	if total != s.Submitted {
		return fmt.Errorf("live: conservation broken: served %d + degraded %d + shed %d + timeouts %d + failures %d = %d != submitted %d",
			s.Served, s.Degraded, s.ShedQueue, s.Timeouts, s.Failures, total, s.Submitted)
	}
	return nil
}

// Recorder is the run's terminal sink: every request record, every
// batch execution and every timeline event, safe for concurrent append.
type Recorder struct {
	mu      sync.Mutex
	recs    []Record
	batches []BatchRecord
	events  []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add appends one terminal request record (and folds it into the live
// metrics). The server is the usual writer; tools reconstructing a run
// — e.g. to feed trace.ExportLive — may also populate a recorder
// directly.
func (r *Recorder) Add(rec Record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
	recordOutcome(rec)
}

// AddBatch appends one primary-lane batch execution.
func (r *Recorder) AddBatch(br BatchRecord) {
	r.mu.Lock()
	r.batches = append(r.batches, br)
	r.mu.Unlock()
	recordBatchExec(br)
}

// AddEvent appends a timeline annotation (chaos controller, breaker).
func (r *Recorder) AddEvent(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Records returns a copy of all request records, sorted by arrival.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	out := append([]Record(nil), r.recs...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		//pimdl:lint-ignore float-compare sort tie-break; equal arrivals fall through to the ID order, any bit difference is a real order
		if out[i].Arrival != out[j].Arrival {
			return out[i].Arrival < out[j].Arrival
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Batches returns a copy of the batch executions, sorted by start.
func (r *Recorder) Batches() []BatchRecord {
	r.mu.Lock()
	out := append([]BatchRecord(nil), r.batches...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Events returns a copy of the timeline annotations, sorted by time.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Summary computes the accounting totals.
func (r *Recorder) Summary() Summary {
	var s Summary
	for _, rec := range r.Records() {
		s.Submitted++
		switch rec.Outcome {
		case OutcomeServed:
			s.Served++
			if rec.Backend == "host" {
				s.HostServed++
			}
		case OutcomeDegraded:
			s.Degraded++
		case OutcomeShedQueue:
			s.ShedQueue++
		case OutcomeTimeout:
			s.Timeouts++
		case OutcomeFailed:
			s.Failures++
		}
		if rec.Expired {
			s.Expired++
		}
	}
	for _, b := range r.Batches() {
		s.Batches++
		s.Attempts += b.Attempts
		s.Retries += b.Attempts - 1
		s.DMARetries += b.DMARetries
		s.Failovers += b.Failovers
	}
	return s
}

// PrimaryTrace converts the primary lane's completions into the offline
// simulator's Trace form, so MeanLatency/Percentile/Throughput apply to
// live runs unchanged.
func (r *Recorder) PrimaryTrace() *serving.Trace {
	tr := &serving.Trace{}
	for _, rec := range r.Records() {
		switch rec.Outcome {
		case OutcomeServed:
			c := serving.Completion{Arrival: rec.Arrival, Start: rec.Start, Done: rec.Done,
				Batch: rec.Batch, Expired: rec.Expired}
			tr.Completions = append(tr.Completions, c)
			if rec.Expired {
				tr.Expired++
			}
			if rec.Done > tr.Makespan {
				tr.Makespan = rec.Done
			}
		case OutcomeTimeout:
			tr.Timeouts++
		case OutcomeFailed:
			tr.Failures++
		}
	}
	for _, b := range r.Batches() {
		tr.Batches++
		tr.Retries += b.Attempts - 1
		if b.Done > tr.Makespan {
			tr.Makespan = b.Done
		}
	}
	return tr
}

// FitLatencyModel reconstructs the batch-size → attempt-duration model
// the live run actually experienced: the mean recorded attempt duration
// per batch size, piecewise-linearly interpolated. This is the model
// the replay oracle hands the offline simulator, so the oracle checks
// the queueing/batching/deadline machinery, not the backend model.
func (r *Recorder) FitLatencyModel() (serving.LatencyModel, error) {
	sum := map[int]float64{}
	n := map[int]int{}
	for _, b := range r.Batches() {
		for _, d := range b.AttemptDurs {
			sum[b.Size] += d
			n[b.Size]++
		}
	}
	if len(sum) == 0 {
		return nil, fmt.Errorf("live: no batch executions to fit a latency model from")
	}
	sizes := make([]int, 0, len(sum))
	for s := range sum {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	means := make([]float64, len(sizes))
	for i, s := range sizes {
		means[i] = sum[s] / float64(n[s])
	}
	if len(sizes) == 1 {
		m := means[0]
		return func(int) float64 { return m }, nil
	}
	return serving.InterpolatedLatency(sizes, means)
}

// MeasuredFailRate returns the fraction of primary-lane attempts that
// failed verification — the replay oracle's stand-in for the live
// backend's fault behaviour.
func (r *Recorder) MeasuredFailRate() float64 {
	attempts, failures := 0, 0
	for _, b := range r.Batches() {
		attempts += b.Attempts
		// Attempts beyond the first each follow a failure; a batch that
		// ultimately failed also failed its final attempt.
		failures += b.Attempts - 1
		if b.Failed {
			failures++
		}
	}
	if attempts == 0 {
		return 0
	}
	return float64(failures) / float64(attempts)
}

// Replay runs the recorded live run through the offline event-driven
// simulator: the primary lane's recorded arrivals, the latency model
// fitted from its own batch executions, the configured policy/deadline/
// retry parameters, and the measured attempt failure rate. The returned
// trace is the oracle's prediction of the live latency distribution
// (see DESIGN.md §12 for the equivalence contract and its tolerance).
func (r *Recorder) Replay(cfg Config, seed int64) (*serving.Trace, error) {
	var arrivals []float64
	for _, rec := range r.Records() {
		switch rec.Outcome {
		case OutcomeServed, OutcomeTimeout, OutcomeFailed:
			arrivals = append(arrivals, rec.Arrival)
		}
	}
	sort.Float64s(arrivals)
	lat, err := r.FitLatencyModel()
	if err != nil {
		return nil, err
	}
	rob := serving.Robustness{
		Deadline:   cfg.Robust.Deadline,
		FailRate:   r.MeasuredFailRate(),
		MaxRetries: cfg.Robust.MaxRetries,
		Backoff:    cfg.Robust.Backoff,
		Seed:       seed,
	}
	return serving.SimulateRobust(arrivals, lat, cfg.Policy, rob)
}

// PercentileGap returns the relative difference between the live and
// replayed latency distribution at percentile p: |live - sim| / live.
// A zero live percentile with a non-zero sim percentile returns +Inf.
func PercentileGap(liveTr, simTr *serving.Trace, p float64) float64 {
	lv, sv := liveTr.Percentile(p), simTr.Percentile(p)
	//pimdl:lint-ignore float-compare Percentile returns exactly 0 for an empty trace; that sentinel guards the division
	if lv == 0 {
		//pimdl:lint-ignore float-compare same empty-trace sentinel on the replay side
		if sv == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(lv-sv) / lv
}
