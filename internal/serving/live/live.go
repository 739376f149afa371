// Package live is the concurrent serving runtime on top of the offline
// simulator: where serving.Simulate replays a precomputed arrival array
// inside one event loop, this package runs a real goroutine-based
// server — a bounded admission queue with an explicit load-shedding
// policy, continuous batching that merges queued requests up to a
// batch/shape budget, deadline-aware dispatch with retry/backoff
// against a fault-injected PIM backend, and a circuit breaker that
// diverts to the host fallback while the array misbehaves and recovers
// automatically. It is the StepStone-style batched-cloud-inference
// story (Cho et al., PAPERS.md) made robust.
//
// Time is virtual: every latency is the model's seconds, mapped to the
// wall clock through a ScaledClock so saturation runs finish in test
// time while goroutines genuinely contend. The offline simulator stays
// the oracle — Recorder.Replay re-runs a recorded live run through
// serving.SimulateRobust and must reproduce its latency percentiles
// within tolerance (DESIGN.md §12).
package live

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serving"
)

// ShedPolicy decides what happens to a request that finds the admission
// queue full.
type ShedPolicy int

// The shed policies.
const (
	// ShedReject drops the request immediately (fail fast; the client
	// sees the rejection while its deadline still has budget).
	ShedReject ShedPolicy = iota
	// ShedBlock applies backpressure: Submit blocks until queue space
	// frees. Overload surfaces as client-side delay, not drops.
	ShedBlock
	// ShedDegrade spills the request to the degrade lane, which serves
	// it singly on the host fallback; if that lane is full too, the
	// request is dropped.
	ShedDegrade
)

func (p ShedPolicy) String() string {
	switch p {
	case ShedReject:
		return "reject"
	case ShedBlock:
		return "block"
	case ShedDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("shed(%d)", int(p))
	}
}

// Config parameterizes a Server.
type Config struct {
	// Policy is the batching policy (MaxBatch requests, MaxWait virtual
	// seconds), with the same semantics as the offline simulator.
	Policy serving.Policy
	// MaxBatchRows bounds the total activation rows a batch may carry
	// (the shape budget of continuous batching); 0 disables it.
	MaxBatchRows int
	// QueueCap bounds the admission queue.
	QueueCap int
	// Shed is the policy for a full queue.
	Shed ShedPolicy
	// DegradeWorkers sizes the degrade lane (ShedDegrade only);
	// 0 defaults to 1.
	DegradeWorkers int
	// Robust supplies Deadline, MaxRetries and Backoff. FailRate and
	// Seed are ignored — live failures come from the fault-injected
	// backend, not a coin flip.
	Robust serving.Robustness
	// Breaker configures the circuit breaker guarding the PIM backend
	// (zero value: disabled).
	Breaker BreakerConfig
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if err := c.Robust.Validate(); err != nil {
		return err
	}
	if err := c.Breaker.Validate(); err != nil {
		return err
	}
	if c.QueueCap <= 0 {
		return fmt.Errorf("live: QueueCap must be positive")
	}
	if c.MaxBatchRows < 0 {
		return fmt.Errorf("live: MaxBatchRows must be non-negative")
	}
	if c.DegradeWorkers < 0 {
		return fmt.Errorf("live: DegradeWorkers must be non-negative")
	}
	switch c.Shed {
	case ShedReject, ShedBlock, ShedDegrade:
	default:
		return fmt.Errorf("live: unknown shed policy %d", int(c.Shed))
	}
	return nil
}

// Request is one in-flight inference request.
type Request struct {
	ID         int64
	Kind, Rows int
	// Arrival is the virtual submit time (stamped by Submit).
	Arrival float64

	// tr / span carry the request's span trace and its currently open
	// phase span (nil / NoSpan when tracing is off). Only the goroutine
	// that currently owns the request touches span.
	tr   *obs.Trace
	span obs.SpanID
}

// Server is the live serving runtime. Lifecycle: NewServer → Start →
// Submit (any goroutines) → Drain. Submit must not be called after
// Drain has been entered; stop the load generator first.
type Server struct {
	cfg     Config
	clock   *ScaledClock
	pimBE   Backend
	hostBE  Backend
	breaker *Breaker
	rec     *Recorder
	tracer  *obs.Tracer

	queue   chan *Request
	degrade chan *Request
	g       parallel.Group
	idSeq   atomic.Int64
	started atomic.Bool
}

// NewServer builds a server. hostBE may be nil when neither ShedDegrade
// nor the breaker is enabled.
func NewServer(cfg Config, clock *ScaledClock, pimBE, hostBE Backend) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, fmt.Errorf("live: server needs a clock")
	}
	if pimBE == nil {
		return nil, fmt.Errorf("live: server needs a PIM backend")
	}
	if hostBE == nil && cfg.Shed == ShedDegrade {
		return nil, fmt.Errorf("live: ShedDegrade needs a host backend")
	}
	if hostBE == nil && cfg.Breaker.Enabled() {
		return nil, fmt.Errorf("live: the circuit breaker needs a host backend to divert to")
	}
	if cfg.DegradeWorkers == 0 {
		cfg.DegradeWorkers = 1
	}
	s := &Server{
		cfg:    cfg,
		clock:  clock,
		pimBE:  pimBE,
		hostBE: hostBE,
		rec:    NewRecorder(),
		queue:  make(chan *Request, cfg.QueueCap),
	}
	var err error
	s.breaker, err = NewBreaker(cfg.Breaker, func(now float64, from, to BreakerState) {
		s.rec.AddEvent(Event{At: now, Kind: "breaker", Note: from.String() + "→" + to.String()})
		recordBreaker(from, to)
	})
	if err != nil {
		return nil, err
	}
	if cfg.Shed == ShedDegrade {
		s.degrade = make(chan *Request, cfg.QueueCap)
	}
	return s, nil
}

// Recorder returns the run's terminal sink.
func (s *Server) Recorder() *Recorder { return s.rec }

// SetTracer attaches a span tracer to the server. Must be called before
// Start; a nil tracer (the default) records nothing.
//
//pimdl:lint-ignore deadexport goroutine server tracing is reached from trace_test only until live.Server joins the serve workload
func (s *Server) SetTracer(tc *obs.Tracer) { s.tracer = tc }

// Breaker returns the circuit breaker (disabled breakers report
// BreakerClosed forever).
func (s *Server) Breaker() *Breaker { return s.breaker }

// Clock returns the server's clock.
func (s *Server) Clock() *ScaledClock { return s.clock }

// Start launches the dispatcher and degrade-lane workers.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	s.g.Go(s.dispatchLoop)
	if s.degrade != nil {
		for i := 0; i < s.cfg.DegradeWorkers; i++ {
			s.g.Go(s.degradeLoop)
		}
	}
}

// Submit offers one request to the server and reports whether it was
// admitted (false: shed at the door under ShedReject, or both lanes
// full under ShedDegrade). Safe for concurrent use.
func (s *Server) Submit(kind, rows int) bool {
	if rows <= 0 {
		rows = 1
	}
	r := &Request{ID: s.idSeq.Add(1), Kind: kind, Rows: rows, Arrival: s.clock.Now()}
	traceSubmit(s.tracer, r)
	recordSubmit()
	shed := func() {
		tid := traceTerminal(s.tracer, r, OutcomeShedQueue.String(), r.Arrival, true)
		s.rec.Add(Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
			Outcome: OutcomeShedQueue, TraceID: tid})
	}
	switch s.cfg.Shed {
	case ShedBlock:
		s.queue <- r
	case ShedReject:
		select {
		case s.queue <- r:
		default:
			shed()
			return false
		}
	case ShedDegrade:
		select {
		case s.queue <- r:
		default:
			select {
			case s.degrade <- r:
			default:
				shed()
				return false
			}
		}
	}
	observeLiveQueue(len(s.queue))
	return true
}

// Drain closes admission, waits until every queued request has reached
// a terminal state and all server goroutines have exited. Submit must
// not be called concurrently with or after Drain.
func (s *Server) Drain() {
	close(s.queue)
	if s.degrade != nil {
		close(s.degrade)
	}
	s.g.Wait()
}

// dispatchLoop is the single primary-lane server: it forms batches by
// continuous batching and executes them one at a time, exactly like the
// offline simulator's one-server model. Matching the offline dispatch
// semantics, expired requests are shed at dispatch time and the batch is
// topped up from the queue, so a wave of timeouts does not waste a
// dispatch on a nearly empty batch.
func (s *Server) dispatchLoop() {
	var pending *Request
	for {
		first := pending
		pending = nil
		if first == nil {
			r, ok := <-s.queue
			if !ok {
				return
			}
			tracePickup(r, s.clock.Now())
			first = r
		}
		batch, leftover := s.fill(first)
		batch, leftover = s.shedAndTopUp(batch, leftover)
		pending = leftover
		if len(batch) > 0 {
			s.executeBatch(batch)
		}
	}
}

// shedAndTopUp is the dispatch-time deadline pass: requests whose
// deadline already passed are shed as timeouts, and the holes they leave
// are refilled from the queue (non-blocking) up to the batch and shape
// budgets — the live equivalent of the offline simulator shedding the
// expired queue prefix before serving a full batch of survivors.
func (s *Server) shedAndTopUp(batch []*Request, leftover *Request) ([]*Request, *Request) {
	now := s.clock.Now()
	deadline := s.cfg.Robust.Deadline
	expired := func(r *Request) bool { return deadline > 0 && now >= r.Arrival+deadline }

	timeout := func(r *Request) {
		tid := traceTerminal(s.tracer, r, OutcomeTimeout.String(), now, true)
		s.rec.Add(Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
			Outcome: OutcomeTimeout, TraceID: tid})
	}
	kept := batch[:0]
	rows := 0
	for _, r := range batch {
		if expired(r) {
			timeout(r)
			continue
		}
		kept = append(kept, r)
		rows += r.Rows
	}
	for leftover == nil && len(kept) < s.cfg.Policy.MaxBatch {
		var r *Request
		select {
		case req, ok := <-s.queue:
			if !ok {
				return kept, nil
			}
			r = req
		default:
			return kept, nil
		}
		if expired(r) {
			timeout(r)
			continue
		}
		tracePickup(r, now)
		if s.cfg.MaxBatchRows > 0 && rows+r.Rows > s.cfg.MaxBatchRows {
			leftover = r
			break
		}
		kept = append(kept, r)
		rows += r.Rows
	}
	return kept, leftover
}

// fill forms one batch by continuous batching: starting from first, it
// merges arrivals until the batch budget (Policy.MaxBatch requests),
// the shape budget (MaxBatchRows rows) or the wait budget (oldest
// request waiting Policy.MaxWait) is exhausted. A request that would
// overflow the shape budget is returned as leftover and leads the next
// batch.
func (s *Server) fill(first *Request) (batch []*Request, leftover *Request) {
	batch = []*Request{first}
	rows := first.Rows
	pol := s.cfg.Policy
	for len(batch) < pol.MaxBatch {
		var r *Request
		var ok bool
		if wait := first.Arrival + pol.MaxWait - s.clock.Now(); wait <= 0 {
			select {
			case r, ok = <-s.queue:
			default:
				return batch, nil
			}
		} else {
			timer := time.NewTimer(s.clock.WallDuration(wait))
			select {
			case r, ok = <-s.queue:
				timer.Stop()
			case <-timer.C:
				return batch, nil
			}
		}
		if !ok {
			return batch, nil
		}
		tracePickup(r, s.clock.Now())
		if s.cfg.MaxBatchRows > 0 && rows+r.Rows > s.cfg.MaxBatchRows {
			return batch, r
		}
		batch = append(batch, r)
		rows += r.Rows
	}
	return batch, nil
}

// executeBatch runs one already-shedded batch to a terminal state:
// execute with retry/backoff, routing each attempt through the circuit
// breaker.
func (s *Server) executeBatch(batch []*Request) {
	observeLiveQueue(len(s.queue))
	now := s.clock.Now()
	rob := s.cfg.Robust
	rows := 0
	for _, r := range batch {
		rows += r.Rows
	}
	traceDispatch(batch, now)
	br := BatchRecord{Start: now, Size: len(batch), Rows: rows}
	for attempt := 0; ; attempt++ {
		attStart := s.clock.Now()
		be, viaPIM := s.routeAttempt()
		out := be.Execute(len(batch), rows)
		if out.Latency > 0 {
			s.clock.Sleep(out.Latency)
		}
		attEnd := s.clock.Now()
		if viaPIM {
			s.breaker.Record(attEnd, out.OK)
		}
		traceAttempt(batch, attempt, out, attStart, attEnd)
		br.Attempts++
		br.AttemptDurs = append(br.AttemptDurs, out.Latency)
		br.Backends = append(br.Backends, out.Backend)
		br.DMARetries += out.DMARetries
		br.Failovers += out.Failovers
		if out.LiveShards > 0 {
			br.LiveShards = out.LiveShards
		}
		recordAttempt(out, attempt)
		if out.OK {
			done := attEnd
			br.Done = done
			tids := make([]uint64, len(batch))
			for i, r := range batch {
				rec := Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
					Outcome: OutcomeServed, Start: br.Start, Done: done,
					Batch: len(batch), Backend: out.Backend}
				if rob.Deadline > 0 && done > r.Arrival+rob.Deadline {
					rec.Expired = true
				}
				// Deadline-missed completions are an always-on trace class.
				rec.TraceID = traceTerminal(s.tracer, r, OutcomeServed.String(), done, rec.Expired)
				tids[i] = rec.TraceID
				s.rec.Add(rec)
			}
			br.TraceID = batchTraceID(tids)
			s.rec.AddBatch(br)
			return
		}
		if attempt >= rob.MaxRetries {
			done := attEnd
			br.Done = done
			br.Failed = true
			tids := make([]uint64, len(batch))
			for i, r := range batch {
				tid := traceTerminal(s.tracer, r, OutcomeFailed.String(), done, true)
				tids[i] = tid
				s.rec.Add(Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
					Outcome: OutcomeFailed, TraceID: tid})
			}
			br.TraceID = batchTraceID(tids)
			s.rec.AddBatch(br)
			return
		}
		if rob.Backoff > 0 {
			s.clock.Sleep(rob.Backoff * math.Pow(2, float64(attempt)))
			traceBackoff(batch, attEnd, s.clock.Now())
		}
	}
}

// routeAttempt picks the backend for one attempt via the breaker.
func (s *Server) routeAttempt() (Backend, bool) {
	if s.hostBE == nil || !s.cfg.Breaker.Enabled() {
		return s.pimBE, true
	}
	if s.breaker.Route(s.clock.Now()) == RouteHost {
		return s.hostBE, false
	}
	return s.pimBE, true
}

// degradeLoop serves the degrade lane: spilled requests run singly on
// the host fallback, still deadline-checked.
func (s *Server) degradeLoop() {
	for r := range s.degrade {
		now := s.clock.Now()
		if d := s.cfg.Robust.Deadline; d > 0 && now >= r.Arrival+d {
			tid := traceTerminal(s.tracer, r, OutcomeTimeout.String(), now, true)
			s.rec.Add(Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
				Outcome: OutcomeTimeout, TraceID: tid})
			continue
		}
		out := s.hostBE.Execute(1, r.Rows)
		if out.Latency > 0 {
			s.clock.Sleep(out.Latency)
		}
		done := s.clock.Now()
		traceDegrade(r, out, now, done)
		rec := Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
			Outcome: OutcomeDegraded, Start: now, Done: done, Batch: 1, Backend: out.Backend}
		if d := s.cfg.Robust.Deadline; d > 0 && done > r.Arrival+d {
			rec.Expired = true
		}
		rec.TraceID = traceTerminal(s.tracer, r, OutcomeDegraded.String(), done, rec.Expired)
		s.rec.Add(rec)
	}
}
