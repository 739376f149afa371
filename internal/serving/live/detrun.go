package live

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// RunDeterministic serves a scenario as a single-goroutine
// discrete-event simulation in pure virtual time. It applies the
// admission and shed policies, continuous batching (MaxBatch /
// MaxBatchRows / MaxWait with leftover carry-over), dispatch-time
// deadline shedding with top-up, breaker-routed attempts with
// retry/backoff against the Backend implementations, chaos plan swaps
// and shard kills at their scheduled times, and the degrade lane as a
// bank of virtual workers.
//
// Every timestamp is an exact function of the inputs: two runs with the
// same configuration, arrivals, schedule and seeds produce
// byte-identical recorders, metrics and span traces. pimdl-sim -live,
// pimdl-trace and the benchmark's serve workload all run on it.
//
// ShedBlock admits without bound: backpressure parks the submitter, not
// the request, so the arrival stamp and everything downstream are those
// of an unbounded queue. A batch whose formation window outlives the
// final arrival still closes at the window's end.
func RunDeterministic(cfg Config, pimBE, hostBE Backend, arrivals []Arrival, sched ChaosSchedule, tracer *obs.Tracer) (*ChaosResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pimBE == nil {
		return nil, fmt.Errorf("live: deterministic run needs a PIM backend")
	}
	if hostBE == nil && cfg.Shed == ShedDegrade {
		return nil, fmt.Errorf("live: ShedDegrade needs a host backend")
	}
	if hostBE == nil && cfg.Breaker.Enabled() {
		return nil, fmt.Errorf("live: the circuit breaker needs a host backend to divert to")
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	var chaosTarget ChaosTarget
	if len(sched) > 0 {
		be, ok := pimBE.(ChaosTarget)
		if !ok {
			return nil, fmt.Errorf("live: chaos schedule needs a ChaosTarget backend, have %T", pimBE)
		}
		for _, ev := range sched {
			if ev.shardOps() {
				if _, ok := be.(ShardChaosTarget); !ok {
					return nil, fmt.Errorf("live: shard-kill chaos events need a sharded backend, have %T", pimBE)
				}
				break
			}
		}
		chaosTarget = be
	}
	if cfg.DegradeWorkers == 0 {
		cfg.DegradeWorkers = 1
	}
	d := &detRunner{
		cfg:      cfg,
		pim:      pimBE,
		host:     hostBE,
		rec:      NewRecorder(),
		tracer:   tracer,
		arrivals: append([]Arrival(nil), arrivals...),
		sched:    append(ChaosSchedule(nil), sched...),
		target:   chaosTarget,
		degFree:  make([]float64, cfg.DegradeWorkers),
	}
	sort.SliceStable(d.arrivals, func(i, j int) bool { return d.arrivals[i].At < d.arrivals[j].At })
	sort.SliceStable(d.sched, func(i, j int) bool { return d.sched[i].At < d.sched[j].At })
	var err error
	// The callback captures the recorder, not d: the returned Breaker
	// must not keep the runner's queues and requests alive.
	rec := d.rec
	d.breaker, err = NewBreaker(cfg.Breaker, func(now float64, from, to BreakerState) {
		rec.AddEvent(Event{At: now, Kind: "breaker", Note: from.String() + "→" + to.String()})
		recordBreaker(from, to)
	})
	if err != nil {
		return nil, err
	}
	d.run()
	return &ChaosResult{Recorder: d.rec, Summary: d.rec.Summary(), Admitted: d.admitted, Breaker: d.breaker}, nil
}

// detRunner is the single-goroutine event simulation's state.
type detRunner struct {
	cfg     Config
	pim     Backend
	host    Backend
	breaker *Breaker
	rec     *Recorder
	tracer  *obs.Tracer
	target  ChaosTarget

	arrivals []Arrival
	ai       int // next arrival to admit
	sched    ChaosSchedule
	si       int // next chaos event to apply
	idSeq    int64
	admitted int

	// waiting is the admission queue: admitted requests the dispatcher
	// has not yet picked up, in arrival order.
	waiting  []*Request
	leftover *Request
	// serverFree is when the primary lane finishes its current batch.
	serverFree float64
	// degFree / degPickups model the degrade-lane worker bank: per-worker
	// free times, and the pickup times of every spilled request (the
	// degrade queue's occupancy at time t is the count of pickups > t).
	degFree    []float64
	degPickups []float64
}

// run is the main dispatch loop: form a batch, shed-and-top-up, execute,
// repeat until arrivals, queue and leftover are all exhausted.
func (d *detRunner) run() {
	for {
		first, t0 := d.nextFirst()
		if first == nil {
			// Late chaos events still land on the timeline.
			d.applyChaos(math.Inf(1))
			return
		}
		batch, leftover, tClose := d.formBatch(first, t0)
		d.admitUntil(tClose)
		batch, leftover = d.shedAndTopUp(batch, leftover, tClose)
		d.leftover = leftover
		if len(batch) > 0 {
			d.executeBatch(batch, tClose)
		}
	}
}

// admitUntil processes every arrival with At ≤ t through admission, in
// order.
func (d *detRunner) admitUntil(t float64) {
	for d.ai < len(d.arrivals) && d.arrivals[d.ai].At <= t {
		d.admit(d.arrivals[d.ai])
		d.ai++
	}
}

// admit stamps and traces one arrival, then applies the shed policy
// against the modelled queue occupancies.
func (d *detRunner) admit(a Arrival) *Request {
	rows := a.Rows
	if rows <= 0 {
		rows = 1
	}
	d.idSeq++
	r := &Request{ID: d.idSeq, Kind: a.Kind, Rows: rows, Arrival: a.At}
	traceSubmit(d.tracer, r)
	recordSubmit()
	shed := func() {
		tid := traceTerminal(d.tracer, r, OutcomeShedQueue.String(), r.Arrival, true)
		d.rec.Add(Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
			Outcome: OutcomeShedQueue, TraceID: tid})
	}
	switch d.cfg.Shed {
	case ShedBlock:
		// Backpressure parks the submitter, not the request: it always
		// lands with its original arrival stamp.
	case ShedReject:
		if len(d.waiting) >= d.cfg.QueueCap {
			shed()
			return nil
		}
	case ShedDegrade:
		if len(d.waiting) >= d.cfg.QueueCap {
			if d.degradeOccupancy(a.At) >= d.cfg.QueueCap {
				shed()
				return nil
			}
			d.admitted++
			d.spill(r)
			return nil
		}
	}
	d.admitted++
	d.waiting = append(d.waiting, r)
	observeLiveQueue(len(d.waiting))
	return r
}

// degradeOccupancy counts spilled requests not yet picked up at time t.
func (d *detRunner) degradeOccupancy(t float64) int {
	n := 0
	for _, p := range d.degPickups {
		if p > t {
			n++
		}
	}
	return n
}

// spill runs one request through the degrade lane: the earliest-free
// worker picks it up, deadline-checks it, and serves it singly on the
// host. The lane is independent of the primary lane, so it can be
// simulated eagerly at admission time.
func (d *detRunner) spill(r *Request) {
	w := 0
	for i, f := range d.degFree {
		if f < d.degFree[w] {
			w = i
		}
	}
	start := math.Max(d.degFree[w], r.Arrival)
	d.degPickups = append(d.degPickups, start)
	if dl := d.cfg.Robust.Deadline; dl > 0 && start >= r.Arrival+dl {
		tid := traceTerminal(d.tracer, r, OutcomeTimeout.String(), start, true)
		d.rec.Add(Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
			Outcome: OutcomeTimeout, TraceID: tid})
		d.degFree[w] = start
		return
	}
	out := d.host.Execute(1, r.Rows)
	done := start + math.Max(0, out.Latency)
	traceDegrade(r, out, start, done)
	rec := Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
		Outcome: OutcomeDegraded, Start: start, Done: done, Batch: 1, Backend: out.Backend}
	if dl := d.cfg.Robust.Deadline; dl > 0 && done > r.Arrival+dl {
		rec.Expired = true
	}
	rec.TraceID = traceTerminal(d.tracer, r, OutcomeDegraded.String(), done, rec.Expired)
	d.rec.Add(rec)
	d.degFree[w] = done
}

// nextFirst picks the request that leads the next batch: the carried
// leftover, else the queue head, else the next arrival. Returns nil
// when the run is over. t0 is the batch-formation start time.
func (d *detRunner) nextFirst() (*Request, float64) {
	d.admitUntil(d.serverFree)
	if d.leftover != nil {
		first := d.leftover
		d.leftover = nil
		return first, d.serverFree
	}
	for {
		if len(d.waiting) > 0 {
			first := d.waiting[0]
			d.waiting = d.waiting[1:]
			t0 := math.Max(d.serverFree, first.Arrival)
			tracePickup(first, t0)
			return first, t0
		}
		if d.ai >= len(d.arrivals) {
			return nil, 0
		}
		// Idle server: advance to the next arrival and admit it (an
		// empty queue always admits).
		d.admit(d.arrivals[d.ai])
		d.ai++
	}
}

// formBatch forms one batch by continuous batching: starting from
// first at t0, it merges queued requests and future arrivals until the
// batch budget, the shape budget (overflow returned as leftover, to
// lead the next batch) or the wait budget (first.Arrival + MaxWait) is
// exhausted. tClose is the dispatch time.
func (d *detRunner) formBatch(first *Request, t0 float64) (batch []*Request, leftover *Request, tClose float64) {
	batch = []*Request{first}
	rows := first.Rows
	pol := d.cfg.Policy
	deadline := first.Arrival + pol.MaxWait
	if deadline < t0 {
		deadline = t0
	}
	tClose = t0
	for len(batch) < pol.MaxBatch {
		var r *Request
		pickAt := tClose
		if len(d.waiting) > 0 {
			r = d.waiting[0]
			d.waiting = d.waiting[1:]
			pickAt = math.Max(t0, r.Arrival)
		} else if d.ai < len(d.arrivals) && d.arrivals[d.ai].At <= deadline {
			// The dispatcher is parked in the wait window: an arrival is
			// admitted and dequeued in the same instant.
			r = d.admit(d.arrivals[d.ai])
			d.ai++
			if r == nil {
				continue // spilled to the degrade lane
			}
			d.waiting = d.waiting[:len(d.waiting)-1] // straight into the batch
			pickAt = math.Max(t0, r.Arrival)
		} else {
			// Wait budget exhausted with the batch unfilled.
			tClose = deadline
			return batch, nil, tClose
		}
		tracePickup(r, pickAt)
		tClose = pickAt
		if d.cfg.MaxBatchRows > 0 && rows+r.Rows > d.cfg.MaxBatchRows {
			return batch, r, tClose
		}
		batch = append(batch, r)
		rows += r.Rows
	}
	return batch, nil, tClose
}

// shedAndTopUp is the dispatch-time deadline pass at now = tClose:
// expired requests are shed as timeouts and the holes refilled from
// the queue up to the budgets, so a wave of timeouts does not waste a
// dispatch on a nearly empty batch.
func (d *detRunner) shedAndTopUp(batch []*Request, leftover *Request, now float64) ([]*Request, *Request) {
	deadline := d.cfg.Robust.Deadline
	expired := func(r *Request) bool { return deadline > 0 && now >= r.Arrival+deadline }
	timeout := func(r *Request) {
		tid := traceTerminal(d.tracer, r, OutcomeTimeout.String(), now, true)
		d.rec.Add(Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
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
	for leftover == nil && len(kept) < d.cfg.Policy.MaxBatch &&
		len(d.waiting) > 0 && d.waiting[0].Arrival <= now {
		r := d.waiting[0]
		d.waiting = d.waiting[1:]
		if expired(r) {
			timeout(r)
			continue
		}
		tracePickup(r, now)
		if d.cfg.MaxBatchRows > 0 && rows+r.Rows > d.cfg.MaxBatchRows {
			leftover = r
			break
		}
		kept = append(kept, r)
		rows += r.Rows
	}
	return kept, leftover
}

// applyChaos applies every scheduled event with At ≤ t: shard kills
// and revives, then the plan swap.
func (d *detRunner) applyChaos(t float64) {
	for d.si < len(d.sched) && d.sched[d.si].At <= t {
		ev := d.sched[d.si]
		d.si++
		if sct, ok := d.target.(ShardChaosTarget); ok && ev.shardOps() {
			for _, s := range ev.KillShards {
				sct.SetShardDown(s, true)
			}
			for _, s := range ev.ReviveShards {
				sct.SetShardDown(s, false)
			}
		}
		if d.target != nil {
			d.target.SetPlan(ev.Plan)
		}
		note := ev.Note
		if note == "" {
			note = fmt.Sprintf("dead=%.2f flip=%.2f straggler=%.2f",
				ev.Plan.DeadPEFraction, ev.Plan.FlipRate, ev.Plan.StragglerSpread)
		}
		d.rec.AddEvent(Event{At: ev.At, Kind: "chaos", Note: note})
	}
}

// executeBatch runs one shedded batch to a terminal state in virtual
// time: execute with retry/backoff, routing each attempt through the
// circuit breaker.
func (d *detRunner) executeBatch(batch []*Request, start float64) {
	observeLiveQueue(len(d.waiting))
	now := start
	rob := d.cfg.Robust
	rows := 0
	for _, r := range batch {
		rows += r.Rows
	}
	traceDispatch(batch, now)
	br := BatchRecord{Start: now, Size: len(batch), Rows: rows}
	for attempt := 0; ; attempt++ {
		d.applyChaos(now)
		attStart := now
		be, viaPIM := d.route(now)
		out := be.Execute(len(batch), rows)
		now += math.Max(0, out.Latency)
		attEnd := now
		if viaPIM {
			d.breaker.Record(attEnd, out.OK)
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
			br.Done = attEnd
			tids := make([]uint64, len(batch))
			for i, r := range batch {
				rec := Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
					Outcome: OutcomeServed, Start: br.Start, Done: attEnd,
					Batch: len(batch), Backend: out.Backend}
				if rob.Deadline > 0 && attEnd > r.Arrival+rob.Deadline {
					rec.Expired = true
				}
				rec.TraceID = traceTerminal(d.tracer, r, OutcomeServed.String(), attEnd, rec.Expired)
				tids[i] = rec.TraceID
				d.rec.Add(rec)
			}
			br.TraceID = batchTraceID(tids)
			d.rec.AddBatch(br)
			break
		}
		if attempt >= rob.MaxRetries {
			br.Done = attEnd
			br.Failed = true
			tids := make([]uint64, len(batch))
			for i, r := range batch {
				tid := traceTerminal(d.tracer, r, OutcomeFailed.String(), attEnd, true)
				tids[i] = tid
				d.rec.Add(Record{ID: r.ID, Kind: r.Kind, Rows: r.Rows, Arrival: r.Arrival,
					Outcome: OutcomeFailed, TraceID: tid})
			}
			br.TraceID = batchTraceID(tids)
			d.rec.AddBatch(br)
			break
		}
		if rob.Backoff > 0 {
			bo := rob.Backoff * math.Pow(2, float64(attempt))
			traceBackoff(batch, now, now+bo)
			now += bo
		}
	}
	d.serverFree = now
}

// route picks the backend for one attempt via the breaker.
func (d *detRunner) route(now float64) (Backend, bool) {
	if d.host == nil || !d.cfg.Breaker.Enabled() {
		return d.pim, true
	}
	if d.breaker.Route(now) == RouteHost {
		return d.host, false
	}
	return d.pim, true
}
