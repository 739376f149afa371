package live

import "repro/internal/obs"

// Span plumbing of RunDeterministic. Each request carries its trace and
// the ID of its currently open phase span (queue while waiting for
// pickup, batch while waiting for dispatch); the helpers below move it
// through the lifecycle and keep the phase segments non-overlapping,
// which is what the attribution invariant (obs.Reconcile) rests on.
// Every helper is a no-op for an untraced request, so the instrumented
// paths cost a nil check when tracing is off.

// traceSubmit opens the request's trace and its queue span at arrival.
// Must run before the request is enqueued.
func traceSubmit(tc *obs.Tracer, r *Request) {
	r.span = obs.NoSpan
	r.tr = tc.Start(r.ID, r.Arrival)
	if r.tr != nil {
		r.span = r.tr.StartSpan(0, "queue", obs.PhaseQueue, r.Arrival)
	}
}

// traceTerminal closes the request's open phase span at end, finishes
// the trace with its terminal outcome, and returns the trace ID when
// the tracer kept it (0 otherwise) — the value Record.TraceID and the
// histogram exemplars carry, so only resolvable IDs ever escape.
func traceTerminal(tc *obs.Tracer, r *Request, outcome string, end float64, critical bool) uint64 {
	if r.tr == nil {
		return 0
	}
	r.tr.EndSpan(r.span, end)
	r.span = obs.NoSpan
	if tc.Finish(r.tr, outcome, end, critical) {
		return r.tr.TraceID
	}
	return 0
}

// tracePickup closes the queue span and opens the batch span at the
// dequeue time. now is clamped to the arrival so a stamp taken just
// before a late arrival cannot produce overlapping segments.
func tracePickup(r *Request, now float64) {
	if r.tr == nil {
		return
	}
	if now < r.Arrival {
		now = r.Arrival
	}
	r.tr.EndSpan(r.span, now)
	r.span = r.tr.StartSpan(0, "batch", obs.PhaseBatch, now)
}

// traceDispatch closes the batch spans of every traced member: batch
// formation is over, execution attempts follow.
func traceDispatch(batch []*Request, now float64) {
	for _, r := range batch {
		if r.tr == nil {
			continue
		}
		r.tr.EndSpan(r.span, now)
		r.span = obs.NoSpan
	}
}

// traceAttempt records one batch execution attempt over [start, end] on
// every traced member: a decorative "attempt" parent carrying the
// routing attributes, with phased children — the backend's modelled
// sub-phases on success, a single retry span on failure.
func traceAttempt(batch []*Request, attempt int, out Outcome, start, end float64) {
	for _, r := range batch {
		if r.tr == nil {
			continue
		}
		att := r.tr.StartSpan(0, "attempt", "", start)
		attrs := []obs.Attr{
			obs.Int("attempt", int64(attempt)),
			obs.Str("backend", out.Backend),
		}
		if out.DMARetries > 0 {
			attrs = append(attrs, obs.Int("dma_retries", int64(out.DMARetries)))
		}
		if out.Failovers > 0 {
			attrs = append(attrs, obs.Int("failovers", int64(out.Failovers)))
		}
		if out.LiveShards > 0 {
			attrs = append(attrs, obs.Int("live_shards", int64(out.LiveShards)))
		}
		if !out.OK {
			attrs = append(attrs, obs.Str("reason", out.Reason))
		}
		r.tr.Annotate(att, attrs...)
		emitAttemptPhases(r.tr, att, out, start, end)
		r.tr.EndSpan(att, end)
	}
}

// emitAttemptPhases writes the phased children of one attempt span.
func emitAttemptPhases(tr *obs.Trace, parent obs.SpanID, out Outcome, start, end float64) {
	if !out.OK {
		// A failed attempt's busy time is pure waste: all retry blame.
		sp := tr.StartSpan(parent, "retry", obs.PhaseRetry, start)
		tr.EndSpan(sp, end)
		return
	}
	total := end - start
	if len(out.SubPhases) == 0 || out.Latency <= 0 || total <= 0 {
		ph := obs.PhasePIM
		if out.Backend == "host" {
			ph = obs.PhaseHost
		}
		sp := tr.StartSpan(parent, "execute", ph, start)
		tr.EndSpan(sp, end)
		return
	}
	// Scale the modelled decomposition onto the measured interval; the
	// last segment takes the exact remainder so the children tile
	// [start, end] with no gap or overlap.
	scale := total / out.Latency
	t := start
	for i, seg := range out.SubPhases {
		segEnd := end
		if i < len(out.SubPhases)-1 {
			segEnd = t + seg.Dur*scale
			if segEnd > end {
				segEnd = end
			}
		}
		sp := tr.StartSpan(parent, string(seg.Phase), seg.Phase, t)
		tr.EndSpan(sp, segEnd)
		t = segEnd
	}
}

// traceBackoff records the exponential-backoff pause between attempts.
func traceBackoff(batch []*Request, start, end float64) {
	for _, r := range batch {
		if r.tr == nil {
			continue
		}
		sp := r.tr.StartSpan(0, "backoff", obs.PhaseBackoff, start)
		r.tr.EndSpan(sp, end)
	}
}

// traceDegrade records a degrade-lane host execution over [start, end]:
// the queue span closes at pickup and the whole service time is host
// blame (the degrade lane has no batch-formation phase).
func traceDegrade(r *Request, out Outcome, start, end float64) {
	if r.tr == nil {
		return
	}
	if start < r.Arrival {
		start = r.Arrival
	}
	r.tr.EndSpan(r.span, start)
	r.span = obs.NoSpan
	sp := r.tr.StartSpan(0, "degrade", obs.PhaseHost, start)
	r.tr.Annotate(sp, obs.Int("attempt", 0), obs.Str("backend", out.Backend))
	r.tr.EndSpan(sp, end)
}

// batchTraceID picks the batch record's exemplar: the first member the
// tracer kept.
func batchTraceID(ids []uint64) uint64 {
	for _, id := range ids {
		if id != 0 {
			return id
		}
	}
	return 0
}
