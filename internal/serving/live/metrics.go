package live

import "repro/internal/metrics"

// Live-runtime metrics. The counters mirror the Recorder's accounting
// exactly — TestLiveMetricsMatchRecorder pins counter == Summary for
// every outcome class — and the latency histogram gives a running
// process the p50/p95/p99 the recorder computes exactly post-hoc.
var liveMetrics = struct {
	submitted  *metrics.Counter
	outcomes   *metrics.CounterFamily // outcome="served|degraded|shed|timeout|failed"
	expired    *metrics.Counter
	attempts   *metrics.CounterFamily // backend="pim|host"
	retries    *metrics.Counter
	dmaRetries *metrics.Counter
	trips      *metrics.Counter
	recoveries *metrics.Counter
	latency    *metrics.Histogram
	batchSize  *metrics.Histogram
	queue      *metrics.Gauge
	queuePeak  *metrics.Gauge
	brState    *metrics.Gauge
}{}

func init() {
	r := metrics.Default()
	m := &liveMetrics
	m.submitted = r.NewCounter("pimdl_live_submitted_total",
		"requests offered to the serving runtime")
	m.outcomes = r.NewCounterFamily("pimdl_live_requests_total",
		"terminal request outcomes (served, degraded, shed, timeout, failed)", "outcome")
	m.expired = r.NewCounter("pimdl_live_expired_total",
		"requests served but completed past their deadline")
	m.attempts = r.NewCounterFamily("pimdl_live_batch_attempts_total",
		"batch execution attempts by backend", "backend")
	m.retries = r.NewCounter("pimdl_live_batch_retries_total",
		"batch execution attempts beyond the first")
	m.dmaRetries = r.NewCounter("pimdl_live_dma_retries_total",
		"checksum-failed DMA transfers re-issued inside PIM attempts")
	m.trips = r.NewCounter("pimdl_live_breaker_trips_total",
		"circuit breaker transitions to open")
	m.recoveries = r.NewCounter("pimdl_live_breaker_recoveries_total",
		"circuit breaker recoveries (half-open probe succeeded)")
	m.latency = r.NewHistogram("pimdl_live_latency_seconds",
		"end-to-end request latency of served requests (virtual seconds)",
		metrics.ExpBuckets(1e-4, 2, 21))
	m.batchSize = r.NewHistogram("pimdl_live_batch_size",
		"dispatched batch sizes (primary lane)",
		metrics.ExpBuckets(1, 2, 11))
	m.queue = r.NewGauge("pimdl_live_queue_depth",
		"admission queue occupancy (last observed)")
	m.queuePeak = r.NewGauge("pimdl_live_queue_depth_peak",
		"high-water mark of the admission queue")
	m.brState = r.NewGauge("pimdl_live_breaker_state",
		"circuit breaker state (0 closed, 1 open, 2 half-open)")
}

func recordSubmit() {
	if metrics.Enabled() {
		liveMetrics.submitted.Inc()
	}
}

func observeLiveQueue(depth int) {
	if !metrics.Enabled() {
		return
	}
	liveMetrics.queue.Set(float64(depth))
	liveMetrics.queuePeak.SetMax(float64(depth))
}

// recordOutcome folds one terminal request record.
func recordOutcome(rec Record) {
	if !metrics.Enabled() {
		return
	}
	m := &liveMetrics
	m.outcomes.With(rec.Outcome.String()).Inc()
	if rec.Expired {
		m.expired.Inc()
	}
	if rec.Outcome == OutcomeServed || rec.Outcome == OutcomeDegraded {
		// The trace ID (0 when unsampled) links the latency bucket back
		// to a kept request trace.
		m.latency.ObserveExemplar(rec.Latency(), rec.TraceID)
	}
}

// recordBatchExec folds one finished primary-lane batch.
func recordBatchExec(br BatchRecord) {
	if !metrics.Enabled() {
		return
	}
	liveMetrics.batchSize.ObserveExemplar(float64(br.Size), br.TraceID)
}

// recordAttempt folds one batch execution attempt.
func recordAttempt(out Outcome, attempt int) {
	if !metrics.Enabled() {
		return
	}
	m := &liveMetrics
	m.attempts.With(out.Backend).Inc()
	if attempt > 0 {
		m.retries.Inc()
	}
	m.dmaRetries.Add(int64(out.DMARetries))
}

// recordBreaker folds one breaker transition.
func recordBreaker(from, to BreakerState) {
	if !metrics.Enabled() {
		return
	}
	m := &liveMetrics
	m.brState.Set(float64(to))
	switch to {
	case BreakerOpen:
		if from == BreakerClosed {
			m.trips.Inc()
		}
	case BreakerClosed:
		if from == BreakerHalfOpen {
			m.recoveries.Inc()
		}
	}
}
