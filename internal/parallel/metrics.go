package parallel

import "repro/internal/metrics"

// Pool metrics: dispatch-shape counters and worker occupancy. Everything
// here is recorded per For/ForCtx call or per job acceptance — never per
// chunk iteration — so the zero-allocation hot path gains one atomic
// enabled-check plus a handful of sharded counter increments per
// dispatch, nothing per element.
var poolMetrics = struct {
	workers   *metrics.Gauge
	busy      *metrics.Gauge
	busyPeak  *metrics.Gauge
	jobs      *metrics.Counter
	inline    *metrics.Counter
	chunks    *metrics.Counter
	helpers   *metrics.Counter
	saturated *metrics.Counter
}{}

func init() {
	r := metrics.Default()
	m := &poolMetrics
	m.workers = r.NewGauge("pimdl_parallel_workers",
		"pool size (GOMAXPROCS at first use; 0 until the pool starts)")
	m.busy = r.NewGauge("pimdl_parallel_busy_workers",
		"pool workers currently executing a job")
	m.busyPeak = r.NewGauge("pimdl_parallel_busy_workers_peak",
		"high-water mark of concurrently busy pool workers")
	m.jobs = r.NewCounter("pimdl_parallel_jobs_total",
		"For/ForCtx calls dispatched to the chunk grid (parallel path)")
	m.inline = r.NewCounter("pimdl_parallel_inline_total",
		"For/ForCtx calls executed inline (below threshold or single-proc)")
	m.chunks = r.NewCounter("pimdl_parallel_chunks_total",
		"chunks executed across all parallel jobs")
	m.helpers = r.NewCounter("pimdl_parallel_helpers_total",
		"idle pool workers that accepted a job offer")
	m.saturated = r.NewCounter("pimdl_parallel_saturated_offers_total",
		"job offers abandoned because no worker was idle (caller degraded to fewer helpers)")
}

// recordDispatch folds one parallel dispatch: its chunk count, how many
// helpers joined, and whether the offer loop hit a saturated pool.
//
//pimdl:hotpath
func recordDispatch(chunks, helpers int, saturated bool) {
	if !metrics.Enabled() {
		return
	}
	m := &poolMetrics
	m.jobs.Inc()
	m.chunks.Add(int64(chunks))
	m.helpers.Add(int64(helpers))
	if saturated {
		m.saturated.Inc()
	}
}

// recordInline counts a call that ran on the caller's goroutine only.
//
//pimdl:hotpath
func recordInline() {
	if metrics.Enabled() {
		poolMetrics.inline.Inc()
	}
}

// workerEnter/workerExit bracket one job execution on a pool worker.
//
//pimdl:hotpath
func workerEnter() {
	if !metrics.Enabled() {
		return
	}
	poolMetrics.busy.Add(1)
	poolMetrics.busyPeak.SetMax(poolMetrics.busy.Value())
}

//pimdl:hotpath
func workerExit() {
	if metrics.Enabled() {
		poolMetrics.busy.Add(-1)
	}
}
