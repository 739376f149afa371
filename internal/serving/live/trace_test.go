package live

import (
	"testing"

	"repro/internal/obs"
)

// TestServerTracingReconciles runs the serving loop through the
// fault-storm scenario with a queue deep enough that almost nothing is
// shed, so the traces are dominated by the served paths (batching,
// retries, breaker diversion to the host), and checks the tracing
// invariants on them: the run conserves requests, every arrival's trace
// starts and finishes, every record's per-phase breakdown sums to its
// recorded latency, every exemplar the run wrote resolves, and the
// attribution report builds from the same tracer.
func TestServerTracingReconciles(t *testing.T) {
	cfg, arrivals, sched := detScenario(t, ShedReject, 1536)
	arrivals = arrivals[:1500]
	pimBE, hostBE := detBackends(t)
	tc := detTracer(t, 1<<14)
	res, err := RunDeterministic(cfg, pimBE, hostBE, arrivals, sched, tc)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Summary.Conservation(); err != nil {
		t.Fatal(err)
	}
	if res.Summary.Served == 0 || res.Summary.ShedQueue > res.Summary.Served {
		t.Fatalf("deep-queue run is not served-heavy: %+v", res.Summary)
	}
	assertTracesReconcile(t, tc, res, len(arrivals))

	rep, err := obs.BuildReport(tc, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slowest) != 3 {
		t.Fatalf("top-K has %d rows, want 3", len(rep.Slowest))
	}
}
