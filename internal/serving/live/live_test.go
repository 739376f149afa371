package live

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/serving"
)

// fakeBackend is a scripted backend: fail decides each attempt's
// verification outcome by its attempt index (nil = always OK). The
// attempt counter is global across the backend, matching the
// dispatcher's serialized calls.
type fakeBackend struct {
	name  string
	model serving.LatencyModel
	fail  func(attempt int64) bool

	mu       sync.Mutex
	attempts int64
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Execute(size, rows int) Outcome {
	f.mu.Lock()
	a := f.attempts
	f.attempts++
	f.mu.Unlock()
	out := Outcome{Backend: f.name, OK: true, WorstSlowdown: 1, Latency: f.model(size)}
	if f.fail != nil && f.fail(a) {
		out.OK = false
		out.Reason = "scripted failure"
	}
	return out
}

func constModel(c float64) serving.LatencyModel { return func(int) float64 { return c } }

// mustRun serves arrivals under the chaos schedule with RunDeterministic,
// untraced.
func mustRun(t *testing.T, cfg Config, pimBE, hostBE Backend, arrivals []Arrival, sched ChaosSchedule) *ChaosResult {
	t.Helper()
	res, err := RunDeterministic(cfg, pimBE, hostBE, arrivals, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// burstAt0 is n requests of the given row count all arriving at t=0
// (no pacing), which overloads any server whose service time is
// non-zero.
func burstAt0(n, rows int) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		out[i] = Arrival{Rows: rows}
	}
	return out
}

// checkConservation asserts the accounting identity and returns the
// summary.
func checkConservation(t *testing.T, res *ChaosResult, submitted int) Summary {
	t.Helper()
	sum := res.Summary
	if sum.Submitted != submitted {
		t.Fatalf("summary saw %d submissions, want %d", sum.Submitted, submitted)
	}
	if err := sum.Conservation(); err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestConfigValidate pins the server configuration checks.
func TestConfigValidate(t *testing.T) {
	valid := Config{
		Policy:   serving.Policy{MaxBatch: 8, MaxWait: 0.01},
		QueueCap: 16,
		Robust:   serving.Robustness{Deadline: 1, MaxRetries: 2, Backoff: 0.01},
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"valid", func(*Config) {}, ""},
		{"bad policy", func(c *Config) { c.Policy.MaxBatch = 0 }, "MaxBatch"},
		{"bad robustness", func(c *Config) { c.Robust.Deadline = -1 }, "deadline"},
		{"bad breaker", func(c *Config) { c.Breaker = BreakerConfig{Window: 4, TripRatio: 2} }, "TripRatio"},
		{"no queue", func(c *Config) { c.QueueCap = 0 }, "QueueCap"},
		{"negative rows budget", func(c *Config) { c.MaxBatchRows = -1 }, "MaxBatchRows"},
		{"negative degrade workers", func(c *Config) { c.DegradeWorkers = -2 }, "DegradeWorkers"},
		{"unknown shed policy", func(c *Config) { c.Shed = ShedPolicy(9) }, "shed policy"},
	}
	for _, c := range cases {
		cfg := valid
		c.mut(&cfg)
		err := cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
			t.Errorf("%s: error %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestRunDeterministicRequirements: the driver enforces its
// dependencies before serving anything.
func TestRunDeterministicRequirements(t *testing.T) {
	pim := &fakeBackend{name: "pim", model: constModel(0.01)}
	cfg := Config{
		Policy:   serving.Policy{MaxBatch: 4, MaxWait: 0.01},
		QueueCap: 8,
		Robust:   serving.Robustness{MaxRetries: 1},
	}
	if _, err := RunDeterministic(cfg, nil, nil, nil, nil, nil); err == nil {
		t.Fatal("nil PIM backend accepted")
	}
	degrade := cfg
	degrade.Shed = ShedDegrade
	if _, err := RunDeterministic(degrade, pim, nil, nil, nil, nil); err == nil {
		t.Fatal("ShedDegrade without host backend accepted")
	}
	breaker := cfg
	breaker.Breaker = BreakerConfig{Window: 4, TripRatio: 0.5}
	if _, err := RunDeterministic(breaker, pim, nil, nil, nil, nil); err == nil {
		t.Fatal("breaker without host backend accepted")
	}
	sched := ChaosSchedule{{At: 0.1, Note: "storm"}}
	if _, err := RunDeterministic(cfg, pim, nil, nil, sched, nil); err == nil {
		t.Fatal("chaos schedule accepted by a backend that is not a ChaosTarget")
	}
}

// TestServeAllUnderCapacity: a tame load is fully served in arrival
// order with exact accounting.
func TestServeAllUnderCapacity(t *testing.T) {
	arrivals, err := LoadSpec{Rate: 200, Requests: 100, Seed: 3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Config{
		Policy:   serving.Policy{MaxBatch: 8, MaxWait: 0.005},
		QueueCap: 64,
		Shed:     ShedBlock,
		Robust:   serving.Robustness{MaxRetries: 1},
	}, &fakeBackend{name: "pim", model: constModel(0.002)}, nil, arrivals, nil)

	sum := checkConservation(t, res, 100)
	if res.Admitted != 100 || sum.Served != 100 {
		t.Fatalf("admitted %d served %d, want 100/100", res.Admitted, sum.Served)
	}
	if sum.Batches == 0 || sum.Attempts != sum.Batches {
		t.Fatalf("batches %d attempts %d: no retries expected", sum.Batches, sum.Attempts)
	}
	for _, rec := range res.Recorder.Records() {
		if rec.Done < rec.Start || rec.Start < rec.Arrival {
			t.Fatalf("record %d has incoherent times: %+v", rec.ID, rec)
		}
	}
}

// TestShedReject: a full queue under burst load drops at the door, and
// every drop is accounted.
func TestShedReject(t *testing.T) {
	res := mustRun(t, Config{
		Policy:   serving.Policy{MaxBatch: 4, MaxWait: 0.001},
		QueueCap: 4,
		Shed:     ShedReject,
		Robust:   serving.Robustness{MaxRetries: 1},
	}, &fakeBackend{name: "pim", model: constModel(0.05)}, nil, burstAt0(60, 1), nil)

	sum := checkConservation(t, res, 60)
	if sum.ShedQueue == 0 {
		t.Fatal("burst past a 4-deep queue shed nothing")
	}
	if res.Admitted+sum.ShedQueue != 60 {
		t.Fatalf("admitted %d + shed %d != 60", res.Admitted, sum.ShedQueue)
	}
	if sum.Served != res.Admitted {
		t.Fatalf("served %d, want the %d admitted", sum.Served, res.Admitted)
	}
}

// TestShedBlock: backpressure admits everything; the same burst is fully
// served with zero drops.
func TestShedBlock(t *testing.T) {
	res := mustRun(t, Config{
		Policy:   serving.Policy{MaxBatch: 4, MaxWait: 0.001},
		QueueCap: 2,
		Shed:     ShedBlock,
		Robust:   serving.Robustness{MaxRetries: 1},
	}, &fakeBackend{name: "pim", model: constModel(0.02)}, nil, burstAt0(40, 1), nil)

	sum := checkConservation(t, res, 40)
	if res.Admitted != 40 || sum.Served != 40 || sum.ShedQueue != 0 {
		t.Fatalf("block policy: admitted %d served %d shed %d, want 40/40/0", res.Admitted, sum.Served, sum.ShedQueue)
	}
}

// TestShedDegrade: overflow spills to the host-served degrade lane.
func TestShedDegrade(t *testing.T) {
	res := mustRun(t, Config{
		Policy:         serving.Policy{MaxBatch: 4, MaxWait: 0.001},
		QueueCap:       2,
		Shed:           ShedDegrade,
		DegradeWorkers: 2,
		Robust:         serving.Robustness{MaxRetries: 1},
	},
		&fakeBackend{name: "pim", model: constModel(0.05)},
		&fakeBackend{name: "host", model: constModel(0.01)},
		burstAt0(60, 1), nil)

	sum := checkConservation(t, res, 60)
	if sum.Degraded == 0 {
		t.Fatal("overflow never reached the degrade lane")
	}
	for _, rec := range res.Recorder.Records() {
		if rec.Outcome == OutcomeDegraded && rec.Backend != "host" {
			t.Fatalf("degraded request served by %q", rec.Backend)
		}
	}
}

// TestDeadlineTimeouts: requests whose deadline passes while queued are
// shed at dispatch, never served.
func TestDeadlineTimeouts(t *testing.T) {
	deadline := 0.08
	res := mustRun(t, Config{
		Policy:   serving.Policy{MaxBatch: 1, MaxWait: 0.001},
		QueueCap: 64,
		Shed:     ShedBlock,
		Robust:   serving.Robustness{Deadline: deadline, MaxRetries: 1},
	}, &fakeBackend{name: "pim", model: constModel(0.04)}, nil, burstAt0(30, 1), nil)

	sum := checkConservation(t, res, 30)
	if sum.Timeouts == 0 {
		t.Fatalf("30 back-to-back 40ms jobs against an 80ms deadline timed out nothing: %+v", sum)
	}
	if sum.Served == 0 {
		t.Fatalf("nothing served: %+v", sum)
	}
	for _, rec := range res.Recorder.Records() {
		if rec.Outcome == OutcomeServed && rec.Start >= rec.Arrival+deadline {
			t.Fatalf("request %d started %.3f after its deadline", rec.ID, rec.Start-rec.Arrival-deadline)
		}
	}
}

// TestRetryBudget: a permanently failing backend burns the retry budget
// and fails every batch with exact attempt accounting.
func TestRetryBudget(t *testing.T) {
	res := mustRun(t, Config{
		Policy:   serving.Policy{MaxBatch: 1, MaxWait: 0.001},
		QueueCap: 8,
		Shed:     ShedBlock,
		Robust:   serving.Robustness{MaxRetries: 2, Backoff: 0.001},
	}, &fakeBackend{
		name:  "pim",
		model: constModel(0.002),
		fail:  func(int64) bool { return true },
	}, nil, burstAt0(5, 1), nil)

	sum := checkConservation(t, res, 5)
	if sum.Failures != 5 || sum.Served != 0 {
		t.Fatalf("failures %d served %d, want 5/0", sum.Failures, sum.Served)
	}
	if sum.Batches != 5 || sum.Attempts != 15 || sum.Retries != 10 {
		t.Fatalf("batches/attempts/retries = %d/%d/%d, want 5/15/10", sum.Batches, sum.Attempts, sum.Retries)
	}
	for _, b := range res.Recorder.Batches() {
		if !b.Failed || b.Attempts != 3 {
			t.Fatalf("batch %+v, want 3 attempts and Failed", b)
		}
	}
}

// TestRetryRecovers: a transient failure is retried and the batch still
// completes.
func TestRetryRecovers(t *testing.T) {
	res := mustRun(t, Config{
		Policy:   serving.Policy{MaxBatch: 1, MaxWait: 0.001},
		QueueCap: 8,
		Shed:     ShedBlock,
		Robust:   serving.Robustness{MaxRetries: 2, Backoff: 0.001},
	}, &fakeBackend{
		name:  "pim",
		model: constModel(0.002),
		fail:  func(a int64) bool { return a == 0 }, // first attempt only
	}, nil, burstAt0(4, 1), nil)

	sum := checkConservation(t, res, 4)
	if sum.Served != 4 || sum.Failures != 0 {
		t.Fatalf("served %d failures %d, want 4/0", sum.Served, sum.Failures)
	}
	if sum.Retries != 1 || sum.Attempts != 5 {
		t.Fatalf("retries %d attempts %d, want 1/5", sum.Retries, sum.Attempts)
	}
}

// TestShapeBudget: MaxBatchRows caps the rows a batch carries; the
// overflowing request leads the next batch instead of being dropped.
func TestShapeBudget(t *testing.T) {
	res := mustRun(t, Config{
		Policy:       serving.Policy{MaxBatch: 16, MaxWait: 0.001},
		MaxBatchRows: 8,
		QueueCap:     64,
		Shed:         ShedBlock,
		Robust:       serving.Robustness{MaxRetries: 1},
	}, &fakeBackend{name: "pim", model: constModel(0.01)}, nil,
		burstAt0(30, 3), // 3 rows each: at most 2 per batch under an 8-row budget
		nil)

	sum := checkConservation(t, res, 30)
	if sum.Served != 30 {
		t.Fatalf("served %d, want 30", sum.Served)
	}
	for _, b := range res.Recorder.Batches() {
		if b.Rows > 8 {
			t.Fatalf("batch carries %d rows past the 8-row budget", b.Rows)
		}
		if b.Size > 2 {
			t.Fatalf("batch of %d 3-row requests under an 8-row budget", b.Size)
		}
	}
	if sum.Batches < 15 {
		t.Fatalf("only %d batches for 30 requests at ≤2 per batch", sum.Batches)
	}
}

// TestBreakerTripsToHostAndRecovers: a scripted PIM outage trips the
// breaker, traffic diverts to the host, and the breaker closes again
// once PIM heals — the tentpole state machine end to end, on a
// deterministic fake.
func TestBreakerTripsToHostAndRecovers(t *testing.T) {
	// PIM fails verification on its attempts 20..27: two failures trip
	// the breaker at about t=0.85, and each half-open probe that follows
	// spends one more failing attempt, so the outage lasts about 1.4
	// virtual seconds of the 4-second load.
	pim := &fakeBackend{name: "pim", model: constModel(0.02)}
	pim.fail = func(a int64) bool { return a >= 20 && a < 28 }
	arrivals, err := LoadSpec{Rate: 40, Requests: 160, Seed: 8}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Config{
		Policy:   serving.Policy{MaxBatch: 2, MaxWait: 0.005},
		QueueCap: 32,
		Shed:     ShedBlock,
		Robust:   serving.Robustness{MaxRetries: 0},
		Breaker:  BreakerConfig{Window: 2, MinSamples: 2, TripRatio: 1, Cooldown: 0.15},
	}, pim, &fakeBackend{name: "host", model: constModel(0.02)}, arrivals, nil)

	sum := checkConservation(t, res, 160)
	br := res.Breaker
	if br.Trips() < 1 {
		t.Fatalf("breaker never tripped: %+v", sum)
	}
	if br.Recoveries() < 1 {
		t.Fatalf("breaker never recovered: trips=%d state=%v", br.Trips(), br.State())
	}
	if br.State() != BreakerClosed {
		t.Fatalf("breaker finished %v, want closed", br.State())
	}
	if sum.HostServed == 0 {
		t.Fatal("open breaker never served on the host")
	}
	if sum.Served == 0 || sum.Served+sum.Failures != 160 {
		t.Fatalf("unexpected outcome split: %+v", sum)
	}
	// The timeline carries the transitions in order.
	var breakerEvents int
	for _, ev := range res.Recorder.Events() {
		if ev.Kind == "breaker" {
			breakerEvents++
		}
	}
	if breakerEvents < 4 {
		t.Fatalf("only %d breaker events on the timeline", breakerEvents)
	}
}

// TestLiveMetricsMatchRecorder: every live counter equals the recorder's
// post-hoc accounting across a scenario that exercises sheds, timeouts,
// retries, failures and the degrade lane at once.
func TestLiveMetricsMatchRecorder(t *testing.T) {
	if !metrics.Enabled() {
		t.Skip("metrics disabled via PIMDL_METRICS")
	}
	// Tight deadline: queued requests wait past it (timeouts), sustained
	// 2.5× overload fills both 16-deep lanes (sheds, degrades), and the
	// scripted failure pairs exercise the retry and budget-burnt paths.
	arrivals, err := LoadSpec{Rate: 500, Requests: 300, Seed: 21}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	d := metricsDelta(func() {
		res := mustRun(t, Config{
			Policy:         serving.Policy{MaxBatch: 4, MaxWait: 0.002},
			QueueCap:       16,
			Shed:           ShedDegrade,
			DegradeWorkers: 1,
			Robust:         serving.Robustness{Deadline: 0.05, MaxRetries: 1, Backoff: 0.002},
		},
			&fakeBackend{
				name:  "pim",
				model: constModel(0.02),
				fail:  func(a int64) bool { return a%7 <= 1 },
			},
			&fakeBackend{name: "host", model: constModel(0.03)},
			arrivals, nil)
		sum = checkConservation(t, res, 300)
	})

	// The scenario must exercise every path it claims to pin.
	if sum.ShedQueue == 0 || sum.Timeouts == 0 || sum.Retries == 0 ||
		sum.Failures == 0 || sum.Degraded == 0 {
		t.Fatalf("scenario too tame: %+v", sum)
	}

	checks := map[string]float64{
		"pimdl_live_submitted_total":                     float64(sum.Submitted),
		`pimdl_live_requests_total{outcome="served"}`:    float64(sum.Served),
		`pimdl_live_requests_total{outcome="degraded"}`:  float64(sum.Degraded),
		`pimdl_live_requests_total{outcome="shed"}`:      float64(sum.ShedQueue),
		`pimdl_live_requests_total{outcome="timeout"}`:   float64(sum.Timeouts),
		`pimdl_live_requests_total{outcome="failed"}`:    float64(sum.Failures),
		"pimdl_live_expired_total":                       float64(sum.Expired),
		"pimdl_live_batch_retries_total":                 float64(sum.Retries),
		"pimdl_live_dma_retries_total":                   float64(sum.DMARetries),
		`pimdl_live_batch_attempts_total{backend="pim"}`: float64(sum.Attempts),
		"pimdl_live_latency_seconds_count":               float64(sum.Served + sum.Degraded),
		"pimdl_live_batch_size_count":                    float64(sum.Batches),
	}
	for k, want := range checks {
		if got := d[k]; got != want {
			t.Errorf("%s = %g, want %g", k, got, want)
		}
	}
}

// metricsDelta runs fn and returns the change of every default-registry
// series across it.
func metricsDelta(fn func()) map[string]float64 {
	before := metrics.Default().Flatten()
	fn()
	after := metrics.Default().Flatten()
	for k, v := range before {
		after[k] -= v
	}
	return after
}
