# Convenience targets for the PIM-DL reproduction.

GO ?= go

.PHONY: all build test test-short test-race test-tuner test-faults chaos-smoke shard-smoke decode-smoke convert-smoke portability trace-smoke benchmark benchmark-compare metrics-smoke vet fmt lint lint-baseline experiments examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the project-specific static analyzers (cmd/pimdl-lint) in
# one cross-package pass against the committed baseline: only NEW
# findings fail. See DESIGN.md §7/§11 for the analyzer list, the
# //pimdl:lint-ignore suppression syntax and the baseline workflow.
lint:
	$(GO) run ./cmd/pimdl-lint -baseline lint-baseline.json ./...

# lint-baseline regenerates lint-baseline.json from the current tree,
# deliberately accepting its findings as grandfathered debt. Commit the
# result with a justification.
lint-baseline:
	$(GO) run ./cmd/pimdl-lint -write-baseline lint-baseline.json ./...

fmt:
	gofmt -l -w .

test:
	$(GO) test ./... -timeout 1800s

test-short:
	$(GO) test ./... -short -timeout 600s

# test-race runs the short test suite under the race detector; the
# concurrency stress tests in tensor, lutnn and pim exercise the
# simulator's goroutine fan-outs, and the auto-tuner (serial since the
# branch-and-bound search) is checked as a pure function under
# concurrent callers. -short holds the tuner to its exhaustive oracle on
# 6 of the benchmark's 36 problems.
test-race:
	$(GO) test -race -short ./... -timeout 1200s

# test-tuner runs the auto-tuner's exactness suite in full: Tune against
# the exhaustive sweep on all 36 benchmark problems plus the varied
# spaces/platforms/random shapes, the bound property, the enumeration and
# cost-model references, and the zero-allocation guards (DESIGN.md §5.1).
test-tuner:
	$(GO) test ./internal/autotuner/ ./internal/mapping/ -count=1 \
		-run 'MatchesExhaustive|BoundsNeverExceedCost|MatchReferences|DoesNotAllocate' -timeout 600s

# test-faults runs the fault-injection and graceful-degradation suite
# under the race detector. The tests draw from a fixed seed matrix
# (1, 2, 3, 5, 8, 13 — see internal/pim/faults_test.go) so recovery
# counts are reproducible across runs and machines.
test-faults:
	$(GO) test -race ./internal/pim/ ./internal/serving/ ./internal/engine/ ./cmd/pimdl-sim/ \
		-run 'Fault|Degraded|Robust|Flaky|Deadline|ZeroWait|Residual|Shrunken|RunPESet|Irrecoverable|Instantiate|ParseFlags' \
		-timeout 600s

# chaos-smoke exercises the serving runtime end to end under the race
# detector: first every serving test 20 times at GOMAXPROCS 1, 2 and 8
# (the chaos acceptance test among them — saturated run with a mid-run
# fault storm, conservation exact, breaker trips and recovers, replay
# oracle within 5%; see DESIGN.md §12.3), then one short saturated
# pimdl-sim -live -live-chaos run that writes a metrics snapshot,
# validated for the pimdl_live_* series. CI uploads the snapshot as an
# artifact.
chaos-smoke:
	$(GO) test -race -count=20 -cpu 1,2,8 ./internal/serving/... -timeout 600s
	$(GO) run -race ./cmd/pimdl-sim -n 64 -h 32 -f 64 -v 4 -ct 8 \
		-live -live-requests 600 -live-chaos \
		-fault-dead 0.1 -fault-flip 0.9 -fault-seed 7 \
		-metrics chaos-snapshot.json
	$(GO) run ./cmd/pimdl-metrics-check \
		-require pimdl_live_submitted_total \
		-require pimdl_live_requests_total \
		-require pimdl_live_batch_attempts_total \
		-require pimdl_live_batch_retries_total \
		-require pimdl_live_breaker_trips_total \
		-require pimdl_live_latency_seconds \
		-require pimdl_live_batch_size \
		-require pimdl_live_queue_depth_peak \
		chaos-snapshot.json

# shard-smoke exercises the cluster-sharding layer end to end under the
# race detector: the shard-kill chaos storms (a shard dies mid-run and
# its tiles fail over to replicas with zero lost requests and the
# breaker closed; killing every replica of a range trips the breaker to
# the host and recovers on revive — see DESIGN.md §13), plus the
# concurrent-vs-serial timing oracle, then one sharded pimdl-sim run
# with a dead shard that writes a shard-health metrics snapshot,
# validated for the pimdl_shard_* series. CI uploads the snapshot as an
# artifact.
shard-smoke:
	$(GO) test -race ./internal/serving/live/ ./internal/shard/ \
		-run 'ShardKillChaos|ShardedBackend|ConcurrentMatchesSerialOracle|FailoverByteIdentical' -v -timeout 600s
	$(GO) run -race ./cmd/pimdl-sim -n 64 -h 32 -f 64 -v 4 -ct 8 \
		-shards 4 -shard-replicas 2 -shard-kill 1 \
		-fault-dead 0.1 -fault-flip 0.2 -fault-seed 7 \
		-metrics shard-snapshot.json
	$(GO) run ./cmd/pimdl-metrics-check \
		-require pimdl_shard_routes_total \
		-require pimdl_shard_dispatch_total \
		-require pimdl_shard_failover_total \
		-require pimdl_shard_replica_hits_total \
		-require pimdl_shard_executions_total \
		-require pimdl_shard_live \
		-require pimdl_shard_capacity_fraction \
		-require pimdl_shard_degraded_ranges \
		-require pimdl_shard_min_live_replicas \
		shard-snapshot.json

# decode-smoke runs the KV-cached decode fastpath's bit-exactness
# oracles under the race detector: Infer == Forward bit for bit (the
# one trunk over plain and taped ops), cached == uncached Generate token
# for token, single-row CCS/gather == the batch kernels, DecodeBatch ==
# solo sessions, the pimdl_decode_* series deltas, and the dense row kernel
# (tensor.MatVecTInto, also under MatMulTInto's parallel split) == its
# scalar oracle bit for bit. A second pass runs at GOMAXPROCS 1, 2 and
# 8: the streaming attention core (prefill/refill fan-out and the decode
# row) == the materialised attention oracle bit for bit, adversarial
# Inf/NaN/−0 inputs included, and the pool-split tensor.GELU == one
# serial GELURowInto pass. Decode speed is measured by the benchmark's
# decode workload (make benchmark). See DESIGN.md §14.
decode-smoke:
	$(GO) test -race ./internal/nn/ ./internal/lutnn/ ./internal/tensor/ \
		-run 'InferMatchesForward|GenerateCached|DecodeLogits|DecodeBatch|DecodeSession|DecodeMetrics|PickToken|SearchRow|DecodeLookupRow|ForwardRow|BitIdenticalToOracle|ShapeMismatchPanics' \
		-v -timeout 600s
	$(GO) test -race -cpu 1,2,8 ./internal/nn/ ./internal/tensor/ \
		-run 'AttentionMatchesOracle|GELUMatchesSerialRows' \
		-v -timeout 600s

# convert-smoke runs the LUT-NN conversion's bit-exactness oracles under
# the race detector at GOMAXPROCS 1, 2 and 8, twice each: k-means
# clustering identical at any worker count, incremental k-means++ seeding
# and the unrolled dim-4 nearest == their full-rescan and general-loop
# oracles, BuildCodebooks/BuildLUT's per-codebook fan-out == the serial
# loops (nested k-means dispatch included), concurrent Convert callers,
# and the input checks that must fire before the fan-out. The same pass
# holds the calibration tape's kernel to its oracles: the four-p tiled
# tensor.MatMul and the transpose-free MatMulTN == the scalar ikj loop
# (zero skip, Inf/NaN behind a zero, −0 sums), and autograd's MatMulT
# and attention gradients == their transposed-copy formulas. The
# internal/vec leaves (the gather accumulates and the matmul's four-p
# update) == their naive loops on both the AVX2 and the Go path, and the
# lutnn and tensor oracles run again with the Go path forced. Last, the
# benchmark's convert recipe on a tiny model, run twice from one
# checkpoint, gives the same codebooks, tables and accuracy. Conversion
# speed is measured by the benchmark's prefill_lut set-up and convert
# workload (make benchmark).
convert-smoke:
	$(GO) test -race -count=2 -cpu 1,2,8 ./internal/kmeans/ ./internal/lutnn/ ./internal/tensor/ ./internal/autograd/ ./internal/vec/ ./internal/nn/ \
		-run 'DeterministicAcrossGOMAXPROCS|MatchesOracle|MatchesSerialOracle|MatMulParallelMatchesSerial|ConcurrentCallers|BadInput|OnVecFallback|CalibrateELUTRepeatsFromCheckpoint' \
		-timeout 600s

# portability builds and tests the code paths an AVX2 amd64 host does
# not take by default: the purego build (internal/vec's Go fallbacks in
# place of its assembly) runs the kernel packages' tests, and the arm64
# cross-build is vetted and compiled. The fallbacks round every product
# to float32 before adding it, so the arm64 build fuses none of them.
portability:
	$(GO) test -tags purego ./internal/vec/ ./internal/lutnn/ ./internal/tensor/ ./internal/nn/ -timeout 600s
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# trace-smoke exercises the request-scoped tracing layer end to end:
# first the tracing oracles under the race detector (RunDeterministic
# spans reconcile against recorded latencies, exemplar slots resolve, the
# Perfetto spans track keeps its pinned event counts), then one
# pimdl-trace chaos run — itself built with -race — which refuses to
# print a report unless every kept trace's per-phase seconds sum to its
# end-to-end latency within 1e-9 and every exemplar the run stamped
# resolves in the ring.
# CI uploads trace-report.json as an artifact. See DESIGN.md §15.
trace-smoke:
	$(GO) test -race ./internal/obs/ ./internal/serving/live/ ./internal/trace/ 		-run 'Trace|Tracer|Reconcile|Breakdown|Report|Exemplar|SpansTrack' 		-v -timeout 600s
	$(GO) run -race ./cmd/pimdl-trace -requests 800 -top 5 		-json trace-report.json -trace trace-spans.json
	$(GO) test -race ./cmd/pimdl-trace/ -timeout 300s

# benchmark runs the repository benchmark (benchmark/README.md) over all
# six workloads and appends one record per workload to
# benchmark-run.ndjson; it exits 1 when any output check fails. Repeated
# runs accumulate records, and -compare takes the median over them:
#   make benchmark-compare A=parent.ndjson B=benchmark-run.ndjson
benchmark:
	$(GO) run ./benchmark -workload all -seed 1 -out benchmark-run.ndjson

benchmark-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# metrics-smoke runs one small pimdl-sim with -metrics and validates the
# snapshot parses and carries the required series (see DESIGN.md §10).
metrics-smoke:
	$(GO) run ./cmd/pimdl-sim -n 64 -h 32 -f 64 -v 4 -ct 8 -metrics metrics-snapshot.json
	$(GO) run ./cmd/pimdl-metrics-check \
		-require pimdl_pim_executions_total \
		-require pimdl_pim_tiles_executed_total \
		-require pimdl_pim_pe_busy_seconds_total \
		-require pimdl_pim_time_seconds_total \
		-require pimdl_pim_host_bytes_total \
		-require pimdl_pim_mram_read_bytes_total \
		-require pimdl_parallel_workers \
		metrics-snapshot.json

experiments:
	$(GO) run ./cmd/pimdl-experiments -exp all | tee bench_results.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/autotune
	$(GO) run ./examples/bert_serving
	$(GO) run ./examples/vit_inference
	$(GO) run ./examples/serving_sim
	$(GO) run ./examples/live_serving
	$(GO) run ./examples/sharded_cluster

clean:
	rm -f test_output.txt bench_output.txt \
		metrics-snapshot.json chaos-snapshot.json shard-snapshot.json \
		benchmark-run.ndjson \
		trace-report.json trace-spans.json
