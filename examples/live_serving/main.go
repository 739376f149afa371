// Live serving: run BERT-base behind the live serving runtime —
// bursty Zipf-mixed traffic, continuous batching, deadlines, and a
// mid-run fault storm that trips the circuit breaker onto the host
// fallback until the array heals. The offline simulator then replays
// the recorded run as the oracle for the live latency distribution
// (DESIGN.md §12).
//
// Run with: go run ./examples/live_serving
package main

import (
	"fmt"
	"log"

	"repro/internal/autotuner"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lutnn"
	"repro/internal/nn"
	"repro/internal/pim"
	"repro/internal/serving"
	"repro/internal/serving/live"
)

func main() {
	model := nn.BERTBase
	params := lutnn.Params{V: 4, CT: 16}
	sys := core.NewUPMEMSystem()
	e := engine.New()
	batches := []int{1, 2, 4, 8, 16}

	// Latency models at sampled batch sizes: the PIM path from the
	// engine's PIM-DL estimate, the fallback from EstimateDegraded under
	// an array-killing plan — the latency the engine quotes when the
	// surviving PEs can no longer host the tuned mappings and every LUT
	// operator drops back to host GEMM.
	killer := pim.FaultPlan{Seed: 1, DeadPEFraction: 0.999}
	var pimSecs, hostSecs []float64
	for _, b := range batches {
		rep, err := sys.Estimate(model, b, params)
		if err != nil {
			log.Fatal(err)
		}
		pimSecs = append(pimSecs, rep.Total())
		deg, err := e.EstimateDegraded(engine.Config{
			Model: model, Batch: b, Params: params,
			Platform: sys.Platform, Host: sys.Host, HostPrec: sys.HostPrec,
			LUTElemBytes: sys.LUTElemBytes, Space: sys.Space,
		}, killer)
		if err != nil {
			log.Fatal(err)
		}
		hostSecs = append(hostSecs, deg.Total())
	}
	pimLat, err := serving.InterpolatedLatency(batches, pimSecs)
	if err != nil {
		log.Fatal(err)
	}
	hostLat, err := serving.InterpolatedLatency(batches, hostSecs)
	if err != nil {
		log.Fatal(err)
	}

	// The live backend's fault machinery needs one reference LUT operator
	// on the array: BERT's hidden→hidden projection at sequence length.
	w := pim.Workload{
		N: model.SeqLen, CB: model.Hidden / params.V, CT: params.CT,
		F: model.Hidden, ElemBytes: sys.LUTElemBytes,
	}
	tuned, err := autotuner.Tune(sys.Platform, w, sys.Space)
	if err != nil {
		log.Fatal(err)
	}
	pimBE, err := live.NewPIMBackend(sys.Platform, w, tuned.Mapping, pimLat)
	if err != nil {
		log.Fatal(err)
	}
	hostBE, err := live.NewHostBackend(hostLat)
	if err != nil {
		log.Fatal(err)
	}

	// Everything below scales with the modelled full-batch latency, so
	// the scenario keeps its shape whatever the estimates come out to.
	lat16 := pimLat(16)
	capacity := 16 / lat16
	// Base rate below capacity; the MMPP bursts (2x for ~1/5 of the run)
	// push the instantaneous load to ~1.7x capacity in waves, so deadline
	// drops come and go instead of drowning the run. Long-run average ≈
	// capacity.
	rate := 0.85 * capacity
	const requests = 1200
	horizon := requests / rate

	cfg := live.Config{
		Policy:   serving.Policy{MaxBatch: 16, MaxWait: 0.2 * lat16},
		QueueCap: 96,
		Shed:     live.ShedDegrade,
		Robust:   serving.Robustness{Deadline: 5 * lat16, MaxRetries: 2, Backoff: 0.1 * lat16},
		Breaker:  live.BreakerConfig{Window: 6, MinSamples: 3, TripRatio: 0.5, Cooldown: 1.5 * lat16},
	}
	spec := live.LoadSpec{
		Rate:     rate,
		Burst:    &live.MMPP{BurstFactor: 2, MeanCalm: horizon / 6, MeanBurst: horizon / 24},
		Mix:      live.ZipfMix{S: 1.3, Kinds: 4},
		Requests: requests,
		Seed:     7,
	}
	arrivals, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}
	sched := live.ChaosSchedule{
		{At: 0.35 * horizon, Plan: pim.FaultPlan{Seed: 42, DeadPEFraction: 0.05, FlipRate: 0.9}, Note: "storm"},
		{At: 0.65 * horizon, Note: "heal"},
	}

	fmt.Printf("BERT-base live serving on UPMEM: %d requests at %.0f req/s (capacity ~%.0f req/s)\n",
		requests, rate, capacity)
	fmt.Printf("bursty MMPP(x2) arrivals, Zipf(1.3) request mix, deadline %.3gs, fault storm over t=[%.3g, %.3g]s\n\n",
		cfg.Robust.Deadline, sched[0].At, sched[1].At)

	res, err := live.RunDeterministic(cfg, pimBE, hostBE, arrivals, sched, nil)
	if err != nil {
		log.Fatal(err)
	}
	sum := res.Summary
	if err := sum.Conservation(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outcomes: served %d | degraded %d | shed %d | timeouts %d | failures %d (of %d, conserved)\n",
		sum.Served, sum.Degraded, sum.ShedQueue, sum.Timeouts, sum.Failures, sum.Submitted)
	fmt.Printf("primary lane: %d batches, %d attempts (%d retries, %d DMA retries), %d host-served\n",
		sum.Batches, sum.Attempts, sum.Retries, sum.DMARetries, sum.HostServed)
	br := res.Breaker
	fmt.Printf("breaker: %d trips, %d recoveries, final state %v\n", br.Trips(), br.Recoveries(), br.State())

	fmt.Println("\ntimeline:")
	for _, ev := range res.Recorder.Events() {
		fmt.Printf("  t=%6.3fs  %-8s %s\n", ev.At, ev.Kind, ev.Note)
	}

	liveTr := res.Recorder.PrimaryTrace()
	simTr, err := res.Recorder.Replay(cfg, 23)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserved latency vs replay oracle (offline simulator on the recorded run):\n")
	for _, p := range []float64{50, 95, 99} {
		fmt.Printf("  p%-3g live %.4gs | replay %.4gs | gap %.1f%%\n",
			p, liveTr.Percentile(p), simTr.Percentile(p), 100*live.PercentileGap(liveTr, simTr, p))
	}
	fmt.Println("\n(the oracle's mean-fit model smooths the storm window's pim/host latency mix, so tail")
	fmt.Println(" gaps widen here; the deadline-bound chaos acceptance test pins p50/p95/p99 within 5%)")
}
