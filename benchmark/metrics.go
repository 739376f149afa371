package main

import (
	"encoding/json"
)

// runSeconds is the timed budget of one run; BENCHMARK.json's
// run_seconds and the -seconds default are this value.
const runSeconds = 9

// Clocks a metric can be read on. Wall numbers come from the host
// clock and are noisy; modelled numbers are simulated seconds and repeat
// exactly for a seed; computed numbers are derived from shapes; counts
// are exact tallies.
const (
	wall     = "wall"
	modelled = "modelled"
	computed = "computed"
	count    = "count"
)

// metricDef describes one metric. BENCHMARK.json carries Name, Unit,
// Better and (end-to-end only) Bound; the rest documents the metric for
// README.md, the printed report and the selftest.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end: share of the parent's median it may worsen by
	Clock  string
	// Layer, On and Moves are set for per-layer metrics: the module
	// measured, the workload whose traced pass measures it (0 is
	// reported on every other workload: the layer is not exercised
	// there), and the end-to-end metric it is expected to move.
	Layer, On, Moves string
	Doc              string
}

// workloadDef names one workload and the work unit its rate metrics count.
type workloadDef struct {
	Name, Why string
	// Work, Variant, Scaled describe the three timed phases behind
	// work_per_s, variant_per_s and scaled_per_s; Quality what
	// quality_frac reads; Op the operation lat_p50_ms times.
	Work, Variant, Scaled, Quality, Op string
	// run executes the end-to-end pass, or the traced pass when b.traced.
	run func(b *bench) error
}

var workloads = []workloadDef{
	{Name: "prefill_lut", run: func(b *bench) error { return runPrefill(b, true) },
		Why:     "LUT-converted encoder forward: lutnn batch kernels (CCS + gather) do most of the work; conversion is its set-up, so k-means cost shows in setup_s",
		Work:    "tokens through Model.Infer, FP32-LUT, batch of 2 sequences",
		Variant: "tokens through Model.Infer, INT8-LUT, batch of 2",
		Scaled:  "tokens through Model.Infer, FP32-LUT, batch of 8",
		Quality: "INT8 table fidelity: 1 - relative L2 error of the INT8 lookup against the FP32 lookup, mean over the converted linears",
		Op:      "one FP32-LUT forward of the 2-sequence batch"},
	{Name: "prefill_gemm", run: func(b *bench) error { return runPrefill(b, false) },
		Why:     "the same encoder unconverted: tensor.MatMulT does the work and lutnn none, so a LUT-kernel change must predict no change here",
		Work:    "tokens through Model.Infer, GEMM, batch of 2 sequences",
		Variant: "tokens through Model.Infer, GEMM, single sequence",
		Scaled:  "tokens through Model.Infer, GEMM, batch of 8",
		Quality: "1 - relative L2 error of the float32 QKV projection against a float64 reference",
		Op:      "one GEMM forward of the 2-sequence batch"},
	{Name: "decode", run: runDecode,
		Why:     "KV-cached greedy decode on the LUT model: single-row RowSearcher/DecodeLUT kernels, the opposite layout regime from prefill, plus batch-8 DecodeBatch",
		Work:    "generated tokens, FP32-LUT solo DecodeSession, at the median inter-token gap",
		Variant: "generated tokens, INT8-LUT solo sessions",
		Scaled:  "generated tokens, 8-session DecodeBatch aggregate, FP32-LUT",
		Quality: "INT8 table fidelity, as on prefill_lut, on the activations of one decode window",
		Op:      "one inter-token gap (Pick + Feed) of an FP32-LUT solo session"},
	{Name: "convert", run: runConvert,
		Why:     "the algorithm half of the paper: k-means conversion and eLUT-NN calibration through autograd, and the only accuracy guard",
		Work:    "eLUT-NN calibration iterations (CalibrateELUT, stamped through Progress)",
		Variant: "linear layers converted by ConvertBaseline (k-means + table build)",
		Scaled:  "held-out sequences classified by Model.Accuracy on original, baseline-LUT and eLUT models",
		Quality: "held-out accuracy after eLUT-NN, mean over the two tasks",
		Op:      "one calibration iteration"},
	{Name: "pim_model", run: runPIMModel,
		Why:     "the modelled clock: autotuner, mapping cost model and pim timing simulator do all the work and kernels none; modelled values repeat exactly",
		Work:    "cold Engine.TunedMapping problems solved on UPMEM",
		Variant: "warm-cache estimator calls (EstimatePIMDL, EstimatePIMGEMM, EstimateHost, energy.Estimate)",
		Scaled:  "cold Engine.TunedMapping problems solved on HBM-PIM and AiM",
		Quality: "1 - abs(modelled UPMEM speedup - 3.07) / 3.07: agreement with the paper's Fig. 10",
		Op:      "one cold TunedMapping on UPMEM"},
	{Name: "serve", run: runServe,
		Why:     "open-loop virtual-time serving: live.RunDeterministic over MMPP/Zipf arrivals with fault storms, breaker and sharded failover; no kernels",
		Work:    "requests simulated, healthy rate ladder (100/200/280 req/s)",
		Variant: "requests simulated, fault storm on the single-array backend",
		Scaled:  "requests simulated, fault storm with shard kill on the 4-shard x 2-replica cluster",
		Quality: "goodput: requests served within deadline / submitted, both storm runs pooled",
		Op:      "one RunDeterministic run of the rate ladder"},
}

// The wall-clock bounds are the contract's maximum, 0.25. On the 2
// shared cores the baseline was measured on, the machine's own speed
// drifts by 5 to 9% (quartile spread over ten consecutive runs; process
// CPU time drifts with it), whatever the estimator, and a bound must
// stay three times above the spread to resolve anything. Finer claims
// need paired runs (-compare). quality_frac is exact for a seed and
// moves by under 1.5% across seeds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: wall,
		Doc: "median over the run's set-up repetitions: input generation, model build, conversion or training, backend build and the 5 warm-up operations"},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Clock: wall,
		Doc: "largest resident set (VmRSS) sampled right after a forced collection at the end of set-up and of every timed phase; VmHWM is printed beside it"},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: wall,
		Doc: "median latency of the workload's primary operation: per-slot medians of a round, averaged over the round"},
	{Name: "lat_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: wall,
		Doc: "the highest percentile of the primary operation with at least 10 samples beyond it, capped at p95"},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: wall,
		Doc: "work items of one round of the primary phase over the round's time at each slot's median latency"},
	{Name: "variant_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: wall,
		Doc: "the same for the variant phase"},
	{Name: "scaled_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: wall,
		Doc: "the same for the scaled phase"},
	{Name: "cpu_us_per_work", Unit: "us", Better: "lower", Bound: 0.25, Clock: wall,
		Doc: "process CPU time (user + system) per work item in the primary phase"},
	{Name: "quality_frac", Unit: "fraction", Better: "higher", Bound: 0.05, Clock: computed,
		Doc: "the workload's output-quality figure in (0, 1]; exact for a seed"},
}

// perLayer lists every traced-pass metric. A workload's traced pass
// reports the rows whose On names it and 0 for the others.
var perLayer = []metricDef{
	// Host roofs and the tracer's own cost: measured on every workload.
	{Name: "host.copy_gbps", Unit: "GB/s", Better: "higher", Clock: wall, Layer: "host", On: "all", Moves: "reference",
		Doc: "STREAM-style copy of a 64 MiB buffer, bytes read + written"},
	{Name: "host.add_gflops", Unit: "GFLOP/s", Better: "higher", Clock: wall, Layer: "host", On: "all", Moves: "reference",
		Doc: "float32 add loop over an L1-resident buffer"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", Clock: wall, Layer: "benchmark", On: "all", Moves: "reference",
		Doc: "per-op median of the traced primary phase over the untraced one, minus 1"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Clock: count, Layer: "benchmark", On: "all", Moves: "reference",
		Doc: "spans recorded and written to benchmark/out/<workload>.trace.json"},

	// tensor
	{Name: "tensor.matmul_s", Unit: "s", Better: "lower", Clock: wall, Layer: "tensor", On: "prefill_gemm", Moves: "work_per_s",
		Doc: "MatMulT over the four roles' captured activations, summed per forward"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher", Clock: wall, Layer: "tensor", On: "prefill_gemm", Moves: "work_per_s",
		Doc: "2NHF computed ops over tensor.matmul_s"},
	{Name: "tensor.layernorm_s", Unit: "s", Better: "lower", Clock: wall, Layer: "tensor", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "LayerNormRows at the model's shape, summed per forward"},
	{Name: "tensor.gelu_s", Unit: "s", Better: "lower", Clock: wall, Layer: "tensor", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "GELU at the FFN shape, summed per forward"},
	{Name: "tensor.softmax_s", Unit: "s", Better: "lower", Clock: wall, Layer: "tensor", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "SoftmaxRows at the attention shape, summed per forward"},
	{Name: "tensor.attn_s", Unit: "s", Better: "lower", Clock: wall, Layer: "tensor", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "derived: the QKV-to-O tap segment minus the standalone QKV linear, summed per forward"},

	// lutnn batch kernels
	{Name: "lutnn.ccs_s", Unit: "s", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "work_per_s",
		Doc: "Codebooks.SearchInto over the four roles' captured activations, summed per forward"},
	{Name: "lutnn.ccs_gops", Unit: "Gop/s", Better: "higher", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "work_per_s",
		Doc: "CCSOps computed op count over lutnn.ccs_s"},
	{Name: "lutnn.lookup_fp32_s", Unit: "s", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "work_per_s",
		Doc: "LUT.LookupInto, summed per forward"},
	{Name: "lutnn.lookup_fp32_gbps", Unit: "GB/s", Better: "higher", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "work_per_s",
		Doc: "N*CB*F*4 table bytes gathered (computed) over lutnn.lookup_fp32_s"},
	{Name: "lutnn.lookup_fp32_roof_frac", Unit: "fraction", Better: "higher", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "work_per_s",
		Doc: "lutnn.lookup_fp32_gbps over host.copy_gbps"},
	{Name: "lutnn.lookup_int8_s", Unit: "s", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "variant_per_s",
		Doc: "QuantizedLUT.LookupInto, summed per forward"},
	{Name: "lutnn.lookup_int8_gbps", Unit: "GB/s", Better: "higher", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "variant_per_s",
		Doc: "N*CB*F*1 table bytes gathered (computed) over lutnn.lookup_int8_s"},
	{Name: "lutnn.lookup_int8_roof_frac", Unit: "fraction", Better: "higher", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "variant_per_s",
		Doc: "lutnn.lookup_int8_gbps over host.copy_gbps"},
	{Name: "lutnn.int8_over_fp32", Unit: "ratio", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "variant_per_s",
		Doc: "lutnn.lookup_int8_s over lutnn.lookup_fp32_s; below 1 means INT8 tables pay on the host"},
	{Name: "lutnn.fused_fp32_s", Unit: "s", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "work_per_s",
		Doc: "Layer.ForwardInto with FP32 tables, summed per forward"},
	{Name: "lutnn.fused_int8_s", Unit: "s", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "variant_per_s",
		Doc: "Layer.ForwardInto with INT8 tables, summed per forward"},
	{Name: "lutnn.fused_over_parts", Unit: "ratio", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "work_per_s",
		Doc: "lutnn.fused_fp32_s over (ccs_s + lookup_fp32_s); below 1 means fusion pays"},

	// lutnn single-row kernels
	{Name: "lutnn.ccs_row_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "lutnn", On: "decode", Moves: "work_per_s",
		Doc: "RowSearcher.SearchRowInto, mean per row over the four roles"},
	{Name: "lutnn.ccs_row_pruned_frac", Unit: "fraction", Better: "higher", Clock: count, Layer: "lutnn", On: "decode", Moves: "work_per_s",
		Doc: "centroids skipped by the pruning bound over CB*CT candidates"},
	{Name: "lutnn.gather_row_fp32_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "lutnn", On: "decode", Moves: "work_per_s",
		Doc: "DecodeLUT.LookupRowInto, mean per row over the four roles"},
	{Name: "lutnn.forward_row_fp32_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "lutnn", On: "decode", Moves: "work_per_s",
		Doc: "Layer.ForwardRowInto with FP32 tables, mean per row"},
	{Name: "lutnn.forward_row_int8_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "lutnn", On: "decode", Moves: "variant_per_s",
		Doc: "Layer.ForwardRowInto with INT8 tables, mean per row"},

	// lutnn build and kmeans
	{Name: "lutnn.build_codebooks_s", Unit: "s", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "setup_s",
		Doc: "BuildCodebooks on the first QKV layer's calibration activations"},
	{Name: "lutnn.build_lut_s", Unit: "s", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "setup_s",
		Doc: "BuildLUT for the first QKV layer"},
	{Name: "lutnn.quantize_s", Unit: "s", Better: "lower", Clock: wall, Layer: "lutnn", On: "prefill_lut", Moves: "setup_s",
		Doc: "LUT.Quantize over every converted layer"},
	{Name: "lutnn.table_mb_fp32", Unit: "MB", Better: "lower", Clock: computed, Layer: "lutnn", On: "prefill_lut", Moves: "rss_mb",
		Doc: "LUT.SizeBytes(4) summed over the model"},
	{Name: "lutnn.table_mb_int8", Unit: "MB", Better: "lower", Clock: computed, Layer: "lutnn", On: "prefill_lut", Moves: "rss_mb",
		Doc: "QuantizedLUT.SizeBytes summed over the model"},
	{Name: "kmeans.run_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "kmeans", On: "prefill_lut", Moves: "setup_s",
		Doc: "kmeans.Run on one codebook's rows x 4 sub-vectors, k=16"},
	{Name: "kmeans.points_per_s", Unit: "1/s", Better: "higher", Clock: wall, Layer: "kmeans", On: "prefill_lut", Moves: "setup_s",
		Doc: "points x Lloyd iterations over kmeans.run_ms"},

	// nn prefill
	{Name: "nn.fwd_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "median Model.Infer of the traced pass"},
	{Name: "nn.seg_embed_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "call to first QKV tap: embedding and first layernorm"},
	{Name: "nn.seg_qkv_attn_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "QKV tap to O tap, summed over blocks: QKV linear and attention"},
	{Name: "nn.seg_o_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "O tap to FFN1 tap: O linear, residual, layernorm"},
	{Name: "nn.seg_ffn1_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "FFN1 tap to FFN2 tap: FFN1 linear and GELU"},
	{Name: "nn.seg_ffn2_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "FFN2 tap to the next block's QKV tap: FFN2 linear, residual, layernorm (all blocks but the last)"},
	{Name: "nn.seg_head_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "work_per_s",
		Doc: "last FFN2 tap to return: last FFN2 linear, final layernorm, pooling, classifier"},
	{Name: "nn.seg_sum_err", Unit: "fraction", Better: "lower", Clock: wall, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "reference",
		Doc: "abs(sum of segments - nn.fwd_s) / nn.fwd_s; must stay below 1%"},
	{Name: "nn.alloc_mb_per_fwd", Unit: "MB", Better: "lower", Clock: count, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "lat_tail_ms",
		Doc: "runtime.MemStats.TotalAlloc delta per forward"},
	{Name: "nn.allocs_per_fwd", Unit: "count", Better: "lower", Clock: count, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "lat_tail_ms",
		Doc: "runtime.MemStats.Mallocs delta per forward"},
	{Name: "nn.gc_pause_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "nn", On: "prefill_lut prefill_gemm", Moves: "lat_tail_ms",
		Doc: "runtime.MemStats.PauseTotalNs delta over the traced forwards"},

	// nn decode
	{Name: "nn.ttft_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "nn", On: "decode", Moves: "lat_p50_ms",
		Doc: "median NewDecodeSession(prompt) plus first Pick"},
	{Name: "nn.prefill_session_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "nn", On: "decode", Moves: "lat_p50_ms",
		Doc: "median NewDecodeSession alone"},
	{Name: "nn.decode_step_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "nn", On: "decode", Moves: "work_per_s",
		Doc: "median DecodeSession.Feed"},
	{Name: "nn.decode_gap_p99_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "nn", On: "decode", Moves: "lat_tail_ms",
		Doc: "p99 of the inter-token gap in the traced pass"},
	{Name: "nn.pick_us", Unit: "us", Better: "lower", Clock: wall, Layer: "nn", On: "decode", Moves: "work_per_s",
		Doc: "median DecodeSession.Pick (greedy argmax over the vocabulary)"},
	{Name: "nn.batch8_step_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "nn", On: "decode", Moves: "scaled_per_s",
		Doc: "median DecodeBatch.Feed of 8 sessions"},
	{Name: "nn.batch8_over_solo", Unit: "ratio", Better: "lower", Clock: wall, Layer: "nn", On: "decode", Moves: "scaled_per_s",
		Doc: "per-token time batch-8 over solo; below 1 means batching pays"},
	{Name: "nn.naive_over_cached", Unit: "ratio", Better: "higher", Clock: wall, Layer: "nn", On: "decode", Moves: "work_per_s",
		Doc: "Generate over GenerateCached wall time on one prompt"},
	{Name: "nn.allocs_per_token", Unit: "count", Better: "lower", Clock: count, Layer: "nn", On: "decode", Moves: "lat_tail_ms",
		Doc: "runtime.MemStats.Mallocs delta per generated token"},

	// nn convert and autograd
	{Name: "nn.train_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "convert", Moves: "setup_s",
		Doc: "Model.Train of both task models"},
	{Name: "nn.convert_baseline_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "convert", Moves: "variant_per_s",
		Doc: "median Model.ConvertBaseline"},
	{Name: "nn.collect_acts_s", Unit: "s", Better: "lower", Clock: wall, Layer: "nn", On: "convert", Moves: "variant_per_s",
		Doc: "median Model.CollectActivations over the calibration batches"},
	{Name: "nn.calib_step_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "nn", On: "convert", Moves: "work_per_s",
		Doc: "median gap between Progress stamps"},
	{Name: "autograd.fwd_bwd_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "autograd", On: "convert", Moves: "work_per_s",
		Doc: "median Model.Loss plus Backward on one batch"},
	{Name: "nn.orig_acc", Unit: "fraction", Better: "higher", Clock: computed, Layer: "nn", On: "convert", Moves: "quality_frac",
		Doc: "held-out accuracy of the trained models, mean over tasks"},
	{Name: "nn.baseline_lut_acc", Unit: "fraction", Better: "higher", Clock: computed, Layer: "nn", On: "convert", Moves: "quality_frac",
		Doc: "held-out accuracy after baseline LUT conversion, mean over tasks"},
	{Name: "nn.elut_acc_nlp", Unit: "fraction", Better: "higher", Clock: computed, Layer: "nn", On: "convert", Moves: "quality_frac",
		Doc: "held-out accuracy after eLUT-NN on the marker (token) task"},
	{Name: "nn.elut_acc_vision", Unit: "fraction", Better: "higher", Clock: computed, Layer: "nn", On: "convert", Moves: "quality_frac",
		Doc: "held-out accuracy after eLUT-NN on the template (patch) task"},

	// parallel
	{Name: "parallel.for_dispatch_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "parallel", On: "decode", Moves: "work_per_s",
		Doc: "parallel.For over an empty body just above the parallel threshold"},

	// autotuner and mapping
	{Name: "autotuner.tune_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "autotuner", On: "pim_model", Moves: "lat_p50_ms",
		Doc: "median autotuner.Tune over the UPMEM problems"},
	{Name: "autotuner.evaluated", Unit: "count", Better: "lower", Clock: count, Layer: "autotuner", On: "pim_model", Moves: "work_per_s",
		Doc: "legal mappings scored over the UPMEM problems (exact)"},
	{Name: "autotuner.mappings_per_s", Unit: "1/s", Better: "higher", Clock: wall, Layer: "autotuner", On: "pim_model", Moves: "work_per_s",
		Doc: "autotuner.evaluated over the summed Tune time"},
	{Name: "mapping.cost_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "mapping", On: "pim_model", Moves: "work_per_s",
		Doc: "mapping.Cost per call on the tuned mappings"},
	{Name: "mapping.enumerate_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "mapping", On: "pim_model", Moves: "work_per_s",
		Doc: "mapping.Enumerate with an empty yield, per mapping yielded"},
	{Name: "mapping.model_err_p50", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "mapping", On: "pim_model", Moves: "quality_frac",
		Doc: "median mapping.ModelError over every tuned mapping"},
	{Name: "mapping.model_err_max", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "mapping", On: "pim_model", Moves: "quality_frac",
		Doc: "largest mapping.ModelError over every tuned mapping"},

	// pim
	{Name: "pim.simtiming_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "pim", On: "pim_model", Moves: "work_per_s",
		Doc: "pim.SimTiming per call on the tuned mappings"},
	{Name: "pim.execute_lut_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "pim", On: "pim_model", Moves: "reference",
		Doc: "functional pim.ExecuteLUT of a converted layer under its tuned mapping"},
	{Name: "pim.execute_faults_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "pim", On: "pim_model", Moves: "reference",
		Doc: "pim.ExecuteLUTWithFaults on the same layer under a fault plan"},
	{Name: "pim.wall_per_modelled_s", Unit: "ratio", Better: "lower", Clock: wall, Layer: "pim", On: "pim_model", Moves: "reference",
		Doc: "wall seconds of ExecuteLUT per modelled second it simulates"},

	// engine, baseline, energy: modelled and exact
	{Name: "engine.modelled_speedup_upmem", Unit: "x", Better: "higher", Clock: modelled, Layer: "engine", On: "pim_model", Moves: "quality_frac",
		Doc: "geomean over the three models of CPU-FP32 EstimateHost over EstimatePIMDL on UPMEM (paper Fig. 10: 3.07x)"},
	{Name: "engine.paper_err_frac", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "engine", On: "pim_model", Moves: "quality_frac",
		Doc: "abs(engine.modelled_speedup_upmem - 3.07) / 3.07"},
	{Name: "engine.speedup_cpu_int8", Unit: "x", Better: "higher", Clock: modelled, Layer: "engine", On: "pim_model", Moves: "quality_frac",
		Doc: "geomean speedup over the CPU INT8 baseline (paper 1.71x)"},
	{Name: "engine.speedup_pimgemm", Unit: "x", Better: "higher", Clock: modelled, Layer: "engine", On: "pim_model", Moves: "quality_frac",
		Doc: "geomean speedup over GEMM on the same PIM array (paper 18.91x)"},
	{Name: "engine.energy_eff_cpu_fp32", Unit: "x", Better: "higher", Clock: modelled, Layer: "energy", On: "pim_model", Moves: "quality_frac",
		Doc: "geomean energy efficiency over CPU FP32 (paper 4.42x)"},
	{Name: "engine.speedup_hbmpim", Unit: "x", Better: "higher", Clock: modelled, Layer: "engine", On: "pim_model", Moves: "quality_frac",
		Doc: "geomean of PIM-GEMM over PIM-DL on HBM-PIM"},
	{Name: "engine.speedup_aim", Unit: "x", Better: "higher", Clock: modelled, Layer: "engine", On: "pim_model", Moves: "quality_frac",
		Doc: "geomean of PIM-GEMM over PIM-DL on AiM"},
	{Name: "engine.lut_frac", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "engine", On: "pim_model", Moves: "quality_frac",
		Doc: "LUT-operator share of the UPMEM PIM-DL total (Fig. 11a)"},
	{Name: "engine.ccs_frac", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "engine", On: "pim_model", Moves: "quality_frac",
		Doc: "CCS share of the UPMEM PIM-DL total (Fig. 11a)"},
	{Name: "engine.decode_tok_per_s", Unit: "1/s", Better: "higher", Clock: modelled, Layer: "engine", On: "pim_model", Moves: "quality_frac",
		Doc: "EstimateDecodeLUT tokens per modelled second, BERT-base shape on UPMEM"},
	{Name: "engine.estimate_warm_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "engine", On: "pim_model", Moves: "variant_per_s",
		Doc: "median warm-cache EstimatePIMDL"},

	// shard
	{Name: "shard.estimate_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "shard", On: "serve", Moves: "scaled_per_s",
		Doc: "median Cluster.Estimate on the serving cluster"},
	{Name: "shard.execute_lut_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "shard", On: "serve", Moves: "scaled_per_s",
		Doc: "median functional Cluster.ExecuteLUT"},

	// serving and serving/live
	{Name: "live.modelled_p99_s", Unit: "s", Better: "lower", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "p99 latency of served requests at the healthy 200 req/s rung, from scheduled arrival"},
	{Name: "live.goodput_frac", Unit: "fraction", Better: "higher", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "requests served within deadline over submitted, both storm runs pooled"},
	{Name: "serving.simulate_req_per_s", Unit: "1/s", Better: "higher", Clock: wall, Layer: "serving", On: "serve", Moves: "work_per_s",
		Doc: "serving.SimulateRobust requests per wall second on the same arrivals"},
	{Name: "live.loadgen_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "serving/live", On: "serve", Moves: "setup_s",
		Doc: "median LoadSpec.Generate of one run's arrivals"},
	{Name: "live.pim_exec_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "serving/live", On: "serve", Moves: "work_per_s",
		Doc: "PIMBackend.Execute per call under the storm plan"},
	{Name: "live.sharded_exec_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "serving/live", On: "serve", Moves: "scaled_per_s",
		Doc: "ShardedPIMBackend.Execute per call under the storm plan"},
	{Name: "live.host_exec_ns", Unit: "ns", Better: "lower", Clock: wall, Layer: "serving/live", On: "serve", Moves: "variant_per_s",
		Doc: "HostBackend.Execute per call"},
	{Name: "live.mean_batch", Unit: "count", Better: "higher", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "mean batch size of the healthy 200 req/s run"},
	{Name: "live.shed_frac", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "requests shed at admission over submitted, all five runs"},
	{Name: "live.timeout_frac", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "requests timed out before service over submitted, all five runs"},
	{Name: "live.retries_per_batch", Unit: "ratio", Better: "lower", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "retry attempts over batches, storm runs"},
	{Name: "live.dma_retries", Unit: "count", Better: "lower", Clock: count, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "checksum-failed DMA transfers re-issued, storm runs"},
	{Name: "live.failovers", Unit: "count", Better: "lower", Clock: count, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "cluster tiles served off their preferred replica, sharded storm"},
	{Name: "live.host_served_frac", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "requests served by the host fallback over served, storm runs"},
	{Name: "live.breaker_trips", Unit: "count", Better: "lower", Clock: count, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "breaker transitions into the open state, storm runs"},
	{Name: "live.p99_s_r100", Unit: "s", Better: "lower", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "p99 served latency at 100 req/s"},
	{Name: "live.p99_s_r200", Unit: "s", Better: "lower", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "p99 served latency at 200 req/s"},
	{Name: "live.p99_s_r280", Unit: "s", Better: "lower", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "p99 served latency at 280 req/s"},
	{Name: "live.max_rate_slo", Unit: "1/s", Better: "higher", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "highest ladder rate with p99 <= 0.5 s and >= 99% served"},
	{Name: "live.replay_gap_p99", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "serving/live", On: "serve", Moves: "quality_frac",
		Doc: "PercentileGap at p99 between the single-array storm run and its Recorder.Replay"},

	// obs, metrics, trace
	{Name: "obs.traced_req_per_s", Unit: "1/s", Better: "higher", Clock: wall, Layer: "obs", On: "serve", Moves: "reference",
		Doc: "RunDeterministic requests per wall second with an obs.Tracer attached"},
	{Name: "obs.tracer_slowdown_x", Unit: "x", Better: "lower", Clock: wall, Layer: "obs", On: "serve", Moves: "reference",
		Doc: "untraced over traced RunDeterministic requests per second"},
	{Name: "obs.build_report_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "obs", On: "serve", Moves: "reference",
		Doc: "obs.BuildReport over the kept traces"},
	{Name: "obs.reconcile_us", Unit: "us", Better: "lower", Clock: wall, Layer: "obs", On: "serve", Moves: "reference",
		Doc: "obs.Reconcile per kept trace"},
	{Name: "obs.kept_frac", Unit: "fraction", Better: "higher", Clock: count, Layer: "obs", On: "serve", Moves: "reference",
		Doc: "traces kept in the ring over traces finished (Tracer.Stats)"},
	{Name: "obs.tail_queue_frac", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "obs", On: "serve", Moves: "reference",
		Doc: "queue share of latency in the p99-100 band of BuildReport"},
	{Name: "obs.tail_exec_frac", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "obs", On: "serve", Moves: "reference",
		Doc: "pim + host + broadcast + gather share in the p99-100 band"},
	{Name: "obs.tail_retry_frac", Unit: "fraction", Better: "lower", Clock: modelled, Layer: "obs", On: "serve", Moves: "reference",
		Doc: "retry + backoff share in the p99-100 band"},
	{Name: "metrics.flatten_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "metrics", On: "serve", Moves: "reference",
		Doc: "metrics.Default().Flatten"},
	{Name: "trace.export_live_ms", Unit: "ms", Better: "lower", Clock: wall, Layer: "trace", On: "serve", Moves: "reference",
		Doc: "trace.ExportLive of the traced run to io.Discard"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// manifestJSON renders BENCHMARK.json from the tables above, so the
// committed file and the program cannot drift (the selftest compares them).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from string and number literals only
	}
	return append(out, '\n')
}
