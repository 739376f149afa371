package nn

import "repro/internal/metrics"

// Decode-path metrics: step/rebase/prefill volume plus the batched-step
// size distribution, so a serving snapshot shows how much of the decode
// work ran cached vs rebased and how well continuous batching packed.
var (
	decodeSteps       *metrics.Counter
	decodePrefillRows *metrics.Counter
	decodeRebases     *metrics.Counter
	decodeBatchSteps  *metrics.Counter
	decodeBatchRows   *metrics.Histogram
)

func init() {
	r := metrics.Default()
	decodeSteps = r.NewCounter("pimdl_decode_steps_total",
		"KV-cached single-row decode steps (one per generated token on the fastpath)")
	decodePrefillRows = r.NewCounter("pimdl_decode_prefill_rows_total",
		"prompt rows computed by decode-session prefill")
	decodeRebases = r.NewCounter("pimdl_decode_rebases_total",
		"full-window cache rebases after the context window slid")
	decodeBatchSteps = r.NewCounter("pimdl_decode_batch_steps_total",
		"stacked multi-sequence decode steps (one per N=B kernel round)")
	decodeBatchRows = r.NewHistogram("pimdl_decode_batch_rows",
		"sequences stacked per batched decode step",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
}

func decodeRecordStep(n int) {
	if !metrics.Enabled() {
		return
	}
	decodeSteps.Add(int64(n))
}

func decodeRecordPrefill(rows int) {
	if !metrics.Enabled() {
		return
	}
	decodePrefillRows.Add(int64(rows))
}

func decodeRecordRebase(rows int) {
	if !metrics.Enabled() {
		return
	}
	decodeRebases.Inc()
	decodePrefillRows.Add(int64(rows))
}

func decodeRecordBatch(rows int, traceID uint64) {
	if !metrics.Enabled() {
		return
	}
	decodeBatchSteps.Inc()
	// traceID (0 = none) would link the bucket back to a kept request
	// trace; DecodeBatch always passes 0 (see DecodeBatch.traceID).
	decodeBatchRows.ObserveExemplar(float64(rows), traceID)
}
