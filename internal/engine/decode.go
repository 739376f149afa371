package engine

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/pim"
)

// This file models the single-batch GPT decode scenario of paper §2:
// token-by-token generation where every linear layer degenerates to a
// GEMV. HBM-PIM and AiM were designed for exactly this case — the weight
// matrix streams from the banks once per token with nothing to reuse, so
// the memory-side MACs beat any cache-based processor. PIM-DL does not
// target this regime (its tables would stream per token too, and CCS
// overhead cannot amortize over one row); modelling it makes the boundary
// of the paper's contribution explicit.

// DecodeReport is the per-step latency of one decode configuration.
type DecodeReport struct {
	Config       string
	PerTokenTime float64 // seconds per decode step
	// Batch is the number of sequences advanced per step (continuous
	// batching stacks B single-row decodes into one kernel round). Zero
	// means unbatched and is treated as 1.
	Batch int
}

// TokensPerSecond returns decode throughput: Batch tokens emerge from
// each step. A non-positive step time yields 0 rather than ±Inf so
// downstream ratio math stays finite.
func (d DecodeReport) TokensPerSecond() float64 {
	if d.PerTokenTime <= 0 {
		return 0
	}
	b := d.Batch
	if b < 1 {
		b = 1
	}
	return float64(b) / d.PerTokenTime
}

// EstimateDecodePIMGEMV models native GEMV decode on a PIM platform: per
// token, each linear streams its weights through the bank-side MACs, and
// attention reads the KV cache of contextLen previous tokens.
func (e *Engine) EstimateDecodePIMGEMV(cfg Config, contextLen int) *DecodeReport {
	c := cfg.Model
	var t float64
	for _, role := range nn.Roles {
		f, h := c.LinearShape(role)
		gw := pim.GEMMWorkload{N: 1, H: h, F: f, Batch: 1, ElemBytes: cfg.Platform.ElemBytes}
		t += pim.GEMMOnPIM(cfg.Platform, gw).Total()
	}
	// Attention over the KV cache: 2·ctx·H MACs per head group — a GEMV
	// against the cache, also memory-bound on the PIM side.
	kvBytes := float64(2*contextLen*c.Hidden) * float64(cfg.Platform.ElemBytes)
	agg := cfg.Platform.LocalBWPerPE * float64(cfg.Platform.NumPE)
	t += cfg.Platform.HostXferLatency + kvBytes/agg
	t *= float64(c.Layers)
	return &DecodeReport{Config: "PIM-GEMV/" + cfg.Platform.Name, PerTokenTime: t}
}

// EstimateDecodeHost models GEMV decode on the host device (GPU/CPU):
// per token the full weight set streams through the memory system, which
// is the bandwidth-bound regime regardless of compute peak.
func (e *Engine) EstimateDecodeHost(cfg Config, contextLen int) *DecodeReport {
	c := cfg.Model
	var t float64
	for _, role := range nn.Roles {
		f, h := c.LinearShape(role)
		t += cfg.Host.GEMMTime(1, h, f, cfg.HostPrec)
	}
	t += cfg.Host.AttentionTime(1, int(math.Max(1, float64(contextLen))), c.Hidden, c.Heads, cfg.HostPrec)
	t *= float64(c.Layers)
	return &DecodeReport{Config: cfg.Host.Name + "-decode", PerTokenTime: t}
}

// EstimateDecodeLUT models the KV-cached LUT-NN decode fastpath of
// internal/nn on a PIM-DL configuration: per step, every linear runs
// single-row CCS on the host (N = Batch rows after continuous batching)
// and the LUT reduce on the PIM array under the mapping tuned for that
// skinny shape, while single-query attention streams the KV cache of
// contextLen previous tokens through the host memory system. This is the
// regime §2 says PIM-DL was not designed for — the interesting question
// the estimator answers is how far batching must go before the LUT
// tables (which are resident and do NOT restream per token, unlike GEMV
// weights) pull decode back into PIM-DL's favour.
func (e *Engine) EstimateDecodeLUT(cfg Config, contextLen int) (*DecodeReport, error) {
	c := cfg.Model
	b := cfg.Batch
	if b < 1 {
		b = 1
	}
	var t float64
	for _, role := range nn.Roles {
		f, h := c.LinearShape(role)
		if h%cfg.Params.V != 0 {
			return nil, fmt.Errorf("engine: V=%d does not divide %d (%v)", cfg.Params.V, h, role)
		}
		w := pim.Workload{N: b, CB: h / cfg.Params.V, CT: cfg.Params.CT, F: f, ElemBytes: cfg.LUTElemBytes}
		tuned, err := e.TunedMapping(cfg.Platform, w, cfg.Space)
		if err != nil {
			return nil, err
		}
		// Tables are resident (written at load time), so the per-step LUT
		// operator excludes t_sub_lut — same accounting as EstimatePIMDL.
		t += cfg.Host.CCSTime(b, h, cfg.Params.CT, cfg.HostPrec)
		t += tuned.Simulated.Total() - tuned.Simulated.HostLUT
	}
	// Host-side single-query attention: the K and V arenas of contextLen
	// rows stream once per sequence per layer, bandwidth-bound.
	ctx := int(math.Max(1, float64(contextLen)))
	kvBytes := float64(2*ctx*c.Hidden*b) * float64(cfg.HostPrec.Bytes())
	t += kvBytes / cfg.Host.MemBW
	t *= float64(c.Layers)
	return &DecodeReport{Config: "PIM-DL-decode/" + cfg.Platform.Name, PerTokenTime: t, Batch: b}, nil
}
