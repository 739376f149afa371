// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment has a driver that computes the same
// rows/series the paper reports and a Render method that prints them; the
// pimdl-experiments command is a thin wrapper over these drivers.
//
// Absolute numbers come from our simulators and roofline models, not the
// authors' testbed, so they are not expected to match the paper digit for
// digit. What must match — and what the experiment tests assert — is the
// shape: who wins, by roughly what factor, and where the crossovers fall.
// EXPERIMENTS.md records paper-vs-measured for every headline quantity.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/lutnn"
	"repro/internal/mapping"
	"repro/internal/nn"
	"repro/internal/pim"
)

// Space is the mapping-space bound shared by the performance experiments.
// MaxDivisors 8 keeps full sweeps under a minute while covering the
// small/medium/large tile regimes.
var Space = mapping.SpaceConfig{MaxDivisors: 8}

// UPMEMScenario returns the DDR4-PIM configuration of the main evaluation:
// UPMEM array, wimpy Xeon host, INT8 tables.
func UPMEMScenario(model nn.Config, batch int, params lutnn.Params) engine.Config {
	return engine.Config{
		Model: model, Batch: batch, Params: params,
		Platform: pim.UPMEM(), Host: baseline.UPMEMHost(),
		HostPrec: baseline.INT8, LUTElemBytes: 1, Space: Space,
	}
}

// DevicePIMScenario returns an HBM-PIM or AiM configuration (A2 host,
// FP16/BF16 tables), used by Figs. 14–15.
func DevicePIMScenario(platform *pim.Platform, model nn.Config, batch int, params lutnn.Params) engine.Config {
	return engine.Config{
		Model: model, Batch: batch, Params: params,
		Platform: platform, Host: baseline.A2(),
		HostPrec: baseline.FP16, LUTElemBytes: 2, Space: Space,
	}
}

// CPUScenario returns the GGML CPU-server baseline configuration.
func CPUScenario(model nn.Config, batch int, prec baseline.Precision) engine.Config {
	return engine.Config{
		Model: model, Batch: batch,
		Host: baseline.CPUServer(), HostPrec: prec,
	}
}

// GPUScenario returns the V100 baseline configuration (PyTorch/cuDNN,
// which engages tensor cores on V100 — the basis of the paper's
// "130 TFLOPS" comparison).
func GPUScenario(model nn.Config, batch int) engine.Config {
	return engine.Config{
		Model: model, Batch: batch,
		Host: baseline.V100(), HostPrec: baseline.FP16,
	}
}

// geomean returns the geometric mean of xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// table renders rows of cells as an aligned text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func sec(x float64) string { return fmt.Sprintf("%.4g s", x) }
