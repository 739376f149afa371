// Package core is the top-level PIM-DL API: it ties the LUT-NN algorithms
// (lutnn), the transformer stack (nn), the DRAM-PIM simulators (pim), the
// auto-tuner (autotuner) and the inference engine (engine) into the
// workflow of paper Fig. 5:
//
//	model → [LUT-NN Converter] → LUT-NN model
//	      → [Auto-Tuner]       → tuned mapping parameters
//	      → [Inference Engine] → deployment on a DRAM-PIM platform
//
// The examples under examples/ are written exclusively against this
// package.
package core

import (
	"fmt"

	"repro/internal/autotuner"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/lutnn"
	"repro/internal/mapping"
	"repro/internal/nn"
	"repro/internal/pim"
	"repro/internal/tensor"
)

// System couples a DRAM-PIM platform with its host processor.
type System struct {
	Platform *pim.Platform
	Host     *baseline.Device
	HostPrec baseline.Precision
	// LUTElemBytes is the table element width on the PIM side.
	LUTElemBytes int
	// Space bounds the auto-tuner's search.
	Space mapping.SpaceConfig

	eng *engine.Engine
}

// NewUPMEMSystem returns the paper's main evaluation platform: 8 UPMEM
// PIM-DIMMs behind a dual Xeon 4210 host, INT8 tables.
func NewUPMEMSystem() *System {
	return &System{
		Platform: pim.UPMEM(), Host: baseline.UPMEMHost(),
		HostPrec: baseline.INT8, LUTElemBytes: 1,
		Space: mapping.SpaceConfig{MaxDivisors: 8},
		eng:   engine.New(),
	}
}

// Estimate produces the end-to-end PIM-DL latency report for a model shape.
func (s *System) Estimate(model nn.Config, batch int, params lutnn.Params) (*engine.Report, error) {
	return s.eng.EstimatePIMDL(s.config(model, batch, params))
}

// EstimateGEMMBaseline produces the GEMM-on-PIM baseline report.
func (s *System) EstimateGEMMBaseline(model nn.Config, batch int) (*engine.Report, error) {
	return s.eng.EstimatePIMGEMM(s.config(model, batch, lutnn.Params{V: 4, CT: 16}))
}

func (s *System) config(model nn.Config, batch int, params lutnn.Params) engine.Config {
	return engine.Config{
		Model: model, Batch: batch, Params: params,
		Platform: s.Platform, Host: s.Host, HostPrec: s.HostPrec,
		LUTElemBytes: s.LUTElemBytes, Space: s.Space,
	}
}

// Deployment is one LUT-NN linear layer placed on a platform with a tuned
// mapping. Run executes it functionally on the simulator.
type Deployment struct {
	System   *System
	Layer    *lutnn.Layer
	Workload pim.Workload
	Tuned    *autotuner.Result
}

// Deploy converts tuning for one LUT-NN layer at the given batch-row
// count. The layer must already be converted (see lutnn.Convert or
// nn.Model.CalibrateELUT).
func (s *System) Deploy(layer *lutnn.Layer, rows int) (*Deployment, error) {
	cb := layer.Codebooks
	w := pim.Workload{
		N: rows, CB: cb.CB, CT: cb.CT, F: layer.Table.F,
		ElemBytes: s.LUTElemBytes,
	}
	tuned, err := autotuner.Tune(s.Platform, w, s.Space)
	if err != nil {
		return nil, fmt.Errorf("core: tuning deployment: %w", err)
	}
	return &Deployment{System: s, Layer: layer, Workload: w, Tuned: tuned}, nil
}

// Run executes the deployed layer on the simulated platform: CCS on the
// host (computed directly), the table lookup distributed across simulated
// PEs under the tuned mapping. Returns the output and the simulator's
// modelled timing.
func (d *Deployment) Run(acts *tensor.Tensor) (*tensor.Tensor, pim.Timing, error) {
	if acts.Dim(0) != d.Workload.N {
		return nil, pim.Timing{}, fmt.Errorf("core: deployment sized for %d rows, got %d", d.Workload.N, acts.Dim(0))
	}
	// CCS runs the blocked parallel kernel on the shared worker pool
	// (lutnn fast path); the simulated PIM side consumes the indices.
	idx := d.Layer.Codebooks.Search(acts)
	var out *tensor.Tensor
	var tm pim.Timing
	if d.System.LUTElemBytes == 1 {
		if d.Layer.QTable == nil {
			d.Layer.EnableINT8()
		}
		res, err := pim.ExecuteLUTInt8(d.System.Platform, d.Workload, d.Tuned.Mapping, idx, d.Layer.QTable)
		if err != nil {
			return nil, pim.Timing{}, err
		}
		out, tm = res.Output, res.Timing
	} else {
		res, err := pim.ExecuteLUT(d.System.Platform, d.Workload, d.Tuned.Mapping, idx, d.Layer.Table)
		if err != nil {
			return nil, pim.Timing{}, err
		}
		out, tm = res.Output, res.Timing
	}
	if d.Layer.Bias != nil {
		tensor.AddBias(out, d.Layer.Bias)
	}
	return out, tm, nil
}

// ConvertLinear is the one-call LUT-NN conversion for a standalone linear
// layer: clustering-based codebooks plus optional reconstruction-loss
// calibration refinement.
func ConvertLinear(w, bias, calibActs *tensor.Tensor, p lutnn.Params, calibrate bool, seed int64) (*lutnn.Layer, error) {
	layer, err := lutnn.Convert(w, bias, calibActs, p, seed)
	if err != nil {
		return nil, err
	}
	if calibrate {
		refined := lutnn.CalibrateLayer(layer, w, []*tensor.Tensor{calibActs}, lutnn.CalibrationConfig{
			Beta: 1, LearningRate: 5e-3, Iterations: 200,
		})
		layer.Codebooks = refined
		if err := layer.RebuildTable(w); err != nil {
			return nil, err
		}
	}
	return layer, nil
}
