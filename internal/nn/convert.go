package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/lutnn"
	"repro/internal/tensor"
)

// ConvertConfig controls LUT-NN conversion and eLUT-NN calibration.
type ConvertConfig struct {
	Params lutnn.Params
	Seed   int64
	// MaxClusterRows caps the activation rows fed to K-means per layer
	// (sampled uniformly). 0 means 4096.
	MaxClusterRows int

	// Calibration settings (eLUT-NN only).
	Beta         float64 // reconstruction-loss weight β (Eq. 1)
	LearningRate float64
	Iterations   int // calibration steps over the calibration batches
	TrainWeights bool
	// DisableSTE and DisableRecLoss turn off the two eLUT-NN techniques
	// individually for the ablation experiments.
	DisableSTE     bool
	DisableRecLoss bool
	// Progress, if non-nil, is called each calibration step with the loss.
	Progress func(step int, loss float64)
}

func (c *ConvertConfig) clusterRows() int {
	if c.MaxClusterRows <= 0 {
		return 4096
	}
	return c.MaxClusterRows
}

// CollectActivations runs inference over batches, recording each
// convertible linear layer's input activations, sampled down to maxRows.
func (m *Model) CollectActivations(batches []*Batch, maxRows int, seed int64) map[int]map[LinearRole]*tensor.Tensor {
	type key struct {
		layer int
		role  LinearRole
	}
	parts := map[key][]*tensor.Tensor{}
	for _, b := range batches {
		m.Infer(b, func(layer int, role LinearRole, acts *tensor.Tensor) {
			parts[key{layer, role}] = append(parts[key{layer, role}], acts.Clone())
		})
	}
	// One rng serves every layer, so the subsampling draws must follow a
	// fixed (layer, role) order, never map iteration order.
	rng := rand.New(rand.NewSource(seed))
	out := map[int]map[LinearRole]*tensor.Tensor{}
	for li := range m.Blocks {
		for _, r := range Roles {
			ps, ok := parts[key{li, r}]
			if !ok {
				continue
			}
			all := tensor.ConcatRows(ps...)
			if all.Dim(0) > maxRows {
				all = sampleRows(rng, all, maxRows)
			}
			if out[li] == nil {
				out[li] = map[LinearRole]*tensor.Tensor{}
			}
			out[li][r] = all
		}
	}
	return out
}

func sampleRows(rng *rand.Rand, t *tensor.Tensor, n int) *tensor.Tensor {
	total := t.Dim(0)
	perm := rng.Perm(total)[:n]
	out := tensor.New(n, t.Dim(1))
	for i, p := range perm {
		copy(out.Row(i), t.Row(p))
	}
	return out
}

// ConvertBaseline performs the *baseline* LUT-NN conversion (paper's
// comparison point in Tables 4–5): per-layer K-means codebooks from
// calibration activations, LUTs from the frozen weights, and **no**
// calibration training. With every linear layer replaced this collapses
// accuracy, which is exactly challenge C1.
func (m *Model) ConvertBaseline(batches []*Batch, cfg ConvertConfig) error {
	// Calibration activations must come from the exact model, so force
	// GEMM backends during collection and restore afterwards.
	saved := map[*Linear]Backend{}
	for _, blk := range m.Blocks {
		for _, r := range Roles {
			l := blk.Linear(r)
			saved[l] = l.Backend
			l.Backend = BackendGEMM
		}
	}
	acts := m.CollectActivations(batches, cfg.clusterRows(), cfg.Seed)
	for l, be := range saved {
		l.Backend = be
	}
	for li, blk := range m.Blocks {
		for _, r := range Roles {
			a, ok := acts[li][r]
			if !ok {
				return fmt.Errorf("nn: no activations captured for layer %d %v", li, r)
			}
			l := blk.Linear(r)
			layer, err := lutnn.Convert(l.W.T, l.B.T, a, cfg.Params, cfg.Seed+int64(li*7)+int64(r))
			if err != nil {
				return fmt.Errorf("nn: converting layer %d %v: %w", li, r, err)
			}
			l.LUT = layer
		}
	}
	return nil
}

// CalibrateELUT performs eLUT-NN conversion (paper §4.2): codebooks are
// initialized by clustering, then jointly calibrated with the model loss
// plus β-weighted per-layer reconstruction losses, using the straight-
// through estimator for gradient propagation. On return every convertible
// linear layer has a refreshed LUT and calibration state is detached.
func (m *Model) CalibrateELUT(batches []*Batch, cfg ConvertConfig) error {
	if err := m.ConvertBaseline(batches, cfg); err != nil {
		return err
	}
	// Attach trainable codebooks.
	for _, blk := range m.Blocks {
		for _, r := range Roles {
			l := blk.Linear(r)
			l.Calib = lutnn.NewTrainableCodebooks(l.LUT.Codebooks)
			l.Calib.NoSTE = cfg.DisableSTE
		}
	}
	params := m.CodebookParams()
	if cfg.TrainWeights {
		params = append(params, m.Params()...)
	}
	opt := autograd.NewAdam(cfg.LearningRate, params...)
	opt.ClipMax = 1.0

	for step := 0; step < cfg.Iterations; step++ {
		b := batches[step%len(batches)]
		opt.ZeroGrad()
		ce := autograd.CrossEntropyLogits(m.Forward(b), b.Labels)
		loss := ce
		if !cfg.DisableRecLoss {
			for _, blk := range m.Blocks {
				for _, r := range Roles {
					if rec := blk.Linear(r).Rec; rec != nil {
						loss = autograd.Add(loss, autograd.Scale(rec, float32(cfg.Beta)))
					}
				}
			}
		}
		loss.Backward()
		opt.Step()
		if cfg.Progress != nil {
			cfg.Progress(step, float64(loss.T.Data[0]))
		}
	}

	// Snapshot codebooks, rebuild tables against (possibly updated)
	// weights, and detach calibration state.
	for _, blk := range m.Blocks {
		for _, r := range Roles {
			l := blk.Linear(r)
			l.LUT.Codebooks = l.Calib.Snapshot()
			if err := l.LUT.RebuildTable(l.W.T); err != nil {
				return err
			}
			l.LUT.Bias = l.B.T
			l.Calib = nil
			l.Rec = nil
		}
	}
	return nil
}

// LUTFootprintBytes sums the model's table sizes at the given element
// width (4 = FP32, 1 = INT8).
func (m *Model) LUTFootprintBytes(bytesPerElem int) int {
	var total int
	for _, blk := range m.Blocks {
		for _, r := range Roles {
			if l := blk.Linear(r); l.LUT != nil {
				total += l.LUT.Table.SizeBytes(bytesPerElem)
			}
		}
	}
	return total
}
