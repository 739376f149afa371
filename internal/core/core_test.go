package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/lutnn"
	"repro/internal/nn"
	"repro/internal/serial"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func TestConvertLinearAndDeployRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows, h, f = 64, 32, 48
	acts := tensor.RandN(rng, 1, rows, h)
	w := tensor.RandN(rng, 1, f, h)
	bias := tensor.RandN(rng, 1, f)

	layer, err := ConvertLinear(w, bias, acts, lutnn.Params{V: 4, CT: 8}, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewUPMEMSystem()
	sys.LUTElemBytes = 4 // FP32 path for exact comparison
	dep, err := sys.Deploy(layer, rows)
	if err != nil {
		t.Fatal(err)
	}
	out, timing, err := dep.Run(acts)
	if err != nil {
		t.Fatal(err)
	}
	// The deployed run must equal the host reference forward exactly.
	want := layer.Forward(acts)
	if tensor.MaxAbsDiff(out, want) > 1e-5 {
		t.Fatalf("deployed output diverges by %g", tensor.MaxAbsDiff(out, want))
	}
	if timing.Total() <= 0 {
		t.Fatal("non-positive timing")
	}
}

func TestDeployInt8Path(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rows, h, f = 32, 16, 24
	acts := tensor.RandN(rng, 1, rows, h)
	w := tensor.RandN(rng, 1, f, h)
	layer, err := ConvertLinear(w, nil, acts, lutnn.Params{V: 2, CT: 8}, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewUPMEMSystem() // LUTElemBytes = 1 → INT8 path
	dep, err := sys.Deploy(layer, rows)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := dep.Run(acts)
	if err != nil {
		t.Fatal(err)
	}
	if layer.QTable == nil {
		t.Fatal("INT8 deployment should quantize the table")
	}
	idx := layer.Codebooks.Search(acts)
	want := layer.QTable.Lookup(idx, rows)
	if !tensor.Equal(out, want) {
		t.Fatal("INT8 deployment diverges from quantized reference")
	}
}

func TestDeployRejectsWrongRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	acts := tensor.RandN(rng, 1, 32, 16)
	w := tensor.RandN(rng, 1, 8, 16)
	layer, err := ConvertLinear(w, nil, acts, lutnn.Params{V: 2, CT: 4}, false, 6)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewUPMEMSystem()
	dep, err := sys.Deploy(layer, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dep.Run(tensor.RandN(rng, 1, 16, 16)); err == nil {
		t.Fatal("mismatched row count accepted")
	}
}

func TestCalibratedConversionNoWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows, h, f = 128, 16, 24
	acts := tensor.RandN(rng, 1, rows, h)
	w := tensor.RandN(rng, 1, f, h)
	plain, err := ConvertLinear(w, nil, acts, lutnn.Params{V: 4, CT: 8}, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := ConvertLinear(w, nil, acts, lutnn.Params{V: 4, CT: 8}, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	exact := lutnn.ForwardExact(acts, w, nil)
	ePlain := tensor.RelativeError(plain.Forward(acts), exact)
	eCalib := tensor.RelativeError(calib.Forward(acts), exact)
	if eCalib > ePlain*1.05 {
		t.Fatalf("calibration made the layer worse: %g vs %g", eCalib, ePlain)
	}
}

func TestSystemEstimates(t *testing.T) {
	for _, sys := range []*System{NewUPMEMSystem()} {
		model := nn.BERTBase
		model.Layers = 1
		model.SeqLen = 128
		dl, err := sys.Estimate(model, 4, lutnn.Params{V: 4, CT: 16})
		if err != nil {
			t.Fatalf("%s: %v", sys.Platform.Name, err)
		}
		gm, err := sys.EstimateGEMMBaseline(model, 4)
		if err != nil {
			t.Fatalf("%s: %v", sys.Platform.Name, err)
		}
		if dl.Total() <= 0 || gm.Total() <= dl.Total() {
			t.Fatalf("%s: PIM-DL (%g) should beat PIM-GEMM (%g)", sys.Platform.Name, dl.Total(), gm.Total())
		}
	}
}

func TestFullPipelineIntegration(t *testing.T) {
	// The whole release workflow: train a model, calibrate it with
	// eLUT-NN, serialize every converted layer, reload into a fresh model
	// skeleton, and check the reloaded model is bit-identical — then
	// deploy one reloaded layer on the simulated platform and check the
	// distributed execution against the host reference.
	if testing.Short() {
		t.Skip("trains a model")
	}
	cfg := nn.Tiny(nn.TokenInput, 8, 2)
	m := nn.NewModel(cfg, 99)
	task := workload.NewTask(workload.MarkerTask, cfg, 100)
	train := task.Batches(8, 8, 0)
	test := task.Batches(4, 8, 1)
	m.Train(train, nn.TrainConfig{LearningRate: 3e-3, Epochs: 10, ClipNorm: 1})
	if err := m.CalibrateELUT(train, nn.ConvertConfig{
		Params: lutnn.Params{V: 4, CT: 8}, Seed: 101,
		Beta: 0.01, LearningRate: 3e-4, Iterations: 50,
	}); err != nil {
		t.Fatal(err)
	}
	m.SetBackend(nn.BackendLUT)
	want := m.Infer(test[0], nil)

	// Serialize every converted layer into one stream.
	var buf bytes.Buffer
	enc := serial.NewEncoder(&buf)
	for _, blk := range m.Blocks {
		for _, r := range nn.Roles {
			if err := enc.Layer(blk.Linear(r).LUT); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	// Reload into the same model skeleton (weights irrelevant under the
	// LUT backend).
	dec := serial.NewDecoder(&buf)
	for _, blk := range m.Blocks {
		for _, r := range nn.Roles {
			ly, err := dec.Layer()
			if err != nil {
				t.Fatal(err)
			}
			blk.Linear(r).LUT = ly
		}
	}
	got := m.Infer(test[0], nil)
	if !tensor.Equal(got, want) {
		t.Fatal("reloaded model diverges from original")
	}

	// Deploy the first QKV layer on the simulated UPMEM array.
	layer := m.Blocks[0].QKV.LUT
	rows := 32
	sys := NewUPMEMSystem()
	sys.LUTElemBytes = 4
	dep, err := sys.Deploy(layer, rows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(102))
	acts := tensor.RandN(rng, 1, rows, cfg.Hidden)
	out, _, err := dep.Run(acts)
	if err != nil {
		t.Fatal(err)
	}
	hostRef := layer.Forward(acts)
	if tensor.MaxAbsDiff(out, hostRef) > 1e-5 {
		t.Fatal("deployed reloaded layer diverges from host reference")
	}
}
