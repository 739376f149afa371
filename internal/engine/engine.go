// Package engine implements the PIM-DL inference engine of paper §4.3: it
// walks a transformer's operator graph (Fig. 6-b), places each operator on
// the host or the PIM modules, and produces end-to-end latency estimates
// with the LUT/CCS/Other breakdown of Fig. 11.
//
// Four execution configurations are modelled, matching the paper's
// comparison set:
//
//   - PIM-DL: linear layers as LUT-NN (CCS on host, LUT reduce on PIM with
//     auto-tuned mappings), attention on the host, elementwise on PIM.
//   - PIM-GEMM: linear layers as plain GEMM offloaded to the PIM array
//     (the paper's "GEMM-based inference on DRAM-PIMs" baseline).
//   - CPU / GPU: everything on the host device (GGML / PyTorch analogue).
package engine

import (
	"fmt"

	"repro/internal/autotuner"
	"repro/internal/baseline"
	"repro/internal/lutnn"
	"repro/internal/mapping"
	"repro/internal/nn"
	"repro/internal/pim"
)

// OpClass buckets operators the way Fig. 11-(a) does.
type OpClass int

const (
	ClassLUT   OpClass = iota // PIM-side table lookup/accumulate
	ClassCCS                  // host-side closest-centroid search
	ClassOther                // attention, elementwise, non-converted linears
)

// String returns the class label used in the paper's breakdown.
func (c OpClass) String() string {
	switch c {
	case ClassLUT:
		return "LUT"
	case ClassCCS:
		return "CCS"
	default:
		return "Other"
	}
}

// OpCost is one scheduled operator instance.
type OpCost struct {
	Name  string
	Class OpClass
	Layer int
	Role  nn.LinearRole // valid for linear-derived ops
	Time  float64
	OnPIM bool
	// PEs is the number of PEs the operator occupies while it runs
	// (PIM-side ops only; 0 for host ops). The trace exporter renders
	// PEs/ArrayPEs as the PE-utilization counter track.
	PEs int
	// Recovery carries the fault-tolerance activity of a degraded LUT
	// operator (EstimateDegraded only; nil otherwise).
	Recovery *pim.Recovery
	// Fallback marks a LUT operator that was irrecoverable on the faulty
	// array and ran as host GEMM instead.
	Fallback bool
}

// Report is the engine's end-to-end estimate for one configuration.
type Report struct {
	Config   string
	Ops      []OpCost
	Batch    int
	SeqLen   int
	HostTime float64 // total host-busy seconds
	PIMTime  float64 // total PIM-busy seconds
	// ArrayPEs is the size of the physical PE array the schedule ran
	// against (0 for host-only configurations).
	ArrayPEs int
}

// Total returns end-to-end latency (host and PIM serialized, as in the
// paper's offload execution model).
func (r *Report) Total() float64 {
	var t float64
	for _, op := range r.Ops {
		t += op.Time
	}
	return t
}

// ClassTime sums the time of one operator class.
func (r *Report) ClassTime(c OpClass) float64 {
	var t float64
	for _, op := range r.Ops {
		if op.Class == c {
			t += op.Time
		}
	}
	return t
}

// RoleTime sums CCS+LUT (or GEMM) time for one linear role across layers.
func (r *Report) RoleTime(role nn.LinearRole) float64 {
	var t float64
	for _, op := range r.Ops {
		if (op.Class == ClassLUT || op.Class == ClassCCS ||
			op.Name == "GEMM-"+role.String()) && op.Role == role {
			t += op.Time
		}
	}
	return t
}

// Throughput returns sequences/second.
func (r *Report) Throughput() float64 {
	return float64(r.Batch) / r.Total()
}

// Config describes one end-to-end estimation scenario.
type Config struct {
	Model  nn.Config
	Batch  int
	Params lutnn.Params // LUT-NN hyper-parameters (PIM-DL only)

	Platform *pim.Platform    // DRAM-PIM array (PIM-DL / PIM-GEMM)
	Host     *baseline.Device // host processor
	HostPrec baseline.Precision

	// LUTElemBytes is the table element width on the PIM side (1 on
	// UPMEM after INT8 quantization, 2 on HBM-PIM/AiM).
	LUTElemBytes int

	// Space bounds the auto-tuner's search.
	Space mapping.SpaceConfig
}

func (c Config) rows() int { return c.Batch * c.Model.SeqLen }

// tuneKey identifies one tuning problem: a workload shape on a platform,
// searched over one mapping space. The space is stored flattened so the
// key has no padding and the cache map hashes it as plain memory.
type tuneKey struct {
	platform      *pim.Platform
	workload      pim.Workload
	maxDivisors   int
	requireAllPEs int // 0 or 1
}

func newTuneKey(p *pim.Platform, w pim.Workload, cfg mapping.SpaceConfig) tuneKey {
	k := tuneKey{platform: p, workload: w, maxDivisors: cfg.MaxDivisors}
	if cfg.RequireAllPEs {
		k.requireAllPEs = 1
	}
	return k
}

// Engine caches tuned mappings per (platform, workload shape, search
// space) so a model is tuned once (the paper: ~1 s/model, reused across
// inference).
type Engine struct {
	cache map[tuneKey]*autotuner.Result
}

// New creates an engine with an empty mapping cache.
func New() *Engine {
	return &Engine{cache: map[tuneKey]*autotuner.Result{}}
}

// TunedMapping returns the auto-tuned mapping for w on p, caching results.
func (e *Engine) TunedMapping(p *pim.Platform, w pim.Workload, cfg mapping.SpaceConfig) (*autotuner.Result, error) {
	k := newTuneKey(p, w, cfg)
	if r, ok := e.cache[k]; ok {
		return r, nil
	}
	r, err := autotuner.Tune(p, w, cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: tuning %+v: %w", w, err)
	}
	e.cache[k] = r
	return r, nil
}

// otherOps appends the non-linear operators of one transformer block:
// attention on the host, and the elementwise set (2×LayerNorm, GELU,
// 2×residual) on whichever side the configuration placed them.
func (e *Engine) otherOps(cfg Config, layer int, onPIM bool) []OpCost {
	c := cfg.Model
	n := cfg.rows()
	att := cfg.Host.AttentionTime(cfg.Batch, c.SeqLen, c.Hidden, c.Heads, cfg.HostPrec)
	elems := 4*n*c.Hidden + n*c.FFN // LN+residual (H-wide) + GELU (FFN-wide)
	var elem float64
	var elemPEs int
	if onPIM && cfg.Platform != nil {
		elem = pim.ElementwiseOnPIM(cfg.Platform, elems)
		elemPEs = cfg.Platform.NumPE // elementwise stripes over the whole array
	} else {
		elem = cfg.Host.ElementwiseTime(elems)
	}
	return []OpCost{
		{Name: "Attention", Class: ClassOther, Layer: layer, Time: att},
		{Name: "Elementwise", Class: ClassOther, Layer: layer, Time: elem, OnPIM: onPIM, PEs: elemPEs},
	}
}

// EstimatePIMDL produces the PIM-DL report: per linear role, CCS on the
// host plus the LUT operator on the PIM array under its tuned mapping.
func (e *Engine) EstimatePIMDL(cfg Config) (*Report, error) {
	c := cfg.Model
	n := cfg.rows()
	rep := &Report{Config: "PIM-DL/" + cfg.Platform.Name, Batch: cfg.Batch, SeqLen: c.SeqLen,
		ArrayPEs: cfg.Platform.NumPE}
	for layer := 0; layer < c.Layers; layer++ {
		for _, role := range nn.Roles {
			f, h := c.LinearShape(role)
			if h%cfg.Params.V != 0 {
				return nil, fmt.Errorf("engine: V=%d does not divide %d (%v)", cfg.Params.V, h, role)
			}
			w := pim.Workload{N: n, CB: h / cfg.Params.V, CT: cfg.Params.CT, F: f, ElemBytes: cfg.LUTElemBytes}
			tuned, err := e.TunedMapping(cfg.Platform, w, cfg.Space)
			if err != nil {
				return nil, err
			}
			ccs := cfg.Host.CCSTime(n, h, cfg.Params.CT, cfg.HostPrec)
			// Steady-state serving keeps the tables resident in the PE
			// banks (they are written once at model-load time), so the
			// per-inference LUT operator excludes t_sub_lut.
			lutTime := tuned.Simulated.Total() - tuned.Simulated.HostLUT
			rep.Ops = append(rep.Ops,
				OpCost{Name: "CCS-" + role.String(), Class: ClassCCS, Layer: layer, Role: role, Time: ccs},
				OpCost{Name: "LUT-" + role.String(), Class: ClassLUT, Layer: layer, Role: role,
					Time: lutTime, OnPIM: true, PEs: tuned.Mapping.PEs(w)},
			)
			rep.HostTime += ccs
			rep.PIMTime += lutTime
		}
		others := e.otherOps(cfg, layer, true)
		rep.Ops = append(rep.Ops, others...)
		rep.HostTime += others[0].Time
		rep.PIMTime += others[1].Time
	}
	recordReport(rep)
	return rep, nil
}

// EstimatePIMGEMM produces the PIM-GEMM baseline report: linear layers as
// plain GEMM on the PIM array.
func (e *Engine) EstimatePIMGEMM(cfg Config) (*Report, error) {
	c := cfg.Model
	n := cfg.rows()
	rep := &Report{Config: "PIM-GEMM/" + cfg.Platform.Name, Batch: cfg.Batch, SeqLen: c.SeqLen,
		ArrayPEs: cfg.Platform.NumPE}
	for layer := 0; layer < c.Layers; layer++ {
		for _, role := range nn.Roles {
			f, h := c.LinearShape(role)
			gw := pim.GEMMWorkload{N: n, H: h, F: f, Batch: cfg.Batch, ElemBytes: cfg.Platform.ElemBytes}
			t := pim.GEMMOnPIM(cfg.Platform, gw).Total()
			rep.Ops = append(rep.Ops, OpCost{Name: "GEMM-" + role.String(), Class: ClassOther,
				Layer: layer, Role: role, Time: t, OnPIM: true, PEs: cfg.Platform.NumPE})
			rep.PIMTime += t
		}
		others := e.otherOps(cfg, layer, true)
		rep.Ops = append(rep.Ops, others...)
		rep.HostTime += others[0].Time
		rep.PIMTime += others[1].Time
	}
	recordReport(rep)
	return rep, nil
}

// EstimateHost produces the pure CPU/GPU report (all operators on the host
// device at the configured precision).
func (e *Engine) EstimateHost(cfg Config) *Report {
	c := cfg.Model
	n := cfg.rows()
	rep := &Report{Config: cfg.Host.Name + "/" + cfg.HostPrec.String(), Batch: cfg.Batch, SeqLen: c.SeqLen}
	for layer := 0; layer < c.Layers; layer++ {
		for _, role := range nn.Roles {
			f, h := c.LinearShape(role)
			t := cfg.Host.GEMMTime(n, h, f, cfg.HostPrec)
			rep.Ops = append(rep.Ops, OpCost{Name: "GEMM-" + role.String(), Class: ClassOther,
				Layer: layer, Role: role, Time: t})
			rep.HostTime += t
		}
		others := e.otherOps(cfg, layer, false)
		rep.Ops = append(rep.Ops, others...)
		rep.HostTime += others[0].Time + others[1].Time
	}
	recordReport(rep)
	return rep
}

// TableFootprintBytes returns the total LUT storage the model needs on
// the PIM side under cfg's parameters.
func TableFootprintBytes(cfg Config) int64 {
	var total int64
	for _, role := range nn.Roles {
		f, h := cfg.Model.LinearShape(role)
		total += int64(h/cfg.Params.V) * int64(cfg.Params.CT) * int64(f) * int64(cfg.LUTElemBytes)
	}
	return total * int64(cfg.Model.Layers)
}

// ValidateResidency checks that the model's tables fit in the platform's
// aggregate bank capacity with headroom for activations and outputs.
// Steady-state serving assumes resident tables (EstimatePIMDL amortizes
// the table upload), so an over-capacity model would silently violate
// that assumption without this check.
func ValidateResidency(cfg Config) error {
	tables := TableFootprintBytes(cfg)
	capacity := cfg.Platform.MRAMBytes * int64(cfg.Platform.NumPE)
	// Reserve 10% for per-PE index/output staging.
	budget := capacity * 9 / 10
	if tables > budget {
		return fmt.Errorf("engine: %s tables need %.2f GiB but %s offers %.2f GiB of bank capacity",
			cfg.Model.Name, float64(tables)/(1<<30), cfg.Platform.Name, float64(budget)/(1<<30))
	}
	return nil
}

// HostLinearTime returns the host GEMM time for one role (used by the
// layer-wise comparison in Fig. 11-b).
func HostLinearTime(cfg Config, role nn.LinearRole) float64 {
	f, h := cfg.Model.LinearShape(role)
	return cfg.Host.GEMMTime(cfg.rows(), h, f, cfg.HostPrec)
}
