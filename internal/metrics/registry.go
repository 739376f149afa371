package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind classifies a registered series for exposition.
type Kind int

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Sample is one exposed series value. Histograms expand into several
// samples (`<name>_count`, `<name>_sum`, `<name>_bucket{le="..."}` and
// quantile samples); families expand into one sample per label value.
type Sample struct {
	Name  string // series name, e.g. pimdl_pim_tiles_executed_total
	Label string // `phase="kernel_xfer"` or "" for unlabeled series
	Value float64
}

// Key returns the flattened series identity: name alone, or
// name{label} for labeled samples.
func (s Sample) Key() string {
	if s.Label == "" {
		return s.Name
	}
	return s.Name + "{" + s.Label + "}"
}

// entry is one registered metric (or family).
type entry struct {
	name, help string
	kind       Kind
	collect    func(emit func(Sample))
	jsonValue  func() any
}

// Registry holds a set of named metrics. All methods are safe for
// concurrent use; registration normally happens in package init blocks
// and reads happen at snapshot time.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every internal layer
// registers into.
func Default() *Registry { return defaultRegistry }

// register panics on duplicate names: two packages claiming one series
// is a programmer error that would silently merge unrelated numbers.
func (r *Registry) register(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		panic("metrics: duplicate registration of " + e.name)
	}
	r.entries[e.name] = e
}

// NewCounter registers and returns an integer counter. Panics if name is
// already registered.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&entry{
		name: name, help: help, kind: KindCounter,
		collect:   func(emit func(Sample)) { emit(Sample{Name: name, Value: float64(c.Value())}) },
		jsonValue: func() any { return c.Value() },
	})
	return c
}

// NewFloatCounter registers and returns a float64 counter. Panics if
// name is already registered.
func (r *Registry) NewFloatCounter(name, help string) *FloatCounter {
	c := &FloatCounter{}
	r.register(&entry{
		name: name, help: help, kind: KindCounter,
		collect:   func(emit func(Sample)) { emit(Sample{Name: name, Value: c.Value()}) },
		jsonValue: func() any { return c.Value() },
	})
	return c
}

// NewGauge registers and returns a gauge. Panics if name is already
// registered.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&entry{
		name: name, help: help, kind: KindGauge,
		collect:   func(emit func(Sample)) { emit(Sample{Name: name, Value: g.Value()}) },
		jsonValue: func() any { return g.Value() },
	})
	return g
}

// NewHistogram registers and returns a fixed-bucket histogram with the
// given strictly increasing upper bounds (an implicit +Inf bucket counts
// overflow). Panics if name is already registered or bounds are not
// strictly increasing.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram " + name + " bounds not strictly increasing")
		}
	}
	h := newHistogram(bounds)
	r.register(&entry{
		name: name, help: help, kind: KindHistogram,
		collect:   func(emit func(Sample)) { collectHistogram(name, h, emit) },
		jsonValue: func() any { return histogramJSON(h) },
	})
	return h
}

func collectHistogram(name string, h *Histogram, emit func(Sample)) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		emit(Sample{Name: name + "_bucket", Label: `le="` + formatFloat(b) + `"`, Value: float64(cum)})
	}
	cum += h.overflow.Load()
	emit(Sample{Name: name + "_bucket", Label: `le="+Inf"`, Value: float64(cum)})
	emit(Sample{Name: name + "_count", Value: float64(h.Count())})
	emit(Sample{Name: name + "_sum", Value: h.Sum()})
	for _, q := range [...]float64{0.5, 0.95, 0.99} {
		emit(Sample{Name: name, Label: `quantile="` + formatFloat(q) + `"`, Value: h.Quantile(q)})
	}
}

func histogramJSON(h *Histogram) any {
	buckets := map[string]int64{}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		buckets[formatFloat(b)] = cum
	}
	cum += h.overflow.Load()
	buckets["+Inf"] = cum
	doc := map[string]any{
		"count":   h.Count(),
		"sum":     h.Sum(),
		"min":     h.Min(),
		"max":     h.Max(),
		"buckets": buckets,
		"p50":     h.Quantile(0.5),
		"p95":     h.Quantile(0.95),
		"p99":     h.Quantile(0.99),
	}
	// Exemplars ride along only when some observation carried one, so
	// histograms outside the traced path encode exactly as before.
	if ex := h.Exemplars(); len(ex) > 0 {
		hexed := map[string]string{}
		for le, id := range ex {
			hexed[le] = fmt.Sprintf("%016x", id)
		}
		doc["exemplars"] = hexed
	}
	return doc
}

// CounterFamily is a set of Counters sharing one name, distinguished by
// a single label. Children are created on first use and live forever.
type CounterFamily struct {
	name, label string
	mu          sync.Mutex
	children    map[string]*Counter
}

// With returns the child counter for the given label value, creating it
// on first use. Callers on hot paths should cache the child.
func (f *CounterFamily) With(value string) *Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[value]
	if !ok {
		c = &Counter{}
		f.children[value] = c
	}
	return c
}

// NewCounterFamily registers a labeled counter family (one label key).
// Panics if name is already registered.
func (r *Registry) NewCounterFamily(name, help, label string) *CounterFamily {
	f := &CounterFamily{name: name, label: label, children: map[string]*Counter{}}
	r.register(&entry{
		name: name, help: help, kind: KindCounter,
		collect: func(emit func(Sample)) {
			f.mu.Lock()
			defer f.mu.Unlock()
			for _, v := range f.sortedValuesLocked() {
				emit(Sample{Name: name, Label: label + `="` + v + `"`, Value: float64(f.children[v].Value())})
			}
		},
		jsonValue: func() any {
			f.mu.Lock()
			defer f.mu.Unlock()
			out := map[string]int64{}
			for v, c := range f.children {
				out[v] = c.Value()
			}
			return out
		},
	})
	return f
}

func (f *CounterFamily) sortedValuesLocked() []string {
	vals := make([]string, 0, len(f.children))
	for v := range f.children {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// FloatCounterFamily is CounterFamily for float64 counters (seconds).
type FloatCounterFamily struct {
	name, label string
	mu          sync.Mutex
	children    map[string]*FloatCounter
}

// With returns the child for the given label value, creating it on
// first use. Callers on hot paths should cache the child.
func (f *FloatCounterFamily) With(value string) *FloatCounter {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[value]
	if !ok {
		c = &FloatCounter{}
		f.children[value] = c
	}
	return c
}

func (f *FloatCounterFamily) sortedValuesLocked() []string {
	vals := make([]string, 0, len(f.children))
	for v := range f.children {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// NewFloatCounterFamily registers a labeled float counter family.
// Panics if name is already registered.
func (r *Registry) NewFloatCounterFamily(name, help, label string) *FloatCounterFamily {
	f := &FloatCounterFamily{name: name, label: label, children: map[string]*FloatCounter{}}
	r.register(&entry{
		name: name, help: help, kind: KindCounter,
		collect: func(emit func(Sample)) {
			f.mu.Lock()
			defer f.mu.Unlock()
			for _, v := range f.sortedValuesLocked() {
				emit(Sample{Name: name, Label: label + `="` + v + `"`, Value: f.children[v].Value()})
			}
		},
		jsonValue: func() any {
			f.mu.Lock()
			defer f.mu.Unlock()
			out := map[string]float64{}
			for v, c := range f.children {
				out[v] = c.Value()
			}
			return out
		},
	})
	return f
}

// sortedEntries returns the registered entries in name order.
func (r *Registry) sortedEntries() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*entry, len(names))
	for i, n := range names {
		out[i] = r.entries[n]
	}
	return out
}

// Snapshot returns every sample, ordered by registered name (and, within
// a family, by label value) — deterministic for deterministic activity.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, e := range r.sortedEntries() {
		e.collect(func(s Sample) { out = append(out, s) })
	}
	return out
}

// Flatten returns the snapshot as a flat map from series key
// (name or name{label}) to value — the diffable form.
func (r *Registry) Flatten() map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.Snapshot() {
		out[s.Key()] = s.Value
	}
	return out
}

// WriteJSON writes the registry as one indented JSON object mapping
// series name to value — scalars for counters and gauges, per-label
// objects for families, and {count, sum, min, max, buckets, p50/p95/p99}
// objects for histograms. The document is expvar-compatible (each key is
// a valid expvar Var value) and key-sorted, so identical states encode
// byte-identically.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := map[string]any{}
	for _, e := range r.sortedEntries() {
		doc[e.name] = e.jsonValue()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (HELP/TYPE comments plus one line per sample).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, e := range r.sortedEntries() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, e.kind); err != nil {
			return err
		}
		var werr error
		e.collect(func(s Sample) {
			if werr != nil {
				return
			}
			if s.Label == "" {
				_, werr = fmt.Fprintf(w, "%s %s\n", s.Name, formatFloat(s.Value))
			} else {
				_, werr = fmt.Fprintf(w, "%s{%s} %s\n", s.Name, s.Label, formatFloat(s.Value))
			}
		})
		if werr != nil {
			return werr
		}
	}
	return nil
}

// WriteFile writes a snapshot of r to path, choosing the format by
// extension: ".prom" and ".txt" get Prometheus text, everything else the
// JSON exposition.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".prom", ".txt":
		err = r.WritePrometheus(f)
	default:
		err = r.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("metrics: writing %s: %w", path, err)
	}
	return nil
}

// ValidateOutputPath rejects -metrics targets that cannot receive a
// snapshot: a path that exists as a directory, or one whose parent
// directory does not exist. Commands call this at flag-parse time so a
// typo'd path fails before the run, not after it.
func ValidateOutputPath(path string) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return fmt.Errorf("metrics: %s is a directory", path)
	}
	dir := filepath.Dir(path)
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("metrics: parent directory %s does not exist", dir)
	}
	if !fi.IsDir() {
		return fmt.Errorf("metrics: parent %s is not a directory", dir)
	}
	return nil
}

// formatFloat renders a float the shortest way that round-trips —
// Prometheus-style sample formatting, also used for bucket labels.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
