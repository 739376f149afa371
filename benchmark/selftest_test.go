package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinyScale runs every workload on toy shapes in a fraction of a second.
var tinyScale = scale{seconds: 0.05, setups: 1, tiny: true}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestMatchesTables(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the tables in metrics.go; regenerate it with go run ./benchmark -manifest")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if _, ok := findMetric(endToEnd, d.Moves); !ok && d.Moves != "reference" {
			t.Errorf("per-layer metric %s moves %q, which is not an end-to-end metric", d.Name, d.Moves)
		}
		for _, on := range strings.Fields(d.On) {
			if on != "all" && !isWorkload(on) {
				t.Errorf("per-layer metric %s is measured on unknown workload %q", d.Name, on)
			}
		}
	}
}

func TestWorkloadsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var log bytes.Buffer
			run := func(traced bool) *record {
				rec, err := runWorkload(w.Name, 7, tinyScale, traced, &printer{w: &log})
				if err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, log.String())
				}
				if rec.Failed != 0 || !rec.Correct || rec.Attempted < 1 {
					t.Fatalf("traced=%v: %d of %d operations failed\n%s", traced, rec.Failed, rec.Attempted, log.String())
				}
				return rec
			}
			a, b, traced := run(false), run(false), run(true)

			// Every listed name exactly once with its unit, nothing unlisted.
			for _, pass := range []struct {
				rec  *record
				defs []metricDef
			}{{a, endToEnd}, {traced, perLayer}} {
				if len(pass.rec.Metrics) != len(pass.defs) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(pass.rec.Metrics), len(pass.defs))
				}
				for _, d := range pass.defs {
					v, ok := pass.rec.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) {
						t.Errorf("metric %s: reported %+v (present %v)", d.Name, v, ok)
					}
				}
			}
			for _, d := range endToEnd {
				if a.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}
			for _, d := range perLayer {
				on := d.On == "all" || strings.Contains(" "+d.On+" ", " "+w.Name+" ")
				if on != traced.measured[d.Name] {
					t.Errorf("per-layer metric %s: measured %v, metrics.go says %v on this workload", d.Name, traced.measured[d.Name], on)
				}
			}
			if e := traced.Metrics["nn.seg_sum_err"].Value; e >= 0.01 {
				t.Errorf("segments do not tile the forward: nn.seg_sum_err %g", e)
			}

			// One seed, two runs: identical outputs and pinned values.
			if a.OutputHash != b.OutputHash {
				t.Errorf("output_hash differs between two runs of one seed: %s vs %s", a.OutputHash, b.OutputHash)
			}
			if len(a.Exact) == 0 {
				t.Error("no pinned values")
			}
			for name, v := range a.Exact {
				if u, ok := b.Exact[name]; !ok || math.Float64bits(u) != math.Float64bits(v) {
					t.Errorf("pinned value %s differs between two runs of one seed: %v vs %v", name, v, u)
				}
			}
			if code := compareRecords([]record{*a, *a, *a}, []record{*a, *a, *a}, &printer{w: &log}); code != 0 {
				t.Errorf("a set of runs does not compare equal to itself\n%s", log.String())
			}
		})
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	mk := func(work float64, failed int) record {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.Name] = value{1, d.Unit}
		}
		m["work_per_s"] = value{work, "1/s"}
		return record{Workload: "serve", Seed: 1, Attempted: 10, Failed: failed, Metrics: m, OutputHash: "x"}
	}
	var log bytes.Buffer
	out := &printer{w: &log}
	base := []record{mk(100, 0), mk(101, 0), mk(99, 0)}
	if compareRecords(base, []record{mk(98, 0), mk(99, 0), mk(97, 0)}, out) != 0 {
		t.Errorf("a 2%% dip inside the bound was flagged\n%s", log.String())
	}
	if compareRecords(base, []record{mk(60, 0), mk(61, 0), mk(59, 0)}, out) != 1 {
		t.Errorf("a 40%% throughput regression was not flagged\n%s", log.String())
	}
	if compareRecords(base, []record{mk(100, 1), mk(101, 0), mk(99, 0)}, out) != 1 {
		t.Errorf("a higher fail_frac was not flagged\n%s", log.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; want 3.5, 31", q1, q3)
	}
}
