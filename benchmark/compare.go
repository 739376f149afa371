package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// readRecords loads the records -out appended to path.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// side is one file's runs of one workload, end-to-end pass only.
type side struct {
	values   map[string][]float64 // metric -> one value per run
	failFrac float64
	bySeed   map[int64]record
}

func group(recs []record) map[string]*side {
	out := map[string]*side{}
	for _, r := range recs {
		if r.Traced {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}, bySeed: map[int64]record{}}
			out[r.Workload] = s
		}
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
		s.failFrac = math.Max(s.failFrac, float64(r.Failed)/float64(max(r.Attempted, 1)))
		s.bySeed[r.Seed] = r
	}
	return out
}

// worsened returns how far b's median is worse than a's, as a share of
// a's median (negative when b is better).
func worsened(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// runCompare applies the end-to-end bounds to two sets of runs, a the
// parent and b the change (or two sets of one commit, to check that the
// benchmark agrees with itself). Each workload x metric row is within,
// regressed or unresolved (a's spread is wider than the bound, and b is
// not better on every run). Records of one seed must also agree exactly
// on output_hash and every pinned value. It returns 1 on a regression,
// a higher fail_frac or an exact mismatch.
func runCompare(pathA, pathB string, out *printer) (int, error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return 2, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return 2, err
	}
	return compareRecords(ra, rb, out), nil
}

func compareRecords(ra, rb []record, out *printer) int {
	ga, gb := group(ra), group(rb)
	code := 0
	for _, w := range workloads {
		a, b := ga[w.Name], gb[w.Name]
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.values[d.Name], b.values[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			q1, q3 := quartiles(va)
			spread := (q3 - q1) / math.Abs(ma)
			worse := worsened(d, ma, mb)
			verdict := "within"
			switch {
			case worse > d.Bound && spread > d.Bound && d.Name != "setup_s":
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSED"
				code = 1
			case spread > d.Bound && d.Name != "setup_s" && !allBetter(d, va, vb):
				verdict = "unresolved"
			}
			out.printf("%-13s %-16s %-10s a %12.6g  b %12.6g  worse by %+7.2f%%  bound %4.1f%%  spread %5.2f%%  (%d vs %d runs)\n",
				w.Name, d.Name, verdict, ma, mb, 100*worse, 100*d.Bound, 100*spread, len(va), len(vb))
		}
		if b.failFrac > a.failFrac {
			out.printf("%-13s fail_frac        REGRESSED  a %g  b %g\n", w.Name, a.failFrac, b.failFrac)
			code = 1
		}
		seeds := make([]int64, 0, len(a.bySeed))
		for s := range a.bySeed {
			if _, ok := b.bySeed[s]; ok {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, s := range seeds {
			x, y := a.bySeed[s], b.bySeed[s]
			if x.OutputHash != y.OutputHash {
				out.printf("%-13s output_hash      MISMATCH   seed %d: %s vs %s\n", w.Name, s, x.OutputHash, y.OutputHash)
				code = 1
			}
			for name, v := range x.Exact {
				if u, ok := y.Exact[name]; ok && math.Float64bits(u) != math.Float64bits(v) {
					out.printf("%-13s %-16s MISMATCH   seed %d: %.17g vs %.17g\n", w.Name, name, s, v, u)
					code = 1
				}
			}
		}
	}
	return code
}
