package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scale sizes a run. The command line runs at full scale; the selftest
// passes a tiny one as a function argument (never a flag).
type scale struct {
	seconds float64 // timed budget, split across the workload's phases
	setups  int     // set-up repetitions; setup_s is their median
	tiny    bool    // toy model shapes and request counts
}

// phase returns the wall budget of one of n equal timed phases.
func (s scale) phase(n int) time.Duration {
	return time.Duration(s.seconds / float64(n) * float64(time.Second))
}

// warmups is the number of untimed operations before each timed phase.
const warmups = 5

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what -out appends per run: the driver's line plus what
// -compare and a human need to tell two commits apart.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]value   `json:"metrics"`
	OutputHash string             `json:"output_hash"`
	Exact      map[string]float64 `json:"exact"` // values that must repeat bit for bit for a seed

	measured map[string]bool // metrics the pass measured, as opposed to reported as 0
}

// driverLine is the object the contract wants as the last stdout line.
func (r *record) driverLine() any {
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func appendRecord(path string, r *record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// printer latches the first write error, so the report's many lines
// need one check at the end instead of one each.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// bench is the state of one workload run: the operation tally, the
// metrics emitted so far, the output hash and (traced pass) the spans.
type bench struct {
	workload string
	seed     int64
	sc       scale
	traced   bool
	out      *printer

	attempted, failed int
	vals              map[string]float64
	notes             map[string]string
	exact             map[string]float64
	hash              hash.Hash64
	spans             *spanRec
	rssMB             float64 // largest resident set sampled so far
}

// sampleRSS collects, returns freed pages to the OS and samples the
// resident set. rss_mb is the largest sample: what the workload keeps
// resident (models, tables, caches, arrivals), not the garbage that
// happened to be uncollected at the high-water mark, which on a heap of
// a few MB moves VmHWM by a quarter from run to run.
func (b *bench) sampleRSS() {
	debug.FreeOSMemory()
	b.rssMB = math.Max(b.rssMB, procStatusMB("VmRSS"))
}

// check counts one output check; a false ok is a failed operation.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.out.printf("FAIL %s: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
}

// safely runs one operation of the program under test, turning a panic
// into the error that fails the operation.
func safely(op func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return op()
}

// do runs and counts one untimed operation.
func (b *bench) do(what string, op func() error) bool {
	err := safely(op)
	b.check(err == nil, "%s: %v", what, err)
	return err == nil
}

// timed runs whole rounds of round operations until d has elapsed (at
// least one round), timing every call. Operations that cycle through a
// set of inputs pass the set's size, so every run measures the same mix
// whatever its length. Each call counts as one attempted operation.
func (b *bench) timed(what string, d time.Duration, round int, op func(i int) error) (lat []float64) {
	b.sampleRSS() // every phase starts from a collected heap, whatever ran before it
	start := time.Now()
	for i := 0; i < round || i%round != 0 || time.Since(start) < d; i++ {
		t0 := time.Now()
		err := safely(func() error { return op(i) })
		dt := time.Since(t0).Seconds()
		b.check(err == nil, "%s op %d: %v", what, i, err)
		lat = append(lat, dt)
	}
	return lat
}

// emit records a metric value; note says how it was obtained (sample
// count, percentile used) and is printed beside it.
func (b *bench) emit(name string, v float64, note string) {
	if _, dup := b.vals[name]; dup {
		b.check(false, "metric %s emitted twice", name)
	}
	b.vals[name] = v
	b.notes[name] = note
}

// pin records a value that must repeat exactly for a seed (modelled
// seconds, accounting counts, accuracies) and folds it into the hash.
func (b *bench) pin(name string, v float64) {
	b.exact[name] = v
	b.hashFloats(v)
}

func (b *bench) hashFloats(vs ...float64) {
	for _, v := range vs {
		_, _ = b.hash.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) // hash.Hash.Write never returns an error
	}
}

func (b *bench) hashFloat32s(vs []float32) {
	for _, v := range vs {
		_, _ = b.hash.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v))) // hash.Hash.Write never returns an error
	}
}

func (b *bench) hashInts(vs []int) {
	for _, v := range vs {
		b.hashFloats(float64(v))
	}
}

// latency emits lat_p50_ms and lat_tail_ms from the primary
// operation's samples: the median per slot of the round, averaged over
// the slots, and the pooled tail.
func (b *bench) latency(samples []float64, round int) {
	b.emit("lat_p50_ms", 1e3*cycleSeconds(samples, round)/float64(round), fmt.Sprintf("p50 of %d samples, %d per round", len(samples), round))
	t, p := tail(samples, 95)
	b.emit("lat_tail_ms", 1e3*t, fmt.Sprintf("p%.4g of %d samples", p, len(samples)))
}

// setup runs build several times and reports the median as setup_s; the
// last repetition's state is the one the timed phases use. build
// includes its own warm-up operations.
func setup[T any](b *bench, build func() (T, error)) (T, error) {
	var st T
	var secs []float64
	reps := b.sc.setups
	if b.traced {
		reps = 1 // the traced pass does not report setup_s
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := safely(func() (e error) { st, e = build(); return e })
		if err != nil {
			b.check(false, "set-up: %v", err)
			return st, fmt.Errorf("%s set-up: %w", b.workload, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i+1 < reps {
			// Earlier repetitions exist only to steady setup_s; their
			// state must not count towards rss_mb.
			var zero T
			st = zero
			runtime.GC()
		}
	}
	if !b.traced {
		b.emit("setup_s", median(secs), fmt.Sprintf("median of %d set-ups", len(secs)))
	}
	return st, nil
}

// runWorkload runs one pass of one workload and assembles its record:
// every end-to-end metric (untraced) or every per-layer metric (traced,
// 0 for the layers the workload does not exercise).
func runWorkload(name string, seed int64, sc scale, traced bool, out *printer) (*record, error) {
	b := &bench{workload: name, seed: seed, sc: sc, traced: traced, out: out,
		vals: map[string]float64{}, notes: map[string]string{}, exact: map[string]float64{},
		hash: fnv.New64a()}
	if traced {
		b.spans = newSpanRec()
		hostRoofs(b)
	}
	for _, w := range workloads {
		if w.Name == name {
			if err := w.run(b); err != nil {
				return nil, err
			}
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		b.emit("trace.spans", float64(len(b.spans.spans)), "count")
		path := filepath.Join("benchmark", "out", name+".trace.json")
		if sc.tiny {
			path = "" // the selftest keeps its spans in memory
		}
		if err := b.spans.write(path); err != nil {
			return nil, err
		}
	} else {
		b.sampleRSS()
		b.emit("rss_mb", b.rssMB, fmt.Sprintf("largest VmRSS after a forced collection at each phase boundary; VmHWM %.1f MB", procStatusMB("VmHWM")))
	}

	rec := &record{Workload: name, Seed: seed, Seconds: sc.seconds, Traced: traced,
		Metrics: map[string]value{}, Exact: b.exact, measured: map[string]bool{}}
	for emitted := range b.vals {
		if _, ok := findMetric(defs, emitted); !ok {
			b.check(false, "metric %s is not listed in BENCHMARK.json for this pass", emitted)
		}
	}
	for _, d := range defs {
		v, ok := b.vals[d.Name]
		switch {
		case ok:
			rec.measured[d.Name] = true
			out.printf("%-30s %14.6g %-9s %-8s %s\n", d.Name, v, d.Unit, d.Clock, b.notes[d.Name])
		case traced:
			v = 0 // the layer is not exercised by this workload
		default:
			b.check(false, "end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.check(false, "metric %s is %v", d.Name, v)
			v = 0
		}
		rec.Metrics[d.Name] = value{v, d.Unit}
	}
	rec.Attempted, rec.Failed = b.attempted, b.failed
	rec.Correct = b.failed == 0
	rec.OutputHash = fmt.Sprintf("%016x", b.hash.Sum64())
	failFrac := float64(b.failed) / float64(max(b.attempted, 1))
	out.printf("fail_frac %g (%d failed of %d attempted)  output_hash %s\n", failFrac, b.failed, b.attempted, rec.OutputHash)
	keys := make([]string, 0, len(b.exact))
	for k := range b.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.printf("exact %-34s %.17g\n", k, b.exact[k])
	}
	return rec, out.err
}

// cpuSeconds returns the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusMB reads one kB field of /proc/self/status, in MB.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		var kb float64
		for _, line := range strings.Split(string(data), "\n") {
			if n, _ := fmt.Sscanf(line, field+": %f kB", &kb); n == 1 {
				return kb / 1024
			}
		}
	}
	// No procfs: fall back to what the Go runtime obtained from the OS.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
