package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Parent is the index of the enclosing span (-1 for
// a root), Op the operation the span belongs to, Count the work the
// call handled (rows, requests, mappings).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Count  float64 `json:"count,omitempty"`
}

// spanRec keeps the traced pass's spans in memory until exit.
type spanRec struct {
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// add records a finished span and returns its index.
func (r *spanRec) add(name string, parent, op int, start, end time.Time, count float64) int {
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0).Seconds(),
		End: end.Sub(r.t0).Seconds(), Parent: parent, Op: op, Count: count})
	return len(r.spans) - 1
}

// begin opens a span that close ends; spans recorded in between name
// it as their parent.
func (r *spanRec) begin(name string, parent, op int) int {
	now := time.Now()
	return r.add(name, parent, op, now, now, 0)
}

func (r *spanRec) close(id int) { r.spans[id].End = time.Since(r.t0).Seconds() }

// call times fn as one span and returns its duration in seconds.
func (r *spanRec) call(name string, parent, op int, count float64, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, parent, op, start, end, count)
	return end.Sub(start).Seconds()
}

// replayReps is how often a kernel replay repeats inside its span; the
// median is reported.
const replayReps = 7

// replay runs fn replayReps times, each as one span, and returns the
// median duration.
func (r *spanRec) replay(name string, parent, op int, count float64, fn func()) float64 {
	secs := make([]float64, replayReps)
	for i := range secs {
		secs[i] = r.call(name, parent, op, count, fn)
	}
	return median(secs)
}

// selfSeconds returns, per span name, the summed duration minus the
// part covered by child spans.
func (r *spanRec) selfSeconds() map[string]float64 {
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// write stores the spans and their per-name self time as JSON; an empty
// path keeps them in memory only.
func (r *spanRec) write(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Self  map[string]float64 `json:"self_seconds"`
		Spans []span             `json:"spans"`
	}{r.selfSeconds(), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
