package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseLiveFlagsValidation: the -live* flag path must reject every
// out-of-range value at parse time — including the deadline/retry knobs
// routed through serving.Robustness.Validate — and must only build a
// live config when -live was given.
func TestParseLiveFlagsValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty means parse must succeed
	}{
		{"live-defaults", []string{"-live"}, ""},
		{"live-all-flags", []string{"-live", "-live-rate", "100", "-live-requests", "50",
			"-live-queue", "32", "-live-shed", "degrade",
			"-live-deadline", "0.5", "-live-retries", "1", "-live-backoff", "0.02",
			"-live-batch", "8", "-live-wait", "0.005", "-live-burst", "3",
			"-live-zipf", "1.4", "-live-breaker-window", "4"}, ""},
		{"live-chaos-with-plan", []string{"-live", "-live-chaos", "-fault-flip", "0.2"}, ""},
		{"live-breaker-off", []string{"-live", "-live-breaker-window", "0"}, ""},
		{"bad-shed", []string{"-live", "-live-shed", "panic"}, "-live-shed"},
		{"negative-rate", []string{"-live", "-live-rate", "-5"}, "-live-rate"},
		{"zero-requests", []string{"-live", "-live-requests", "0"}, "request count"},
		{"negative-deadline", []string{"-live", "-live-deadline", "-0.1"}, "Deadline"},
		{"negative-retries", []string{"-live", "-live-retries", "-1"}, "MaxRetries"},
		{"negative-backoff", []string{"-live", "-live-backoff", "-0.5"}, "Backoff"},
		{"zero-batch", []string{"-live", "-live-batch", "0"}, "MaxBatch"},
		{"zero-queue", []string{"-live", "-live-queue", "0"}, "QueueCap"},
		{"negative-burst", []string{"-live", "-live-burst", "-2"}, "burst factor"},
		{"zipf-at-one", []string{"-live", "-live-zipf", "1"}, "Zipf exponent"},
		{"bad-trip-ratio", []string{"-live", "-live-breaker-trip", "1.5"}, "TripRatio"},
		{"negative-cooldown", []string{"-live", "-live-breaker-cooldown", "-1"}, "Cooldown"},
		{"chaos-without-plan", []string{"-live", "-live-chaos"}, "-live-chaos needs a fault plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cfg, err := parseFlags(tc.args, &stderr)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%v) = %v", tc.args, err)
				}
				if cfg.live == nil {
					t.Fatalf("-live given but no live config: %+v", cfg)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseFlags(%v) accepted invalid flags: %+v", tc.args, cfg)
			}
			if !strings.Contains(err.Error()+stderr.String(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestLiveFlagsOffByDefault: without -live, the -live* knobs are inert
// and run takes the classic single-execution path.
func TestLiveFlagsOffByDefault(t *testing.T) {
	cfg, err := parseFlags([]string{"-live-rate", "100"}, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.live != nil {
		t.Fatalf("live config built without -live: %+v", cfg.live)
	}
}

// TestRunLiveEndToEnd drives the full -live CLI path on a small shape:
// tune, serve a saturating load with a mid-run fault storm, and report
// conserved accounting, breaker activity and the replay oracle. Two
// runs with the same flags print byte-identical output.
func TestRunLiveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a mapping space and runs a serving run twice")
	}
	tracePath := filepath.Join(t.TempDir(), "live.json")
	args := []string{"-n", "64", "-h", "32", "-f", "64", "-v", "4", "-ct", "8",
		"-live", "-live-requests", "600", "-live-deadline", "0.3",
		"-live-chaos", "-fault-dead", "0.1", "-fault-flip", "0.9", "-fault-seed", "7",
		"-live-trace", tracePath}
	runOnce := func() string {
		cfg, err := parseFlags(args, new(bytes.Buffer))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatalf("runLive: %v\n%s", err, out.String())
		}
		return out.String()
	}
	got := runOnce()
	if again := runOnce(); again != got {
		t.Fatalf("two identical -live runs printed different output:\n%s\n--- vs ---\n%s", got, again)
	}
	for _, want := range []string{
		"Live serving on UPMEM", "conservation checked", "breaker:",
		"Chaos: fault storm", "Replay oracle", "wrote live trace to " + tracePath,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("live run output missing %q:\n%s", want, got)
		}
	}

	// The exported trace is valid trace-event JSON whose accounting
	// footer is self-consistent with the printed conservation line.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]string
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if doc.OtherData["submitted"] != "600" {
		t.Fatalf("trace footer submitted = %q, want 600", doc.OtherData["submitted"])
	}
}
