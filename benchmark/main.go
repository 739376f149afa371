// Command benchmark is the repository's performance ledger: six
// workloads that each stress a different set of layers, a fixed set of
// end-to-end metrics every workload reports, and a traced pass that
// measures every layer from outside, by timing calls into the layers'
// exported functions. It changes no code outside this directory and
// claims no gain; it defines the names later changes are judged by.
//
//	go run ./benchmark -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-out file]
//	go run ./benchmark -compare a.ndjson b.ndjson
//	go run ./benchmark -manifest            # prints BENCHMARK.json
//
// One workload runs per OS process (-workload all re-executes this
// binary once per workload). The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. See
// README.md for the protocol and the metric tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	// Pinned first: the internal/parallel pool sizes itself from
	// GOMAXPROCS at first use.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	out := &printer{w: os.Stdout}
	code, err := run(os.Args[1:], out)
	if err == nil {
		err = out.err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// normalizeTrace lets -trace be given bare (the ISSUE's spelling) or
// with a 0/1 value (the driver's spelling): a bare flag becomes -trace=1.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i, a := range args {
		if a == "-trace" || a == "--trace" {
			if i+1 >= len(args) || (args[i+1] != "0" && args[i+1] != "1") {
				a = "-trace=1"
			}
		}
		out = append(out, a)
	}
	return out
}

// run returns the exit code: 0, 1 for a failed check or regression, 2
// for a usage error.
func run(args []string, out *printer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", runSeconds, "timed budget of one run, split across the workload's phases")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	outPath := fs.String("out", "", "append the run's result record to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: a.ndjson b.ndjson")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2, nil // the flag package has printed the error
	}
	switch {
	case *manifest:
		out.printf("%s", manifestJSON())
		return 0, nil
	case *compare:
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare takes two result files")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), out)
	case fs.NArg() > 0:
		return 2, fmt.Errorf("unexpected arguments %v", fs.Args())
	case *seconds <= 0 || (*trace != 0 && *trace != 1):
		return 2, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	case *workload == "all":
		return runAll(args)
	case !isWorkload(*workload):
		return 2, fmt.Errorf("-workload must be one of %s, or all", strings.Join(workloadNames(), ", "))
	}
	out.printf("benchmark: workload %s seed %d seconds %g trace %d GOMAXPROCS %d (of %d CPUs)\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	res, err := runWorkload(*workload, *seed, scale{seconds: *seconds, setups: 3}, *trace == 1, out)
	if err != nil {
		return 1, err
	}
	if *outPath != "" {
		if err := appendRecord(*outPath, res); err != nil {
			return 1, err
		}
	}
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		return 1, err
	}
	out.printf("%s\n", line)
	if res.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// runAll runs every workload in its own process, so no workload sees
// another's heap, caches or peak RSS. The children get the same
// arguments; a later -workload overrides the parent's -workload all.
func runAll(args []string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	code := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code, nil
}
