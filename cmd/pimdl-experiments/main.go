// Command pimdl-experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	pimdl-experiments -exp fig10           # one experiment
//	pimdl-experiments -exp fig13,fig14     # several
//	pimdl-experiments -exp all             # everything
//	pimdl-experiments -exp table4 -quick   # reduced effort (for smoke tests)
//
// Experiment ids match the paper: fig3 fig4 table4 table5 fig10 fig11
// fig12 fig13 fig14 fig15, plus ablation. Performance is measured by the
// repository benchmark (go run ./benchmark; see benchmark/README.md), not
// here: the wall time printed after each experiment is informational.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id, comma-separated ids, or 'all' ("+strings.Join(experiments.Names(), ", ")+")")
	quick := flag.Bool("quick", false, "reduced-effort accuracy experiments")
	flag.Parse()

	var names []string
	if *exp == "all" {
		// fig14 and fig15 share one driver; drop the duplicate.
		for _, n := range experiments.Names() {
			if n != "fig15" {
				names = append(names, n)
			}
		}
	} else {
		names = strings.Split(*exp, ",")
	}

	for _, name := range names {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := experiments.Run(name, os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "pimdl-experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}
}
