// Command pimdl-tune runs the PIM-DL auto-tuner (Algorithm 1) for one LUT
// operator shape and prints the chosen mapping parameters with the
// predicted and simulated timing decomposition.
//
// Usage:
//
//	pimdl-tune -platform upmem -n 32768 -h 1024 -f 4096 -v 4 -ct 16
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/autotuner"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/pim"
	"repro/internal/prof"
)

func platformByName(name string) (*pim.Platform, error) {
	switch name {
	case "upmem":
		return pim.UPMEM(), nil
	case "hbm-pim", "hbmpim":
		return pim.HBMPIM(), nil
	case "aim":
		return pim.AiM(), nil
	}
	return nil, fmt.Errorf("unknown platform %q (upmem, hbm-pim, aim)", name)
}

func main() {
	platName := flag.String("platform", "upmem", "target platform: upmem, hbm-pim, aim")
	platFile := flag.String("platform-file", "", "JSON platform description (see pim.LoadPlatform); overrides -platform")
	n := flag.Int("n", 32768, "index matrix rows (batch x seq)")
	h := flag.Int("h", 1024, "hidden (input feature) dim")
	f := flag.Int("f", 4096, "output feature dim")
	v := flag.Int("v", 4, "sub-vector length V")
	ct := flag.Int("ct", 16, "centroids per codebook CT")
	elem := flag.Int("elem", 0, "LUT element bytes (default: platform native)")
	maxDiv := flag.Int("maxdiv", 8, "divisor candidates per dimension")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot to this file after tuning (.prom/.txt for Prometheus text, anything else for JSON)")
	pprofDir := flag.String("pprof", "", "write cpu.pprof and heap.pprof into this directory (profiles the search)")
	flag.Parse()

	if *metricsPath != "" {
		if err := metrics.ValidateOutputPath(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "pimdl-tune: -metrics:", err)
			os.Exit(1)
		}
	}
	var stopProf func() error
	if *pprofDir != "" {
		var err error
		stopProf, err = prof.Start(*pprofDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimdl-tune:", err)
			os.Exit(1)
		}
	}

	var plat *pim.Platform
	var err error
	if *platFile != "" {
		f, ferr := os.Open(*platFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "pimdl-tune:", ferr)
			os.Exit(1)
		}
		plat, err = pim.LoadPlatform(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	} else {
		plat, err = platformByName(*platName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimdl-tune:", err)
		os.Exit(1)
	}
	if *h%*v != 0 {
		fmt.Fprintf(os.Stderr, "pimdl-tune: V=%d does not divide H=%d\n", *v, *h)
		os.Exit(1)
	}
	eb := *elem
	if eb == 0 {
		eb = plat.ElemBytes
	}
	w := pim.Workload{N: *n, CB: *h / *v, CT: *ct, F: *f, ElemBytes: eb}

	res, err := autotuner.Tune(plat, w, mapping.SpaceConfig{MaxDivisors: *maxDiv})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimdl-tune:", err)
		os.Exit(1)
	}

	fmt.Printf("Platform:  %s (%d PEs)\n", plat.Name, plat.NumPE)
	fmt.Printf("Workload:  N=%d CB=%d CT=%d F=%d (%dB elements)\n", w.N, w.CB, w.CT, w.F, w.ElemBytes)
	fmt.Printf("Scored:    %d legal mappings (the rest were pruned by their lower bound)\n\n", res.Evaluated)
	fmt.Printf("Best mapping: %v\n", res.Mapping)
	fmt.Printf("  PEs used:          %d\n", res.Mapping.PEs(w))
	fmt.Printf("  predicted total:   %.6g s\n", res.Predicted.Total())
	fmt.Printf("  simulated total:   %.6g s\n", res.Simulated.Total())
	fmt.Printf("  breakdown (sim):   index %.3g s | LUT send %.3g s | output %.3g s | kernel xfer %.3g s | reduce %.3g s\n",
		res.Simulated.HostIndex, res.Simulated.HostLUT, res.Simulated.HostOutput,
		res.Simulated.KernelXfer, res.Simulated.KernelRed)

	if stopProf != nil {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "pimdl-tune:", err)
			os.Exit(1)
		}
	}
	if *metricsPath != "" {
		if err := metrics.Default().WriteFile(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "pimdl-tune:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsPath)
	}
}
