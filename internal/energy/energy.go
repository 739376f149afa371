// Package energy estimates end-to-end inference energy the way the paper
// measures it (§6.3): host package+DRAM power from RAPL-style busy/idle
// figures, and PIM module power as the static draw reported by dpu-diag
// (13.92 W/DIMM — PIM-DIMMs do not use DVFS, so static ≈ dynamic).
package energy

import (
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/pim"
)

// Estimate returns joules for one engine report. For host-only
// configurations pass platform = nil.
func Estimate(rep *engine.Report, host *baseline.Device, platform *pim.Platform) float64 {
	total := rep.Total()
	if platform == nil {
		return host.PowerWatts * total
	}
	// Host draws busy power while it runs its operators and idle power
	// while the PIM array works; the PIM modules draw their (static)
	// power for the whole window.
	hostE := host.PowerWatts*rep.HostTime + host.IdleWatts*(total-rep.HostTime)
	pimE := platform.PowerWatts * total
	return hostE + pimE
}
