package energy

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/pim"
)

func TestHostOnlyEnergy(t *testing.T) {
	rep := &engine.Report{Ops: []engine.OpCost{{Time: 2}}, HostTime: 2}
	d := baseline.CPUServer()
	if got := Estimate(rep, d, nil); got != d.PowerWatts*2 {
		t.Fatalf("energy %g", got)
	}
}

func TestPIMEnergySplitsHostBusyIdle(t *testing.T) {
	rep := &engine.Report{
		Ops:      []engine.OpCost{{Time: 1}, {Time: 3}},
		HostTime: 1, PIMTime: 3,
	}
	h := baseline.UPMEMHost()
	p := pim.UPMEM()
	want := h.PowerWatts*1 + h.IdleWatts*3 + p.PowerWatts*4
	if got := Estimate(rep, h, p); got != want {
		t.Fatalf("energy %g, want %g", got, want)
	}
}
