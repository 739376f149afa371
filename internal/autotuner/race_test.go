package autotuner

import (
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/pim"
)

// TestTuneConcurrentCallersDeterministic calls the tuner from several
// goroutines at once. Tune is a pure function of its arguments — a serial
// search over call-local state, sharing nothing — so every call,
// concurrent or not, must return the same mapping and the same simulated
// time; under -race this also shows it reads the shared platform only.
func TestTuneConcurrentCallersDeterministic(t *testing.T) {
	p := pim.UPMEM()
	w := pim.Workload{N: 512, CB: 64, CT: 16, F: 512, ElemBytes: 1}
	cfg := mapping.SpaceConfig{MaxDivisors: 4}
	ref, err := Tune(p, w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Tune(p, w, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Mapping != ref.Mapping {
				t.Errorf("concurrent Tune picked %v, want %v", res.Mapping, ref.Mapping)
			}
			if res.Simulated.Total() != ref.Simulated.Total() {
				t.Errorf("concurrent Tune simulated %g, want %g",
					res.Simulated.Total(), ref.Simulated.Total())
			}
		}()
	}
	wg.Wait()
}
