// Package determinism exercises the determinism analyzer: wall-clock
// reads, the global math/rand source, and map-order-dependent
// accumulation.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want: time.Now
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want: time.Since
}

func globalRand() int {
	return rand.Intn(10) // want: global math/rand
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want: global math/rand
}

func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

func mapSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want: float accumulation
	}
	return sum
}

func mapCollect(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want: map-order-dependent slice
	}
	return out
}

// mapKeyed writes keyed by the ranged key: order-independent.
func mapKeyed(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// intSum is exact integer addition: order-independent.
func intSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// sortedSum collects keys and sorts before accumulating — the
// sanctioned idiom.
func sortedSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

func suppressed() time.Time {
	//pimdl:lint-ignore determinism log timestamp only, never enters the model
	return time.Now()
}

// mapDraw draws from a shared seeded stream in map order: which key gets
// which value changes from run to run.
func mapDraw(m map[string]int, rng *rand.Rand) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k := range m {
		out[k] = rng.Float64() // want: draw from "rng" inside a map range
	}
	return out
}

func subsample(rng *rand.Rand, n int) int { return rng.Intn(n) }

// mapDrawCallee hands the shared stream to a callee inside the range.
func mapDrawCallee(m map[string]int, rng *rand.Rand) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = subsample(rng, v) // want: draw from "rng" inside a map range
	}
	return out
}

// mapLocalRand seeds a generator per key inside the loop: each key's
// draws are independent of the visiting order.
func mapLocalRand(m map[string]int64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, seed := range m {
		r := rand.New(rand.NewSource(seed))
		out[k] = r.Float64()
	}
	return out
}

// sortedDraw draws in sorted-key order — the sanctioned idiom.
func sortedDraw(m map[string]int, rng *rand.Rand) map[string]float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]float64, len(m))
	for _, k := range keys {
		out[k] = rng.Float64()
	}
	return out
}

type sampler struct{ rng *rand.Rand }

// fieldDraw reaches the shared stream through a struct field.
func (s *sampler) fieldDraw(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = s.rng.Intn(v) // want: draw from "s.rng" inside a map range
	}
	return out
}
