package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail returns the highest percentile that still has at least 10
// samples beyond it, capped at capP, and the percentile it used. With
// fewer than 20 samples that would fall below the median, so the tail
// is then the median itself.
func tail(xs []float64, capP float64) (v, p float64) {
	p = 50
	if n := len(xs); n >= 20 {
		p = math.Min(capP, 100*(1-10/float64(n)))
	}
	return percentile(xs, p), p
}

// cycleSeconds is the time one round of a cyclic phase takes when
// every slot runs at its median latency; lat[i] belongs to slot i%round.
// Rates and the median latency of a phase that cycles through unequal
// inputs are derived from it, so a stall in one operation, or a pooled
// median that falls between two modes, cannot move them.
func cycleSeconds(lat []float64, round int) float64 {
	var total float64
	for k := 0; k < round; k++ {
		var slot []float64
		for i := k; i < len(lat); i += round {
			slot = append(slot, lat[i])
		}
		total += median(slot)
	}
	return total
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how
// the driver measures a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// ratio is a/b, or 0 when b is not positive (a rate over no time).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
