package live

import (
	"fmt"
	"math/rand"
	"sort"
)

// Arrival is one scheduled request of the open-loop load: at virtual
// time At, a request of the given kind and row count is submitted.
type Arrival struct {
	At   float64
	Kind int
	Rows int
}

// RatePoint is one segment of a piecewise-constant rate schedule: from
// time From onward the base rate is Rate (req/s), until the next point.
type RatePoint struct {
	From float64
	Rate float64
}

// MMPP is a two-state Markov-modulated Poisson overlay: the process
// alternates between a calm state (base rate) and a burst state (base
// rate × BurstFactor), with exponentially distributed sojourn times.
type MMPP struct {
	// BurstFactor multiplies the base rate while bursting (> 0).
	BurstFactor float64
	// MeanCalm / MeanBurst are the mean sojourn seconds in each state.
	MeanCalm, MeanBurst float64
}

// ZipfMix draws each request's kind from a Zipf distribution over
// Kinds values — the skewed request mix of multi-model serving — and
// maps kinds to row counts (request shapes).
type ZipfMix struct {
	// S is the Zipf exponent (> 1; larger = more skew). 0 disables the
	// mix: every request is kind 0.
	S float64
	// Kinds is the number of distinct request kinds (≥ 1 when S > 0).
	Kinds int
	// Rows[i] is the activation-row count of kind i; nil means one row
	// per request regardless of kind.
	Rows []int
}

// LoadSpec describes an open-loop request stream. Exactly one of Rate
// or Schedule supplies the base rate.
type LoadSpec struct {
	// Rate is the constant base arrival rate (req/s); ignored when
	// Schedule is non-empty.
	Rate float64
	// Schedule is an optional piecewise-constant rate ramp (points
	// sorted by From, first From must be 0).
	Schedule []RatePoint
	// Burst is an optional MMPP overlay.
	Burst *MMPP
	// Mix is the request-kind distribution.
	Mix ZipfMix
	// Requests is the total number of arrivals to generate.
	Requests int
	// Seed drives all draws; the schedule is deterministic for a fixed
	// spec.
	Seed int64
}

// Validate checks the spec.
func (ls LoadSpec) Validate() error {
	if ls.Requests <= 0 {
		return fmt.Errorf("live: load spec needs a positive request count")
	}
	if len(ls.Schedule) == 0 {
		if ls.Rate <= 0 {
			return fmt.Errorf("live: load rate %g must be positive", ls.Rate)
		}
	} else {
		//pimdl:lint-ignore float-compare the schedule must begin at exactly t=0; any other literal is a config error
		if ls.Schedule[0].From != 0 {
			return fmt.Errorf("live: rate schedule must start at t=0, got %g", ls.Schedule[0].From)
		}
		for i, p := range ls.Schedule {
			if p.Rate <= 0 {
				return fmt.Errorf("live: rate schedule point %d has non-positive rate %g", i, p.Rate)
			}
			if i > 0 && p.From <= ls.Schedule[i-1].From {
				return fmt.Errorf("live: rate schedule not increasing at point %d", i)
			}
		}
	}
	if b := ls.Burst; b != nil {
		if b.BurstFactor <= 0 {
			return fmt.Errorf("live: MMPP burst factor %g must be positive", b.BurstFactor)
		}
		if b.MeanCalm <= 0 || b.MeanBurst <= 0 {
			return fmt.Errorf("live: MMPP sojourn means must be positive")
		}
	}
	//pimdl:lint-ignore float-compare zero-value S is the exact "no mix" sentinel, never a computed value
	if m := ls.Mix; m.S != 0 {
		if m.S <= 1 {
			return fmt.Errorf("live: Zipf exponent %g must be > 1", m.S)
		}
		if m.Kinds < 1 {
			return fmt.Errorf("live: Zipf mix needs at least one kind")
		}
		if m.Rows != nil && len(m.Rows) != m.Kinds {
			return fmt.Errorf("live: Zipf mix has %d kinds but %d row counts", m.Kinds, len(m.Rows))
		}
		for i, r := range m.Rows {
			if r <= 0 {
				return fmt.Errorf("live: kind %d has non-positive rows %d", i, r)
			}
		}
	}
	return nil
}

// rateAt returns the base rate at time t.
func (ls LoadSpec) rateAt(t float64) float64 {
	if len(ls.Schedule) == 0 {
		return ls.Rate
	}
	// Points are sorted by From; find the last segment starting <= t.
	i := sort.Search(len(ls.Schedule), func(i int) bool { return ls.Schedule[i].From > t }) - 1
	if i < 0 {
		i = 0
	}
	return ls.Schedule[i].Rate
}

// Generate produces the deterministic arrival schedule. Inter-arrivals
// are exponential at the instantaneous rate — base rate at t times the
// MMPP state factor — using the memorylessness of the exponential to
// restart the draw at every rate-change boundary (state switch or
// schedule segment), which samples the piecewise-constant intensity
// exactly.
func (ls LoadSpec) Generate() ([]Arrival, error) {
	if err := ls.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(ls.Seed))
	var zipf *rand.Zipf
	if ls.Mix.S > 0 && ls.Mix.Kinds > 1 {
		// rand.Zipf draws from [0, imax]; v=1 makes rank 0 the hottest.
		zipf = rand.NewZipf(rng, ls.Mix.S, 1, uint64(ls.Mix.Kinds-1))
	}

	out := make([]Arrival, 0, ls.Requests)
	t := 0.0
	burst := false
	nextSwitch := -1.0
	if ls.Burst != nil {
		nextSwitch = rng.ExpFloat64() * ls.Burst.MeanCalm
	}
	for len(out) < ls.Requests {
		rate := ls.rateAt(t)
		if burst {
			rate *= ls.Burst.BurstFactor
		}
		dt := rng.ExpFloat64() / rate
		// Restart the draw at the next rate boundary if we cross it.
		boundary := ls.nextBoundary(t, nextSwitch)
		if boundary >= 0 && t+dt > boundary {
			t = boundary
			//pimdl:lint-ignore float-compare nextBoundary returns nextSwitch itself when it wins; identity, bit-exact by construction
			if ls.Burst != nil && boundary == nextSwitch {
				burst = !burst
				mean := ls.Burst.MeanCalm
				if burst {
					mean = ls.Burst.MeanBurst
				}
				nextSwitch = boundary + rng.ExpFloat64()*mean
			}
			continue
		}
		t += dt
		kind := 0
		if zipf != nil {
			kind = int(zipf.Uint64())
		}
		rows := 1
		if ls.Mix.Rows != nil {
			rows = ls.Mix.Rows[kind]
		}
		out = append(out, Arrival{At: t, Kind: kind, Rows: rows})
	}
	return out, nil
}

// nextBoundary returns the earliest rate-change boundary strictly after
// t (MMPP state switch or schedule segment start), or -1 if none.
func (ls LoadSpec) nextBoundary(t, nextSwitch float64) float64 {
	b := -1.0
	if nextSwitch > t {
		b = nextSwitch
	}
	for _, p := range ls.Schedule {
		if p.From > t {
			if b < 0 || p.From < b {
				b = p.From
			}
			break
		}
	}
	return b
}
