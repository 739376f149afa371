package live

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BreakerState is the circuit breaker's position. The state machine is
// the classic three-state breaker (see DESIGN.md §12 for the transition
// diagram):
//
//	Closed ──(failure ratio ≥ TripRatio over window)──▶ Open
//	Open ──(Cooldown elapsed)──▶ HalfOpen
//	HalfOpen ──(probe ok)──▶ Closed   HalfOpen ──(probe fails)──▶ Open
type BreakerState int32

// The breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// Route is the breaker's dispatch decision for one batch attempt.
type Route int

// The routes: execute on the PIM backend, probe the PIM backend to test
// recovery, or divert to the host fallback.
const (
	RoutePIM Route = iota
	RouteProbe
	RouteHost
)

// BreakerConfig parameterizes the circuit breaker. The zero value
// disables it (every attempt routes to PIM).
type BreakerConfig struct {
	// Window is the sliding window of recent PIM attempt outcomes the
	// trip decision looks at; 0 disables the breaker.
	Window int
	// MinSamples is the minimum number of outcomes in the window before
	// the breaker may trip; 0 defaults to 1.
	MinSamples int
	// TripRatio is the failure fraction over the window at which the
	// breaker opens ((0, 1]).
	TripRatio float64
	// Cooldown is how long (virtual seconds) the breaker stays open
	// before letting one probe through.
	Cooldown float64
}

// Enabled reports whether the breaker does anything.
func (c BreakerConfig) Enabled() bool { return c.Window > 0 }

// Validate checks the breaker parameters.
func (c BreakerConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.Window < 1 {
		return fmt.Errorf("live: breaker Window must be positive")
	}
	if c.MinSamples < 0 || c.MinSamples > c.Window {
		return fmt.Errorf("live: breaker MinSamples %d outside [0, Window=%d]", c.MinSamples, c.Window)
	}
	if c.TripRatio <= 0 || c.TripRatio > 1 {
		return fmt.Errorf("live: breaker TripRatio %g outside (0,1]", c.TripRatio)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("live: breaker Cooldown must be non-negative")
	}
	return nil
}

// Breaker is the circuit breaker guarding the PIM backend. Route and
// Record are called by the dispatcher; State, Trips and Recoveries are
// safe to read from any goroutine.
type Breaker struct {
	cfg        BreakerConfig
	onChange   func(now float64, from, to BreakerState)
	state      atomic.Int32
	trips      atomic.Int64
	recoveries atomic.Int64

	mu       sync.Mutex
	window   []bool // ring buffer of outcomes (true = failure)
	idx, n   int
	fails    int
	openedAt float64
}

// NewBreaker builds a breaker; onChange (may be nil) observes every
// state transition and must not call back into the breaker.
func NewBreaker(cfg BreakerConfig, onChange func(now float64, from, to BreakerState)) (*Breaker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 1
	}
	b := &Breaker{cfg: cfg, onChange: onChange}
	if cfg.Enabled() {
		b.window = make([]bool, cfg.Window)
	}
	return b, nil
}

// State returns the current breaker position.
func (b *Breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// Trips returns how often the breaker has opened.
func (b *Breaker) Trips() int64 { return b.trips.Load() }

// Recoveries returns how often a half-open probe closed the breaker.
func (b *Breaker) Recoveries() int64 { return b.recoveries.Load() }

// Route decides where the next batch attempt runs. An open breaker
// whose cooldown has elapsed moves to half-open and admits the attempt
// as the probe.
func (b *Breaker) Route(now float64) Route {
	if !b.cfg.Enabled() {
		return RoutePIM
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed:
		return RoutePIM
	case BreakerOpen:
		if now-b.openedAt >= b.cfg.Cooldown {
			b.transition(now, BreakerHalfOpen)
			return RouteProbe
		}
		return RouteHost
	default: // half-open: the single dispatcher is the probe
		return RouteProbe
	}
}

// Record feeds one PIM attempt outcome into the trip decision. Host
// attempts are not recorded — the breaker judges only the backend it
// guards.
func (b *Breaker) Record(now float64, ok bool) {
	if !b.cfg.Enabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerHalfOpen:
		if ok {
			b.recoveries.Add(1)
			b.resetWindow()
			b.transition(now, BreakerClosed)
		} else {
			b.openedAt = now
			b.transition(now, BreakerOpen)
		}
	case BreakerClosed:
		b.push(!ok)
		if b.n >= b.cfg.MinSamples && float64(b.fails) >= b.cfg.TripRatio*float64(b.n) {
			b.trips.Add(1)
			b.openedAt = now
			b.resetWindow()
			b.transition(now, BreakerOpen)
		}
	default:
		// Open: PIM outcomes cannot occur (Route diverted them); ignore.
	}
}

// push adds one outcome to the ring buffer (mu held).
func (b *Breaker) push(failed bool) {
	if b.n == len(b.window) {
		if b.window[b.idx] {
			b.fails--
		}
	} else {
		b.n++
	}
	b.window[b.idx] = failed
	if failed {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.window)
}

// resetWindow clears the outcome history (mu held).
func (b *Breaker) resetWindow() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.n, b.fails = 0, 0, 0
}

// transition moves the state and notifies the observer (mu held).
func (b *Breaker) transition(now float64, to BreakerState) {
	from := BreakerState(b.state.Swap(int32(to)))
	if from != to && b.onChange != nil {
		b.onChange(now, from, to)
	}
}
