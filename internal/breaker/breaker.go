// Package breaker implements the circuit breaker guarding each docstore
// shard and each shardnet connection: a shard that keeps failing is
// taken out of rotation (closed → open) instead of being retried on
// every request, and after a cooldown a single probe request is let
// through (half-open) to discover recovery without a thundering herd.
//
// The clock is injectable so tests drive the open → half-open
// transition without sleeping, and a state-change hook lets callers
// feed transitions into metrics (the breaker_open counter).
package breaker

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by Do when the breaker rejects the call without
// running it.
var ErrOpen = errors.New("breaker: open")

// State is the breaker's position in the closed → open → half-open
// cycle.
type State int32

const (
	// Closed passes every request through (the healthy state).
	Closed State = iota
	// Open rejects every request until the cooldown elapses.
	Open
	// HalfOpen lets exactly one probe through; its outcome decides
	// between Closed and another Open period.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Config tunes one breaker. Zero fields take defaults.
type Config struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker (default 3).
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe (default 1s).
	Cooldown time.Duration
	// Now is the clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// OnStateChange, when set, observes every transition.
	OnStateChange func(from, to State)
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a single circuit breaker, safe for concurrent use.
type Breaker struct {
	cfg Config

	mu       sync.Mutex
	state    State
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// New builds a closed breaker.
func New(cfg Config) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// transition moves to a new state and fires the hook. The hook runs
// with mu held, so implementations must be short and must not call
// back into the breaker (counter bumps only).
func (b *Breaker) transition(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from, to)
	}
}

// Allow reports whether a request may proceed. While open it flips to
// half-open once the cooldown has elapsed and admits exactly one probe;
// every Allow that returned true must be matched by Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.transition(HalfOpen)
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful request: it resets the failure streak
// and closes the breaker after a successful half-open probe.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state == HalfOpen {
		b.probing = false
		b.transition(Closed)
	}
}

// Failure records a failed request: it re-opens a half-open breaker
// immediately and trips a closed one once the consecutive-failure
// threshold is reached.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.probing = false
		b.openedAt = b.cfg.Now()
		b.transition(Open)
	case Closed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.openedAt = b.cfg.Now()
			b.transition(Open)
		}
	}
}

// State returns the current state (open breakers stay reported as open
// until an Allow actually starts the half-open probe).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Do runs fn under the breaker: ErrOpen without running it when the
// breaker rejects, otherwise fn's error after recording the outcome.
func (b *Breaker) Do(fn func() error) error {
	if !b.Allow() {
		return ErrOpen
	}
	if err := fn(); err != nil {
		b.Failure()
		return err
	}
	b.Success()
	return nil
}
