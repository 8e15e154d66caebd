// Circuit breakers for per-node downstream calls. Breaker is a
// virtual-time breaker; the overload simulator keeps one per KV
// coordinator node and routes around the ones that are open, so a node
// that keeps refusing calls stops taking traffic within a few failures
// and is probed back into service once its cooldown expires.
package admission

import (
	"sync"
	"time"
)

// BreakerState is the classic three-state breaker lifecycle.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: calls flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls are refused until the cooldown expires.
	BreakerOpen
	// BreakerHalfOpen: one probe call is allowed through; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig configures a Breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive failures trip the breaker.
	// Default 5.
	Threshold int
	// Cooldown is how long, in virtual time, an open breaker refuses
	// calls before half-opening. Default 100ms.
	Cooldown time.Duration
}

func (c *BreakerConfig) fill() {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 100 * time.Millisecond
	}
}

// Breaker is a virtual-time circuit breaker. Safe for concurrent use;
// the deterministic simulators drive it from one goroutine.
type Breaker struct {
	mu      sync.Mutex
	cfg     BreakerConfig
	state   BreakerState
	fails   int
	until   time.Duration // open expiry (virtual)
	probing bool
	opens   int64
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg.fill()
	return &Breaker{cfg: cfg}
}

// Allow reports whether a call may proceed at virtual time now. An open
// breaker half-opens once its cooldown expires, admitting exactly one
// probe until Success or Failure settles it.
func (b *Breaker) Allow(now time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if now < b.until {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = false
		fallthrough
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// Success records a successful call: the breaker closes and strikes
// clear.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed (or timed-out) call at virtual time now. A
// half-open probe failure re-opens immediately; a closed breaker trips
// after Threshold consecutive failures.
func (b *Breaker) Failure(now time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.trip(now)
		return
	}
	b.fails++
	if b.state == BreakerClosed && b.fails >= b.cfg.Threshold {
		b.trip(now)
	}
}

func (b *Breaker) trip(now time.Duration) {
	b.state = BreakerOpen
	b.until = now + b.cfg.Cooldown
	b.fails = 0
	b.probing = false
	b.opens++
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has tripped.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
