// Package admission is the overload-defense layer for the serving paths:
// per-tenant token-bucket quotas with weighted-fair queueing at the
// admission edge, CoDel-style load shedding that drops on queue *sojourn
// time* rather than queue length (with priority tiers: the lowest tier
// sheds first), client-side retry budgets, virtual-deadline propagation
// through contexts, and per-coordinator circuit breakers that let the
// simulator route around a failing node.
//
// Everything here is driven by a caller-supplied virtual clock (a
// time.Duration from the run epoch), the same convention the netsim cost
// model and the perf KV family use, so an overload run is a pure function
// of its seed: the open-loop simulator (sim.go) produces bit-identical
// goodput trajectories run-to-run, which is what lets the E-OVL
// experiment and the perf baselines gate on them.
//
// Why retry budgets: under overload, naive client retries convert a
// transient latency excursion into a metastable failure — timeouts beget
// retries, retries raise offered load, which begets more timeouts — and
// the system stays collapsed even after the original trigger passes. A
// retry budget (retries may spend at most a fixed fraction of the credit
// deposited by fresh requests) caps the amplification factor at 1+ratio,
// so shedding plus budgets keeps goodput flat past saturation. DESIGN.md
// "Admission control and load shedding" walks the full argument.
package admission

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Typed admission failures. Callers use errors.Is to distinguish a cheap
// edge rejection (quota, full queue) from a sojourn-time shed.
var (
	// ErrQuotaExceeded: the tenant's token bucket is empty; the request
	// was rejected at the admission edge before queueing (cheapest shed).
	ErrQuotaExceeded = errors.New("admission: tenant quota exceeded")
	// ErrQueueFull: the bounded admission queue is at capacity.
	ErrQueueFull = errors.New("admission: queue full")
	// ErrShed: dropped by the CoDel controller on queue sojourn time.
	ErrShed = errors.New("admission: shed on queue sojourn")
)

// TokenBucket is a virtual-time token bucket. Safe for concurrent use.
// A nil bucket or a non-positive rate admits everything.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Duration
}

// NewTokenBucket builds a bucket refilled at rate tokens/sec with the
// given burst depth (<= 0 defaults to rate/4, minimum 1). The bucket
// starts full.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = rate / 4
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow withdraws cost tokens (<= 0 means 1) at virtual time now,
// reporting whether the bucket held enough. Time never runs backward; a
// stale now just skips the refill.
func (b *TokenBucket) Allow(now time.Duration, cost float64) bool {
	if b == nil || b.rate <= 0 {
		return true
	}
	if cost <= 0 {
		cost = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if now > b.last {
		b.tokens = math.Min(b.burst, b.tokens+b.rate*(now-b.last).Seconds())
		b.last = now
	}
	if b.tokens >= cost {
		b.tokens -= cost
		return true
	}
	return false
}

// TenantQuota configures one tenant at the admission edge.
type TenantQuota struct {
	// ID labels the tenant in metrics and traces.
	ID string
	// Weight is the tenant's weighted-fair-queueing share (default 1).
	Weight float64
	// Rate is the admission quota in requests/sec; <= 0 disables the
	// tenant's token bucket (no edge rejection).
	Rate float64
	// Burst is the bucket depth (default Rate/4, minimum 1).
	Burst float64
	// Priority is the shedding tier: when the CoDel controller must
	// drop, it drops from the lowest-priority tenant with queued work.
	Priority int
}

// QuotasFor splits totalRate into per-tenant admission quotas
// proportional to each tenant's weight, carrying priorities through —
// the standard way an experiment derives quotas from a measured
// saturation rate.
func QuotasFor(ids []string, weights []float64, priorities []int, totalRate float64) []TenantQuota {
	sum := 0.0
	for _, w := range weights {
		if w <= 0 {
			w = 1
		}
		sum += w
	}
	out := make([]TenantQuota, len(ids))
	for i, id := range ids {
		w := weights[i]
		if w <= 0 {
			w = 1
		}
		out[i] = TenantQuota{
			ID:       id,
			Weight:   w,
			Rate:     totalRate * w / sum,
			Priority: priorities[i],
		}
	}
	return out
}

// Request is one unit of admitted work. The queue orders requests by
// weighted-fair virtual finish time; Index is an opaque caller handle
// (the simulator keys its pending-operation table with it).
type Request struct {
	Tenant   int
	Priority int
	// Arrive is the request's virtual arrival time at the queue.
	Arrive time.Duration
	// Cost in quota tokens and WFQ service units (<= 0 means 1).
	Cost float64
	// Attempt is 1 for a fresh request, 2+ for retries.
	Attempt int
	// Index is an opaque caller handle carried through shed/serve.
	Index int64

	vfin float64 // WFQ virtual finish stamp, assigned by Offer
}

// Config configures a Controller.
type Config struct {
	// Tenants defines the quota, weight and shedding tier per tenant;
	// required (requests carry a tenant index into this slice).
	Tenants []TenantQuota
	// Target is the CoDel sojourn-time target: as long as queue delay
	// stays under it, nothing is shed. Default 5ms.
	Target time.Duration
	// Interval is the CoDel control interval: sojourn must stay above
	// Target for a full Interval before dropping starts, and successive
	// drops are paced by Interval/sqrt(dropCount). Default 100ms.
	Interval time.Duration
	// MaxQueue hard-caps the total queued requests across tenants
	// (the backstop behind the sojourn controller). Default 4096.
	MaxQueue int
}

// Controller is the admission edge: per-tenant token buckets, one
// weighted-fair queue per tenant, and a CoDel sojourn controller that
// sheds from the lowest priority tier. Safe for concurrent use; the
// deterministic simulators drive it from one goroutine with a virtual
// clock.
type Controller struct {
	mu      sync.Mutex
	cfg     Config
	buckets []*TokenBucket
	queues  [][]Request
	vtime   float64   // WFQ virtual time
	vfin    []float64 // per-tenant last assigned virtual finish
	queued  int

	// CoDel state (sojourn controller).
	firstAbove time.Duration // when sojourn may first trigger dropping; 0 = below target
	dropNext   time.Duration
	dropCount  int
	dropping   bool
}

// NewController builds a controller; see Config for defaults.
func NewController(cfg Config) *Controller {
	if len(cfg.Tenants) == 0 {
		panic("admission: Config.Tenants is required")
	}
	if cfg.Target <= 0 {
		cfg.Target = 5 * time.Millisecond
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4096
	}
	c := &Controller{
		cfg:     cfg,
		buckets: make([]*TokenBucket, len(cfg.Tenants)),
		queues:  make([][]Request, len(cfg.Tenants)),
		vfin:    make([]float64, len(cfg.Tenants)),
	}
	for i, t := range cfg.Tenants {
		if t.Rate > 0 {
			c.buckets[i] = NewTokenBucket(t.Rate, t.Burst)
		}
	}
	return c
}

// Offer presents a request at virtual time now. It returns nil when the
// request was queued, ErrQuotaExceeded when the tenant bucket rejected
// it, or ErrQueueFull when the bounded queue is at capacity.
func (c *Controller) Offer(now time.Duration, req Request) error {
	if req.Tenant < 0 || req.Tenant >= len(c.queues) {
		return fmt.Errorf("admission: unknown tenant %d", req.Tenant)
	}
	if req.Cost <= 0 {
		req.Cost = 1
	}
	req.Arrive = now
	req.Priority = c.cfg.Tenants[req.Tenant].Priority
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.buckets[req.Tenant].Allow(now, req.Cost) {
		return ErrQuotaExceeded
	}
	if c.queued >= c.cfg.MaxQueue {
		return ErrQueueFull
	}
	w := c.cfg.Tenants[req.Tenant].Weight
	if w <= 0 {
		w = 1
	}
	start := math.Max(c.vtime, c.vfin[req.Tenant])
	req.vfin = start + req.Cost/w
	c.vfin[req.Tenant] = req.vfin
	c.queues[req.Tenant] = append(c.queues[req.Tenant], req)
	c.queued++
	return nil
}

// Next dequeues the weighted-fair winner at virtual time now. Requests
// the CoDel controller sheds on the way (sojourn above Target for a full
// Interval, paced by the control law, pulled from the lowest priority
// tier) are returned in shed so the caller can account for them and
// consult its retry budget. ok is false when the queue is drained.
func (c *Controller) Next(now time.Duration) (req Request, shed []Request, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		t := c.minVfinTenant()
		if t < 0 {
			// Idle queue: the sojourn controller resets.
			c.firstAbove = 0
			c.dropping = false
			return Request{}, shed, false
		}
		head := c.queues[t][0]
		if c.codelDrop(now, now-head.Arrive) {
			victim := c.lowestPriorityTenant()
			shed = append(shed, c.popHead(victim))
			continue
		}
		c.vtime = head.vfin
		c.popHead(t)
		return head, shed, true
	}
}

// Depth returns the total queued request count.
func (c *Controller) Depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}

// minVfinTenant returns the tenant whose head request has the smallest
// virtual finish time, or -1 when every queue is empty. Ties break on
// the lower tenant index, keeping dequeue order deterministic.
func (c *Controller) minVfinTenant() int {
	best := -1
	var bestFin float64
	for t, q := range c.queues {
		if len(q) == 0 {
			continue
		}
		if best < 0 || q[0].vfin < bestFin {
			best, bestFin = t, q[0].vfin
		}
	}
	return best
}

// lowestPriorityTenant picks the shedding victim: the non-empty queue in
// the lowest priority tier; within the tier, the one whose head has
// waited longest (the request most likely past usefulness anyway).
func (c *Controller) lowestPriorityTenant() int {
	type cand struct {
		tenant, prio int
		arrive       time.Duration
	}
	var cands []cand
	for t, q := range c.queues {
		if len(q) == 0 {
			continue
		}
		cands = append(cands, cand{t, c.cfg.Tenants[t].Priority, q[0].Arrive})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prio != cands[j].prio {
			return cands[i].prio < cands[j].prio
		}
		if cands[i].arrive != cands[j].arrive {
			return cands[i].arrive < cands[j].arrive
		}
		return cands[i].tenant < cands[j].tenant
	})
	return cands[0].tenant
}

func (c *Controller) popHead(t int) Request {
	req := c.queues[t][0]
	c.queues[t] = c.queues[t][1:]
	c.queued--
	return req
}

// codelDrop is the CoDel decision for a dequeue at virtual time now with
// the given head sojourn. Below target (or with a single queued request)
// the controller stays or returns to the quiescent state; above target
// for a full interval it enters dropping, pacing successive drops at
// Interval/sqrt(dropCount).
func (c *Controller) codelDrop(now, sojourn time.Duration) bool {
	if sojourn < c.cfg.Target || c.queued <= 1 {
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	if !c.dropping {
		if c.firstAbove == 0 {
			c.firstAbove = now + c.cfg.Interval
			return false
		}
		if now < c.firstAbove {
			return false
		}
		c.dropping = true
		c.dropCount = 1
		c.dropNext = c.controlLaw(now)
		return true
	}
	if now >= c.dropNext {
		c.dropCount++
		c.dropNext = c.controlLaw(c.dropNext)
		return true
	}
	return false
}

func (c *Controller) controlLaw(t time.Duration) time.Duration {
	return t + time.Duration(float64(c.cfg.Interval)/math.Sqrt(float64(c.dropCount)))
}
