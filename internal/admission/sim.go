// The open-loop overload simulator: the harness behind the E-OVL
// experiment, the kv perf family's overload segment and the root
// acceptance test. It drives a multi-tenant Poisson arrival trace
// (workload.ArrivalGen) against a serving function on a single logical
// capacity, with the full client-side defense stack in the loop —
// admission controller, retry budget, virtual-deadline propagation and
// per-node circuit breakers — or with the stack disabled (the control
// run), which is how the metastable-failure collapse is demonstrated.
//
// Open-loop matters: a closed-loop client backs off naturally when the
// server slows (each in-flight request gates the next), so it can never
// overload anything. Real million-client traffic does not back off —
// arrivals keep coming at the offered rate no matter how the server is
// doing — and that is the regime SProBench's sustained-throughput
// methodology targets. Everything is virtual time, so a run is a pure
// function of its SimConfig and seed.
package admission

import (
	"container/heap"
	"context"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ServeFunc executes one operation against coordinator node coord and
// returns the simulated service latency. The context carries the
// remaining virtual-time budget (see WithBudget); a deadline-aware
// implementation fails fast with its typed deadline error when the
// simulated cost would exceed the budget, returning only the latency it
// actually spent. The kvstore GetCtx/PutCtx quorum ops wrapped over a
// ring are the canonical implementation.
type ServeFunc func(ctx context.Context, op workload.Op, coord topology.NodeID) (time.Duration, error)

// SimConfig configures an overload run.
type SimConfig struct {
	// Tenants is the multi-tenant arrival mix (rates, weights,
	// priorities, YCSB read fractions). Required.
	Tenants []workload.TenantSpec
	// Duration is how long arrivals are generated (the run itself keeps
	// draining until queues and retries settle). Required.
	Duration time.Duration
	// Seed drives all randomness.
	Seed uint64
	// Serve executes admitted operations. Required.
	Serve ServeFunc
	// Nodes is how many coordinator nodes Serve round-robins over
	// (default 1). Each gets its own circuit breaker.
	Nodes int

	// Deadline is the end-to-end virtual budget per attempt; a request
	// completing later counts as a timeout, not goodput. Default 50ms.
	Deadline time.Duration
	// MaxAttempts caps total tries per logical request (default 3).
	MaxAttempts int
	// Backoff is the first retry delay, doubling per attempt. Default 5ms.
	Backoff time.Duration

	// Admission enables the defense stack: non-nil runs every arrival
	// through a Controller built from it; nil is the control run — an
	// unbounded FIFO with no quotas, no shedding and an unlimited retry
	// budget, i.e. the system as it stood before this subsystem.
	Admission *Config
	// RetryRatio > 0 enables a client retry budget with that deposit
	// ratio; <= 0 leaves retries unbudgeted.
	RetryRatio float64
	// Breaker configures the per-node circuit breakers (zero value =
	// defaults; breakers only matter when Serve can fail per-node).
	Breaker BreakerConfig

	// TickEvery fires the Tick hook each time virtual time crosses a
	// multiple of it (default 100ms) — the seam the chaos controller
	// ticks through, so burst/flood events land mid-run.
	TickEvery time.Duration
	// Tick receives the number of TickEvery boundaries crossed so far
	// (monotone), suitable for chaos.Controller.AdvanceTo.
	Tick func(step int64)

	// WindowWidth is the latency-trajectory window (default 250ms).
	WindowWidth time.Duration
}

func (c *SimConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Deadline <= 0 {
		c.Deadline = 50 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 5 * time.Millisecond
	}
	if c.TickEvery <= 0 {
		c.TickEvery = 100 * time.Millisecond
	}
	if c.WindowWidth <= 0 {
		c.WindowWidth = 250 * time.Millisecond
	}
}

// SimResult summarizes one overload run.
type SimResult struct {
	// Offered counts fresh (first-attempt) arrivals; Admitted counts
	// dequeues that reached Serve; Goodput counts logical requests that
	// completed successfully within their attempt deadline.
	Offered, Admitted, Goodput int64
	// Shed breakdown: quota = token-bucket edge rejections, queue =
	// bounded-queue overflow, sojourn = CoDel drops.
	ShedQuota, ShedQueue, ShedSojourn int64
	// Timeouts counts attempts that exceeded the deadline (fast-failed
	// or served too late); Failures counts non-timeout Serve errors.
	Timeouts, Failures int64
	// Retries counts attempts 2+; RetriesSuppressed counts retries the
	// budget refused.
	Retries, RetriesSuppressed int64
	// BreakerOpens counts circuit-breaker trips across nodes.
	BreakerOpens int64
	// VirtualElapsed is when the last work finished — for the control
	// run this runs far past Duration, which is the collapse.
	VirtualElapsed time.Duration
	// GoodputPerSec is Goodput over VirtualElapsed.
	GoodputPerSec float64
	// Admitted end-to-end latency distribution (per served attempt,
	// from that attempt's arrival) and its windowed trajectory.
	AdmittedLatency metrics.HistogramSnapshot
	Windows         []metrics.WindowSample
	// Checksum fingerprints the completed-request stream; identical
	// seeds and configs must produce identical checksums.
	Checksum uint64
}

// pendingOp is one logical request across its attempts.
type pendingOp struct {
	op      workload.Op
	tenant  int
	attempt int
	// arrive is the current attempt's arrival (deadline epoch).
	arrive time.Duration
}

// retryEvent is a scheduled retry in the sim's min-heap.
type retryEvent struct {
	at  time.Duration
	idx int64
}

type retryHeap []retryEvent

func (h retryHeap) Len() int { return len(h) }
func (h retryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].idx < h[j].idx
}
func (h retryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x interface{}) { *h = append(*h, x.(retryEvent)) }
func (h *retryHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Sim is one overload run in progress. It implements the chaos
// OverloadTarget hooks (SetBurst, SetTenantFlood), which the schedule's
// burst and tenant-flood events call from the Tick seam to scale arrival
// rates mid-run.
type Sim struct {
	cfg  SimConfig
	gens []*workload.ArrivalGen
	ctrl *Controller // nil for the control run
	fifo []Request   // control-run unbounded queue

	burst  float64
	floods map[int]float64

	budget   *RetryBudget
	breakers []*Breaker
	rrNode   int

	pend    map[int64]*pendingOp
	retries retryHeap
	nextIdx int64

	now, free time.Duration
	tickStep  int64
	hist      *metrics.WindowedHistogram
	sum       SimResult
	hash      uint64
}

// NewSim builds a run from cfg; Run executes it.
func NewSim(cfg SimConfig) *Sim {
	cfg.fill()
	if len(cfg.Tenants) == 0 {
		panic("admission: SimConfig.Tenants is required")
	}
	if cfg.Serve == nil {
		panic("admission: SimConfig.Serve is required")
	}
	s := &Sim{
		cfg:    cfg,
		gens:   make([]*workload.ArrivalGen, len(cfg.Tenants)),
		burst:  1,
		floods: map[int]float64{},
		pend:   map[int64]*pendingOp{},
		hist:   metrics.NewWindowedHistogram(cfg.WindowWidth),
		hash:   fnv.New64a().Sum64(),
	}
	for i, t := range cfg.Tenants {
		s.gens[i] = workload.NewArrivalGen(i, t, cfg.Seed)
	}
	if cfg.Admission != nil {
		s.ctrl = NewController(*cfg.Admission)
	}
	if cfg.RetryRatio > 0 {
		s.budget = NewRetryBudget(cfg.RetryRatio)
	}
	s.breakers = make([]*Breaker, cfg.Nodes)
	for i := range s.breakers {
		s.breakers[i] = NewBreaker(cfg.Breaker)
	}
	return s
}

// SetBurst scales every tenant's arrival rate (traffic-burst chaos);
// factor 1 restores normal traffic.
func (s *Sim) SetBurst(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	s.burst = factor
	s.applyFactors()
}

// SetTenantFlood scales one tenant's arrival rate (tenant-flood chaos);
// factor 1 ends the flood.
func (s *Sim) SetTenantFlood(tenant int, factor float64) {
	if tenant < 0 || tenant >= len(s.gens) {
		return
	}
	if factor <= 0 {
		factor = 1
	}
	s.floods[tenant] = factor
	s.applyFactors()
}

func (s *Sim) applyFactors() {
	for i, g := range s.gens {
		f := s.burst
		if ff, ok := s.floods[i]; ok {
			f *= ff
		}
		g.SetFactor(f)
	}
}

const simFar = time.Duration(math.MaxInt64)

// Run executes the event loop to quiescence and returns the summary.
func (s *Sim) Run() SimResult {
	for {
		arrT, arrG := s.nextArrival()
		retT := simFar
		if len(s.retries) > 0 {
			retT = s.retries[0].at
		}
		srvT := simFar
		if s.depth() > 0 {
			srvT = s.free
			if s.now > srvT {
				srvT = s.now
			}
		}
		// Fixed precedence on ties keeps the trace deterministic:
		// serve, then arrival, then retry.
		switch {
		case srvT <= arrT && srvT <= retT:
			if srvT == simFar {
				return s.finish()
			}
			s.advance(srvT)
			s.serveOne()
		case arrT <= retT:
			s.advance(arrT)
			s.arrive(arrG)
		default:
			s.advance(retT)
			s.retryOne()
		}
	}
}

// advance moves virtual time to t, firing the Tick hook for every
// TickEvery boundary crossed (chaos events land here).
func (s *Sim) advance(t time.Duration) {
	if t > s.now {
		s.now = t
	}
	step := int64(s.now / s.cfg.TickEvery)
	if step > s.tickStep {
		s.tickStep = step
		if s.cfg.Tick != nil {
			s.cfg.Tick(step)
		}
	}
}

// nextArrival peeks the earliest in-window arrival across tenants; ties
// break on the lower tenant index.
func (s *Sim) nextArrival() (time.Duration, *workload.ArrivalGen) {
	at, best := simFar, (*workload.ArrivalGen)(nil)
	for _, g := range s.gens {
		if p := g.Peek(); p < s.cfg.Duration && p < at {
			at, best = p, g
		}
	}
	return at, best
}

func (s *Sim) depth() int {
	if s.ctrl != nil {
		return s.ctrl.Depth()
	}
	return len(s.fifo)
}

// arrive consumes one fresh arrival and offers it for admission.
func (s *Sim) arrive(g *workload.ArrivalGen) {
	a := g.Next()
	s.sum.Offered++
	s.budget.Deposit()
	idx := s.nextIdx
	s.nextIdx++
	s.pend[idx] = &pendingOp{op: a.Op, tenant: a.Tenant, attempt: 1, arrive: s.now}
	s.offer(Request{Tenant: a.Tenant, Attempt: 1, Index: idx})
}

// offer runs one attempt through the admission edge (or the control
// run's unbounded FIFO, which never refuses).
func (s *Sim) offer(req Request) {
	if s.ctrl == nil {
		req.Arrive = s.now
		s.fifo = append(s.fifo, req)
		return
	}
	switch err := s.ctrl.Offer(s.now, req); err {
	case nil:
	case ErrQuotaExceeded:
		s.sum.ShedQuota++
		s.maybeRetry(req.Index)
	case ErrQueueFull:
		s.sum.ShedQueue++
		s.maybeRetry(req.Index)
	default:
		panic(err) // unknown tenant: a sim wiring bug
	}
}

// serveOne dequeues the weighted-fair winner and executes it, charging
// the shared capacity its full simulated latency — even when the result
// arrives past the deadline, which is exactly the wasted-work spiral the
// defense stack exists to prevent.
func (s *Sim) serveOne() {
	var req Request
	if s.ctrl != nil {
		r, shed, ok := s.ctrl.Next(s.now)
		for _, sh := range shed {
			s.sum.ShedSojourn++
			s.maybeRetry(sh.Index)
		}
		if !ok {
			return
		}
		req = r
	} else {
		req = s.fifo[0]
		s.fifo = s.fifo[1:]
	}
	p := s.pend[req.Index]
	if p == nil {
		return
	}
	s.sum.Admitted++
	node := s.pickNode()

	remaining := s.cfg.Deadline - (s.now - p.arrive)
	ctx := WithBudget(context.Background(), remaining)
	lat, err := s.cfg.Serve(ctx, p.op, node)
	if lat < 0 {
		lat = 0
	}
	s.free = s.now + lat
	done := s.free
	e2e := done - p.arrive

	s.hist.ObserveDuration(done, e2e)
	switch {
	case err == nil && e2e <= s.cfg.Deadline:
		s.breakers[node].Success()
		s.sum.Goodput++
		s.record(p)
		delete(s.pend, req.Index)
	case err == nil: // served, but past deadline: wasted work
		s.sum.Timeouts++
		s.breakers[node].Failure(done)
		s.maybeRetry(req.Index)
	default:
		if IsDeadline(err) {
			s.sum.Timeouts++
		} else {
			s.sum.Failures++
		}
		s.breakers[node].Failure(done)
		s.maybeRetry(req.Index)
	}
}

// pickNode round-robins coordinators, skipping nodes whose breaker is
// open; if every breaker refuses, the first candidate is used anyway so
// the client can never wedge itself.
func (s *Sim) pickNode() topology.NodeID {
	start := s.rrNode
	s.rrNode = (s.rrNode + 1) % len(s.breakers)
	for i := 0; i < len(s.breakers); i++ {
		n := (start + i) % len(s.breakers)
		if s.breakers[n].Allow(s.now) {
			return topology.NodeID(n)
		}
	}
	return topology.NodeID(start)
}

// maybeRetry schedules the next attempt for a failed one, if attempts
// remain and the retry budget allows. The deadline resets per attempt —
// what the budget bounds is the *aggregate* retry traffic.
func (s *Sim) maybeRetry(idx int64) {
	p := s.pend[idx]
	if p == nil {
		return
	}
	if p.attempt >= s.cfg.MaxAttempts {
		delete(s.pend, idx)
		return
	}
	if !s.budget.Withdraw() {
		s.sum.RetriesSuppressed++
		delete(s.pend, idx)
		return
	}
	backoff := s.cfg.Backoff << uint(p.attempt-1)
	p.attempt++
	s.sum.Retries++
	heap.Push(&s.retries, retryEvent{at: s.now + backoff, idx: idx})
}

// retryOne re-offers the due retry as a new attempt.
func (s *Sim) retryOne() {
	ev := heap.Pop(&s.retries).(retryEvent)
	p := s.pend[ev.idx]
	if p == nil {
		return
	}
	p.arrive = s.now
	s.offer(Request{Tenant: p.tenant, Attempt: p.attempt, Index: ev.idx})
}

// record folds a completed request into the determinism checksum.
func (s *Sim) record(p *pendingOp) {
	h := fnv.New64a()
	h.Write([]byte(p.op.Key))
	var b [8]byte
	v := uint64(p.op.Kind)<<32 | uint64(uint16(p.tenant))<<8 | uint64(uint8(p.attempt))
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	s.hash = s.hash*0x100000001b3 ^ h.Sum64()
}

func (s *Sim) finish() SimResult {
	s.sum.VirtualElapsed = s.now
	if s.free > s.sum.VirtualElapsed {
		s.sum.VirtualElapsed = s.free
	}
	if s.sum.VirtualElapsed > 0 {
		s.sum.GoodputPerSec = float64(s.sum.Goodput) / s.sum.VirtualElapsed.Seconds()
	}
	if s.budget != nil {
		s.sum.RetriesSuppressed = s.budget.Suppressed()
	}
	for _, b := range s.breakers {
		s.sum.BreakerOpens += b.Opens()
	}
	s.sum.AdmittedLatency = s.hist.Total()
	s.sum.Windows = s.hist.Series()
	s.sum.Checksum = s.hash
	return s.sum
}
