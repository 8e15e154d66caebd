// Swap-buffer lanes: the ingest and control plane Pipeline and Sessionizer
// share. Each key partition has one lane and one worker goroutine.
// Producers append runs of messages (one event per Send, a staged run per
// Runner push) to the lane's pending slice under its mutex; the worker
// takes the whole slice and hands back its previous, now empty one. A
// handoff costs the producer one uncontended lock pair per run and the
// worker one per batch, and a batch is as long as the worker was behind:
// an idle worker is woken by the first run, a busy one finds all that
// arrived meanwhile. See DESIGN.md "Stream ingest lanes".
package stream

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// message is one entry of a worker's ordered input: an event, a watermark
// or a control message (barrier, crash, restore).
type message struct {
	ev        Event
	watermark time.Duration // >= 0 means watermark message, ev ignored
	ingest    time.Duration // staging time since epoch; push keeps it on sampled events only
	ctl       *control      // non-nil: control-plane message
}

func (m *message) isEvent() bool { return m.ctl == nil && m.watermark < 0 }

const (
	// sojournSample is the systematic sampling interval of sojourn_ns:
	// every lane stamps its 1st, 65th, 129th, ... event. The other events
	// cost no clock read on either side of the handoff.
	sojournSample = 64
	// maxWatermark is the final watermark a closing worker fires with.
	maxWatermark = time.Duration(1<<62 - 1)
)

// epoch is the origin of ingest stamps (monotonic clock only).
var epoch = time.Now()

type lane struct {
	mu       sync.Mutex
	notEmpty sync.Cond // the worker parks here when pending is empty
	notFull  sync.Cond // producers park here when pending is at bound
	pending  []message
	bound    int    // producers block while len(pending) >= bound
	events   uint64 // events pushed so far; drives the sojourn sample
	parked   bool   // worker is waiting on notEmpty
	closed   bool
}

func newLane(bound int) *lane {
	l := &lane{bound: bound}
	l.notEmpty.L = &l.mu
	l.notFull.L = &l.mu
	return l
}

// push appends ms in order, split across waits while the lane is full, so
// len(pending) never exceeds the bound; that wait is the backpressure. A
// sampled event (1st, 65th, ... per lane) keeps its staging stamp or is
// stamped now, before any wait; the others' stamps are cleared. Push after
// close returns ErrClosed, checked under the lock of each append, so a
// push can never land behind the worker's exit.
func (l *lane) push(ms ...message) error {
	l.mu.Lock()
	for i := range ms {
		if m := &ms[i]; m.isEvent() {
			if l.events%sojournSample != 0 {
				m.ingest = 0
			} else if m.ingest == 0 {
				m.ingest = max(time.Since(epoch), 1)
			}
			l.events++
		}
	}
	for len(l.pending)+len(ms) > l.bound && !l.closed {
		if n := l.bound - len(l.pending); n > 0 {
			l.pending, ms = append(l.pending, ms[:n]...), ms[n:]
			l.notEmpty.Signal() // a spurious wake-up costs the worker one check
		}
		l.notFull.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if len(ms) == 1 { // every Send: a bulk copy of one would cost a runtime call
		l.pending = append(l.pending, ms[0])
	} else {
		l.pending = append(l.pending, ms...)
	}
	if l.parked {
		l.parked = false
		l.notEmpty.Signal()
	}
	l.mu.Unlock()
	return nil
}

// take blocks until the lane has input, then swaps the whole pending
// slice for buf (the worker's previous batch) and returns it. The batch
// is empty only once the lane is closed and drained.
func (l *lane) take(buf []message) []message {
	l.mu.Lock()
	for len(l.pending) == 0 && !l.closed {
		l.parked = true
		l.notEmpty.Wait()
	}
	batch := l.pending
	l.pending = buf[:0]
	l.mu.Unlock()
	l.notFull.Broadcast()
	return batch
}

// close makes every later and every blocked push return ErrClosed; the
// worker drains what is pending and exits.
func (l *lane) close() {
	l.mu.Lock()
	l.closed = true
	l.parked = false
	l.mu.Unlock()
	l.notEmpty.Signal()
	l.notFull.Broadcast()
}

// operator is one worker's windowing state machine. Only its worker
// goroutine calls it, so implementations need no locking.
type operator interface {
	// events folds the leading run of event messages of ms into the
	// state and returns the run's length (at least 1: ms[0] is an event).
	events(ms []message) int
	// advance raises the watermark to wm and fires what that closes.
	advance(wm time.Duration)
	snapshot() []byte
	restore(snap []byte) error
}

// lanes is a running set of lanes and their workers.
type lanes struct {
	ls       []*lane
	empty    []byte // snapshot of a fresh operator: the genesis state
	wg       sync.WaitGroup
	reg      *metrics.Registry
	tracer   *trace.Recorder
	nextCkpt atomic.Int64 // checkpoint id allocator
}

// startLanes starts one worker per lane over the operator newOp builds for
// it. buffer <= 0 means effectively unbounded.
func startLanes(workers, buffer int, reg *metrics.Registry, tracer *trace.Recorder, newOp func(worker int) operator) *lanes {
	if buffer <= 0 {
		buffer = 1 << 20 // "unbounded": larger than any test load
	}
	g := &lanes{ls: make([]*lane, workers), reg: reg, tracer: tracer}
	dropped := reg.Counter("crashed_dropped_events")
	for i := range g.ls {
		op := newOp(i)
		g.ls[i], g.empty = newLane(buffer), op.snapshot()
		g.wg.Add(1)
		go g.work(i, g.ls[i], op, dropped)
	}
	return g
}

func hashKey(k string) uint32 {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(k); i++ {
		h = (h ^ uint32(k[i])) * 16777619
	}
	return h
}

func (g *lanes) route(key string) int { return int(hashKey(key)) % len(g.ls) }

func (g *lanes) send(ev Event) error {
	return g.ls[g.route(ev.Key)].push(message{ev: ev, watermark: -1})
}

// advance broadcasts a watermark; negative ones are clamped to zero (they
// carry no information and would collide with the event encoding).
func (g *lanes) advance(wm time.Duration) error {
	return g.broadcast(func(int) message { return message{watermark: max(wm, 0)} })
}

func (g *lanes) broadcast(mk func(worker int) message) error {
	for i, l := range g.ls {
		if err := l.push(mk(i)); err != nil {
			return err
		}
	}
	return nil
}

// close stops ingest, lets every worker drain its lane and flush, and
// returns once all have exited. Safe to call more than once.
func (g *lanes) close() {
	for _, l := range g.ls {
		l.close()
	}
	g.wg.Wait()
}

func (g *lanes) depth() int {
	total := 0
	for _, l := range g.ls {
		l.mu.Lock()
		total += len(l.pending)
		l.mu.Unlock()
	}
	return total
}

// work is the worker loop. Events, watermarks and control messages are
// handled strictly in lane order, on this goroutine, so a barrier's
// snapshot reflects exactly the messages pushed before it (aligned-barrier
// semantics with one ordered input per worker) however they were batched.
func (g *lanes) work(idx int, l *lane, op operator, dropped *metrics.Counter) {
	defer g.wg.Done()
	dead := false
	for batch := l.take(nil); len(batch) > 0; batch = l.take(batch) {
		for rest := batch; len(rest) > 0; {
			n := 1
			switch m := &rest[0]; {
			case m.ctl != nil:
				dead = g.control(idx, op, dead, m.ctl)
			case dead:
				// A crashed worker loses everything delivered to it; the
				// replay after recovery re-reads these events from the
				// source, so dropping here is safe (and counted).
				if m.watermark < 0 {
					dropped.Inc()
				}
			case m.watermark >= 0:
				op.advance(m.watermark)
			default:
				n = op.events(rest)
			}
			rest = rest[n:]
		}
		clear(batch) // drop key and snapshot references
	}
	if !dead {
		op.advance(maxWatermark)
	}
}

// control handles one control-plane message and returns whether the
// worker is dead afterwards.
func (g *lanes) control(idx int, op operator, dead bool, c *control) bool {
	track := fmt.Sprintf("stream-worker-%02d", idx)
	switch c.op {
	case ctlBarrier:
		if dead {
			c.ack <- workerAck{worker: idx, err: errWorkerDown}
			return dead
		}
		// The snapshot span parents under the coordinator's checkpoint
		// span carried on the barrier, so each worker's contribution is
		// causally visible in the run timeline.
		end, _ := g.tracer.BeginCtx(fmt.Sprintf("snapshot ckpt-%d", c.id), "checkpoint", track, c.tc)
		state := op.snapshot()
		end(map[string]string{"bytes": fmt.Sprint(len(state))})
		c.ack <- workerAck{worker: idx, state: state}
	case ctlCrash:
		_ = op.restore(g.empty) // drop all state; its own encoding always decodes
		c.ack <- workerAck{worker: idx}
		return true
	case ctlRestore:
		end, _ := g.tracer.BeginCtx("restore state", "recovery", track, c.tc)
		if err := op.restore(c.snap); err != nil {
			end(map[string]string{"error": err.Error()})
			c.ack <- workerAck{worker: idx, err: err}
			return dead
		}
		end(map[string]string{"bytes": fmt.Sprint(len(c.snap))})
		c.ack <- workerAck{worker: idx}
		return false
	}
	return dead
}

// sink is the result store, modeled as durable and idempotent: hwm, the
// per-worker delivered output sequence high-water, survives worker crash
// and rollback, so results re-fired during replay (sequence <= hwm) are
// recognized as duplicates, dropped and counted.
type sink[R any] struct {
	mu      sync.Mutex
	out     [][]R // one exactly sized chunk per firing: no regrowth copies
	hwm     []int64
	deduped *metrics.Counter
}

// deliver appends one firing's results under one lock acquisition; they
// carry the worker's output sequences last-len(rs)+1 .. last.
func (s *sink[R]) deliver(worker int, last int64, rs []R) {
	if len(rs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dup := min(max(s.hwm[worker]-(last-int64(len(rs))), 0), int64(len(rs)))
	s.deduped.Add(dup)
	if rs = rs[dup:]; len(rs) > 0 {
		s.out = append(s.out, slices.Clone(rs))
		s.hwm[worker] = last
	}
}

func (s *sink[R]) snapshot() []R {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Concat(s.out...)
}
