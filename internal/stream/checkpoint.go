// Checkpointing and recovery for the stream engine: aligned barriers flow
// through the worker lanes like watermarks, each worker snapshots its
// state when the barrier arrives, and the coordinator commits a
// checkpoint only once every worker has acked. On failure the Runner
// rolls every worker back to the last committed checkpoint, rewinds the
// replayable source to the checkpoint's offset, and replays the tail; the
// result sink's per-worker sequence high-water drops the panes the replay
// re-fires, so recovered output is byte-identical to a fault-free run.
package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/shuffle"
	"repro/internal/trace"
)

type ctlOp int

const (
	ctlBarrier ctlOp = iota // snapshot state and ack
	ctlCrash                // drop state, enter dead mode
	ctlRestore              // load snapshot, leave dead mode
)

// control is one control-plane message. It rides the same per-worker
// lane as events and watermarks, which is what makes barrier alignment
// trivial here: each worker has exactly one ordered input, so a barrier
// cleanly splits the stream into pre- and post-checkpoint events.
type control struct {
	op   ctlOp
	id   int64  // checkpoint id (barrier)
	snap []byte // encoded worker state (restore)
	ack  chan workerAck
	// tc is the coordinator-side barrier/restore span: worker-side
	// snapshot and restore spans parent under it, linking each worker's
	// contribution into the run's cross-node timeline.
	tc trace.TraceContext
}

type workerAck struct {
	worker int
	state  []byte // encoded snapshot (barrier acks)
	err    error
}

// Checkpoint is one committed, globally consistent snapshot: the source
// offset the barrier was injected at, the source-side watermark
// high-water, and every worker's encoded state. Offset and Watermark
// belong to the driver (Runner) side of the snapshot; States to the
// worker side.
type Checkpoint struct {
	ID        int64
	Offset    int64
	Watermark time.Duration
	States    [][]byte
	Bytes     int64
}

// ---- binary state encoding ------------------------------------------------

// Snapshots cross the worker/coordinator boundary as flat byte blobs, the
// same way they would cross a process boundary to durable storage: the
// encoding both isolates the snapshot from later mutation and makes the
// checkpoint_bytes metric honest. It is the replicated machines' format
// (big-endian integers, strings behind a u32 length, read back only by
// ha.Decoder). Panes are encoded by window start, then key, so a given
// state always produces identical bytes.

// paneSize is the encoded size of a pane with an empty key: start, key
// length, sum, count.
const paneSize = 8 + 4 + 8 + 8

func (st *pipeState) encode() []byte {
	size, n := 8+8+4, 0
	for _, win := range st.open {
		for _, key := range win.keys.Keys() {
			size += paneSize + len(key)
		}
		n += len(win.panes)
	}
	b := binary.BigEndian.AppendUint64(make([]byte, 0, size), uint64(st.watermark))
	b = binary.BigEndian.AppendUint64(b, uint64(st.seq))
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	for _, win := range st.open {
		keys := win.keys.Keys()
		for _, id := range shuffle.KeyOrder(len(keys), func(i int32) string { return keys[i] }) {
			b = ha.AppendString(binary.BigEndian.AppendUint64(b, uint64(win.start)), keys[id])
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(win.panes[id].sum))
			b = binary.BigEndian.AppendUint64(b, uint64(win.panes[id].count))
		}
	}
	return b
}

func decodePipeState(b []byte) (*pipeState, error) {
	d := ha.NewDecoder(b)
	st := newPipeState()
	st.watermark = time.Duration(d.U64())
	st.seq = int64(d.U64())
	for n := d.Count(paneSize); n > 0 && d.Err() == nil; n-- {
		start, key := time.Duration(d.U64()), d.String()
		sum := math.Float64frombits(d.U64())
		*st.pane(start, key) = paneAgg{sum: sum, count: int64(d.U64())}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return st, nil
}

// ---- coordinator -----------------------------------------------------------

// gather injects one control message per lane — mk's, completed with the
// ack channel — and collects every worker's ack, indexed by worker, with
// the first error any reported. If a concurrent Close cuts the injection
// short it returns ErrClosed and no acks; workers already reached ack
// into the channel's buffer and nobody waits on them.
func (g *lanes) gather(mk func(worker int) control) ([]workerAck, error) {
	ack := make(chan workerAck, len(g.ls)) // one slot per send
	if err := g.broadcast(func(i int) message {
		c := mk(i)
		c.ack = ack
		return message{watermark: -1, ctl: &c}
	}); err != nil {
		return nil, err
	}
	acks := make([]workerAck, len(g.ls))
	var firstErr error
	for range g.ls {
		a := <-ack
		acks[a.worker] = a
		if a.err != nil && firstErr == nil {
			firstErr = a.err
		}
	}
	return acks, firstErr
}

// checkpoint injects an aligned barrier into every lane and blocks until
// all workers ack with their snapshots, then commits. The coordinator's
// checkpoint span parents under the caller (normally the Runner's
// run-root span), and the barrier carries the checkpoint span's context
// to every worker, whose snapshot spans parent under it.
func (g *lanes) checkpoint(offset int64, wm time.Duration, parent trace.TraceContext) (*Checkpoint, error) {
	id := g.nextCkpt.Add(1)
	start := time.Now()
	end, ckptTC := g.tracer.BeginCtx(fmt.Sprintf("checkpoint-%d", id), "checkpoint", "stream-coordinator", parent)
	acks, err := g.gather(func(int) control { return control{op: ctlBarrier, id: id, tc: ckptTC} })
	if err != nil {
		if acks != nil { // a worker declined, as opposed to the lanes being closed
			g.reg.Counter("checkpoints_aborted").Inc()
		}
		end(map[string]string{"aborted": err.Error()})
		return nil, err
	}
	ck := &Checkpoint{ID: id, Offset: offset, Watermark: wm, States: make([][]byte, len(acks))}
	for i, a := range acks {
		ck.States[i] = a.state
		ck.Bytes += int64(len(a.state))
	}
	g.reg.Counter("checkpoints_committed").Inc()
	g.reg.Counter("checkpoint_bytes").Add(ck.Bytes)
	g.reg.Histogram("checkpoint_duration_ns").ObserveDuration(time.Since(start))
	end(map[string]string{"bytes": fmt.Sprint(ck.Bytes), "offset": fmt.Sprint(offset)})
	return ck, nil
}

// crash tells worker i to drop its state and stop processing until
// restore, and blocks until the worker has acked the transition.
func (g *lanes) crash(i int) error {
	if i < 0 || i >= len(g.ls) {
		return fmt.Errorf("stream: no worker %d (have %d)", i, len(g.ls))
	}
	ack := make(chan workerAck, 1)
	if err := g.ls[i].push(message{watermark: -1, ctl: &control{op: ctlCrash, ack: ack}}); err != nil {
		return err
	}
	<-ack
	g.reg.Counter("stream_worker_crashes").Inc()
	return nil
}

// restore rolls every worker — crashed or healthy — back to its snapshot
// in ck and out of dead mode. The restore span parents under the caller's
// recovery span, and each worker's restore under the restore span.
func (g *lanes) restore(ck *Checkpoint, parent trace.TraceContext) error {
	if len(ck.States) != len(g.ls) {
		return fmt.Errorf("stream: checkpoint has %d worker states, have %d workers",
			len(ck.States), len(g.ls))
	}
	end, restTC := g.tracer.BeginCtx(fmt.Sprintf("restore-ckpt-%d", ck.ID), "recovery", "stream-coordinator", parent)
	if _, err := g.gather(func(i int) control {
		return control{op: ctlRestore, snap: ck.States[i], tc: restTC}
	}); err != nil {
		end(map[string]string{"error": err.Error()})
		return err
	}
	g.reg.Counter("stream_recoveries").Inc()
	end(map[string]string{"offset": fmt.Sprint(ck.Offset)})
	return nil
}

// genesis is the implicit empty checkpoint every run starts from:
// recovery before the first commit rolls back to empty state and offset
// zero (replay from the beginning).
func (g *lanes) genesis() *Checkpoint {
	states := make([][]byte, len(g.ls))
	for i := range states {
		states[i] = g.empty
	}
	return &Checkpoint{States: states}
}

// TriggerCheckpoint injects an aligned barrier into every worker lane
// and blocks until all workers ack with their snapshots, then commits.
// offset and wm are the driver-side cut (source offset and watermark
// high-water at injection time). A barrier reaching a crashed worker
// aborts the whole checkpoint — a down task cannot snapshot — and counts
// checkpoints_aborted; the caller keeps its previous committed checkpoint.
func (p *Pipeline) TriggerCheckpoint(offset int64, wm time.Duration) (*Checkpoint, error) {
	return p.in.checkpoint(offset, wm, trace.TraceContext{})
}

// TriggerCheckpointCtx is TriggerCheckpoint with causal linkage: the
// checkpoint span parents under parent.
func (p *Pipeline) TriggerCheckpointCtx(offset int64, wm time.Duration, parent trace.TraceContext) (*Checkpoint, error) {
	return p.in.checkpoint(offset, wm, parent)
}

// GenesisCheckpoint is the implicit empty checkpoint every run starts
// from.
func (p *Pipeline) GenesisCheckpoint() *Checkpoint { return p.in.genesis() }

// CrashWorker simulates the loss of one worker process: its in-memory
// pane state is dropped and it stops processing events and watermarks
// (replay after RestoreFrom re-reads what it misses from the source).
// The call blocks until the worker has acked the transition.
func (p *Pipeline) CrashWorker(i int) error { return p.in.crash(i) }

// RestoreFrom rolls every worker back to the given committed checkpoint
// (a global rollback, like Flink's full-restart strategy): each worker —
// crashed or healthy — replaces its state with its snapshot and leaves
// dead mode. The result sink's sequence high-waters are deliberately NOT
// rolled back; they are what dedups the re-fired panes during replay.
func (p *Pipeline) RestoreFrom(ck *Checkpoint) error {
	return p.in.restore(ck, trace.TraceContext{})
}

// RestoreFromCtx is RestoreFrom with causal linkage: the restore span
// parents under parent.
func (p *Pipeline) RestoreFromCtx(ck *Checkpoint, parent trace.TraceContext) error {
	return p.in.restore(ck, parent)
}

// ---- Runner ----------------------------------------------------------------

// RunConfig drives a checkpointed pipeline run from a replayable source.
type RunConfig struct {
	Pipeline Config
	// CheckpointEvery injects an aligned barrier every N source records;
	// 0 disables checkpointing (recovery then replays from offset zero).
	CheckpointEvery int
	// WatermarkEvery advances the watermark every N records. Default 256.
	WatermarkEvery int
	// WatermarkLag is subtracted from the maximum seen event time when
	// advancing; set it at or above the source's disorder bound to avoid
	// late drops.
	WatermarkLag time.Duration
	// TickEvery is how many records pass between Tick callbacks (the
	// chaos virtual-time hook). Default 1000.
	TickEvery int
	// Tick, when set, is called every TickEvery records — wire a chaos
	// controller's Tick here. Prefer OnTick for post-construction wiring.
	Tick func()
}

// Runner owns the driver loop of a fault-tolerant streaming job: it pulls
// events from a replayable Source, paces watermarks and checkpoint
// barriers, ticks chaos virtual time, and performs recovery (global
// rollback + source rewind + tail replay) when chaos crashes a worker.
// It implements the chaos StreamTarget surface (CrashWorker /
// RestoreWorker); faults requested from inside a Tick are deferred to the
// next record boundary so the driver loop stays the only thread touching
// the source.
type Runner struct {
	cfg RunConfig
	src Source
	p   *Pipeline

	mu             sync.Mutex
	pendingCrash   []int
	pendingRestore bool
	// faults is set (under mu) whenever a fault is pending, so the driver
	// loop checks one atomic per record, not the mutex.
	faults atomic.Bool

	dead   map[int]bool
	last   *Checkpoint // latest committed checkpoint (genesis at start)
	wmHigh time.Duration
	runTC  trace.TraceContext // run-root span; checkpoints and recoveries parent under it
	stages [][]message        // per lane: events staged since the last push
	next   int64              // the next source offset that is a boundary
}

// NewRunner builds a runner over a fresh pipeline.
func NewRunner(cfg RunConfig, src Source) *Runner {
	if cfg.WatermarkEvery <= 0 {
		cfg.WatermarkEvery = 256
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 1000
	}
	p := New(cfg.Pipeline)
	return &Runner{cfg: cfg, src: src, p: p, dead: map[int]bool{}, last: p.GenesisCheckpoint()}
}

// Pipeline exposes the underlying pipeline (for QueueDepth etc).
func (r *Runner) Pipeline() *Pipeline { return r.p }

// Metrics exposes the pipeline registry, including the checkpoint and
// recovery counters the Runner maintains.
func (r *Runner) Metrics() *metrics.Registry { return r.p.Reg }

// Tracer exposes the pipeline's span recorder (nil when tracing is off).
func (r *Runner) Tracer() *trace.Recorder { return r.p.cfg.Tracer }

// CrashWorker implements the chaos stream target: the crash is applied at
// the next record boundary of the driver loop. Safe to call from a chaos
// Tick. Crashing an already-dead worker is a no-op.
func (r *Runner) CrashWorker(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pendingCrash = append(r.pendingCrash, i)
	r.faults.Store(true)
	return nil
}

// RestoreWorker implements the chaos stream target: at the next record
// boundary the runner restores ALL workers from the last committed
// checkpoint and replays the source tail (recovery is global under
// aligned checkpoints). The worker id is accepted for schedule symmetry
// with stream-crash. A restore with no dead workers is a no-op.
func (r *Runner) RestoreWorker(int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pendingRestore = true
	r.faults.Store(true)
	return nil
}

// OnTick wires the chaos virtual-time hook after construction (the
// controller needs the Runner as its target, so it is built second).
func (r *Runner) OnTick(fn func()) { r.cfg.Tick = fn }

// ErrRunDeadline is returned by RunCtx when the run overruns its
// context deadline or virtual admission budget. It wraps
// admission.ErrDeadline, so admission.IsDeadline matches it the same
// way it matches kvstore deadline overruns.
var ErrRunDeadline = fmt.Errorf("stream: run deadline exceeded: %w", admission.ErrDeadline)

// Run drives the source to exhaustion and returns the pipeline's final
// results. If workers are still dead when the source runs dry (a schedule
// with a crash but no restore), Run recovers once more before closing, so
// a crashed run never silently loses data.
func (r *Runner) Run() ([]Result, error) {
	return r.RunCtx(context.Background())
}

// RunCtx is Run with cancellation and deadline propagation: the context
// is checked at every record boundary (never mid-record, so aborts leave
// no half-applied event). A cancelled context aborts with ctx.Err(); a
// context deadline, or a virtual admission budget (admission.WithBudget)
// that the stream's event-time progress has exhausted, aborts with
// ErrRunDeadline. Aborting closes the pipeline so its worker goroutines
// never outlive the run; partial results are discarded.
func (r *Runner) RunCtx(ctx context.Context) ([]Result, error) {
	// One Run = one trace: the run-root span on the coordinator track is
	// what checkpoint barriers (and through them worker snapshots) and
	// recoveries causally chain back to.
	endRun, runTC := r.cfg.Pipeline.Tracer.BeginCtx("stream run", "job", "stream-coordinator", trace.TraceContext{})
	r.runTC = runTC
	res, err := r.run(ctx)
	outcome := "ok"
	if err != nil {
		outcome = err.Error()
	}
	endRun(map[string]string{"outcome": outcome})
	return res, err
}

// gate reports whether the run may process another record: real
// cancellation and deadline from ctx (done is ctx.Done()), plus the
// virtual budget (if any) measured against how far event time advanced.
func (r *Runner) gate(ctx context.Context, done <-chan struct{}, budget time.Duration, budgeted bool) error {
	select {
	case <-done:
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return ErrRunDeadline
		}
		return ctx.Err()
	default:
	}
	if budgeted && r.wmHigh > budget {
		return ErrRunDeadline
	}
	return nil
}

// run is the only producer on its pipeline: it stages events per lane,
// stamped when their stage opened, and pushes the stages before every
// watermark, barrier, Tick, fault, recovery and abort, at end of source and
// when one fills its lane's bound: each lane sees the order Send would give.
func (r *Runner) run(ctx context.Context) ([]Result, error) {
	budget, budgeted := admission.Budget(ctx)
	done := ctx.Done()
	r.stages = make([][]message, r.p.Workers())
	r.next = r.nextBoundary()
	for {
		if err := r.gate(ctx, done, budget, budgeted); err != nil {
			_ = r.flush() // the results are discarded; only the counters see these
			r.p.Reg.Counter("stream_run_aborted").Inc()
			r.p.Close()
			return nil, err
		}
		if r.faults.Load() {
			if err := r.flush(); err != nil {
				return nil, err
			}
			if err := r.applyPending(); err != nil {
				return nil, err
			}
		}
		ev, ok := r.src.Next()
		if !ok {
			if err := r.flush(); err != nil {
				return nil, err
			}
			if len(r.dead) > 0 {
				if err := r.recoverNow(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if ev.EventTime > r.wmHigh {
			r.wmHigh = ev.EventTime
		}
		i := r.p.in.route(ev.Key)
		m := message{ev: ev, watermark: -1}
		if s := r.stages[i]; len(s) > 0 {
			m.ingest = s[0].ingest
		} else {
			m.ingest = max(time.Since(epoch), 1)
		}
		r.stages[i] = append(r.stages[i], m)
		off := r.src.Offset()
		if off < r.next && len(r.stages[i]) < r.p.in.ls[i].bound {
			continue
		}
		if err := r.flush(); err != nil {
			return nil, err
		}
		if off < r.next {
			continue
		}
		r.next = r.nextBoundary()
		if off%int64(r.cfg.WatermarkEvery) == 0 {
			if wm := r.wmHigh - r.cfg.WatermarkLag; wm > 0 {
				if err := r.p.Advance(wm); err != nil {
					return nil, err
				}
			}
		}
		if r.cfg.CheckpointEvery > 0 && off%int64(r.cfg.CheckpointEvery) == 0 {
			// An abort (dead worker mid-crash-window) keeps the previous
			// committed checkpoint; the aborted counter tracks it.
			if ck, err := r.p.TriggerCheckpointCtx(off, r.wmHigh, r.runTC); err == nil {
				r.last = ck
			}
		}
		if r.cfg.Tick != nil && off%int64(r.cfg.TickEvery) == 0 {
			r.cfg.Tick()
		}
	}
	return r.p.Close(), nil
}

// flush pushes every lane's stage.
func (r *Runner) flush() error {
	for i, s := range r.stages {
		if len(s) > 0 {
			if err := r.p.in.ls[i].push(s...); err != nil {
				return err
			}
			r.stages[i] = s[:0]
		}
	}
	return nil
}

// nextBoundary is the first offset past the source's cursor that is due a
// watermark, a barrier or a Tick.
func (r *Runner) nextBoundary() int64 {
	off, next := r.src.Offset(), int64(math.MaxInt64)
	for _, every := range []int{r.cfg.WatermarkEvery, r.cfg.CheckpointEvery, r.cfg.TickEvery} {
		if every > 0 {
			next = min(next, (off/int64(every)+1)*int64(every))
		}
	}
	return next
}

// applyPending applies chaos faults queued by CrashWorker/RestoreWorker
// at a record boundary.
func (r *Runner) applyPending() error {
	r.mu.Lock()
	crashes := r.pendingCrash
	restore := r.pendingRestore
	r.pendingCrash, r.pendingRestore = nil, false
	r.faults.Store(false)
	r.mu.Unlock()
	for _, i := range crashes {
		if i < 0 || i >= r.p.Workers() || r.dead[i] {
			continue
		}
		if err := r.p.CrashWorker(i); err != nil {
			return err
		}
		r.dead[i] = true
	}
	if restore && len(r.dead) > 0 {
		return r.recoverNow()
	}
	return nil
}

// recoverNow performs recovery: global rollback to the last committed
// checkpoint, source rewind to its offset, and driver-state rollback (the
// watermark high-water), after which the main loop replays the tail.
func (r *Runner) recoverNow() error {
	end, recTC := r.cfg.Pipeline.Tracer.BeginCtx(
		fmt.Sprintf("recovery-from-ckpt-%d", r.last.ID), "recovery", "stream-coordinator", r.runTC)
	if err := r.p.RestoreFromCtx(r.last, recTC); err != nil {
		end(map[string]string{"error": err.Error()})
		return err
	}
	replayed := r.src.Offset() - r.last.Offset
	if err := r.src.SeekTo(r.last.Offset); err != nil {
		end(map[string]string{"error": err.Error()})
		return err
	}
	r.wmHigh = r.last.Watermark
	r.next = r.nextBoundary()
	r.dead = map[int]bool{}
	r.p.Reg.Counter("recovery_replayed_events").Add(replayed)
	end(map[string]string{"replayed": fmt.Sprint(replayed)})
	return nil
}
