// Package stream is an event-time stream processing engine: keyed events
// flow through hash-partitioned parallel workers into tumbling or sliding
// windows; low watermarks drive window firing; allowed lateness bounds how
// long closed windows accept stragglers; and bounded worker lanes (lane.go)
// provide backpressure (the ablation of experiment E7 — unbounded lanes let
// latency grow without limit as offered load approaches capacity).
//
// The engine is fault tolerant with exactly-once output: aligned
// checkpoint barriers (checkpoint.go) snapshot worker state, a replayable
// Source (source.go) rewinds to the last committed checkpoint's offset on
// failure, and per-worker output sequence numbers let the result sink
// deduplicate panes re-fired during replay, so a run that crashes and
// recovers produces output byte-identical to a fault-free run. See
// DESIGN.md "Stream ingest lanes and exactly-once fault tolerance".
package stream

import (
	"cmp"
	"errors"
	"slices"
	"sort"
	"time"

	"repro/internal/group"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Event is one keyed, event-timestamped element.
type Event struct {
	Key       string
	Value     float64
	EventTime time.Duration
}

// Result is one fired window pane.
type Result struct {
	WindowStart time.Duration
	WindowEnd   time.Duration
	Key         string
	Sum         float64
	Count       int64
}

// Config configures a pipeline.
type Config struct {
	// Workers is the keyed parallelism. Default 4.
	Workers int
	// Buffer bounds the events pending in each worker's lane (Send blocks
	// at it); the worker may hold one more batch it already took. Values
	// <= 0 mean effectively unbounded (the no-backpressure ablation).
	Buffer int
	// Window is the window width; required.
	Window time.Duration
	// Slide enables sliding windows when 0 < Slide < Window (each event
	// lands in Window/Slide panes). 0 means tumbling.
	Slide time.Duration
	// AllowedLateness keeps a fired window's state around to absorb late
	// events; events later than that are dropped (counted).
	AllowedLateness time.Duration
	// WorkSpin burns roughly this many iterations of CPU per event to
	// model per-event processing cost in load experiments.
	WorkSpin int
	// Tracer, when set, records checkpoint and recovery spans.
	Tracer *trace.Recorder
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("stream: pipeline closed")

// errWorkerDown aborts a checkpoint whose barrier reached a crashed
// worker: a down task cannot contribute a snapshot, so the coordinator
// must not commit (mirrors Flink's checkpoint-decline path).
var errWorkerDown = errors.New("stream: worker is down, checkpoint aborted")

type paneAgg struct {
	sum   float64
	count int64
}

// window is one open window: its keys numbered in order of first arrival
// and a pane per key number.
type window struct {
	start time.Duration
	keys  group.KeyTable[string]
	panes []paneAgg // by key number
}

// pipeState is one worker's volatile state: the open windows, the
// watermark high-water, and the output sequence number of the last pane
// this worker fired (the exactly-once cursor the sink dedups against).
type pipeState struct {
	watermark time.Duration
	seq       int64
	open      []*window // sorted by start
	// free holds fired windows, emptied, for the next to open on; last is
	// the window that took the last pane. Neither is serialized.
	free []*window
	last *window
}

func newPipeState() *pipeState { return &pipeState{} }

// pane returns key's pane in the window starting at start, opening both if
// needed. Events mostly follow the one before into its window, so that
// window is tried before a search.
func (st *pipeState) pane(start time.Duration, key string) *paneAgg {
	win := st.last
	if win == nil || win.start != start {
		i, found := slices.BinarySearchFunc(st.open, start, func(w *window, t time.Duration) int { return cmp.Compare(w.start, t) })
		if found {
			win = st.open[i]
		} else {
			if n := len(st.free); n > 0 {
				win, st.free = st.free[n-1], st.free[:n-1]
			} else {
				win = &window{}
			}
			win.start = start
			st.open = slices.Insert(st.open, i, win)
		}
		st.last = win
	}
	id, added := win.keys.ID(key)
	if added {
		win.panes = append(win.panes, paneAgg{})
	}
	return &win.panes[id]
}

// Pipeline is a running streaming job. Create with New, feed with Send and
// Advance, terminate with Close. For fault-tolerant runs use a Runner
// (checkpoint.go), which layers checkpointing and recovery on top.
type Pipeline struct {
	cfg     Config
	in      *lanes
	results sink[Result]

	// Reg exposes latency/lateness metrics (sojourn_ns — a 1-in-64
	// systematic sample per worker lane, first event included —
	// late_dropped, events_processed) plus the fault-tolerance counters:
	// checkpoints_committed, checkpoints_aborted, checkpoint_bytes,
	// checkpoint_duration_ns, panes_deduped, stream_worker_crashes,
	// stream_recoveries, crashed_dropped_events.
	Reg *metrics.Registry
}

// New starts a pipeline's workers.
func New(cfg Config) *Pipeline {
	if cfg.Window <= 0 {
		panic("stream: Config.Window is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	p := &Pipeline{cfg: cfg, Reg: metrics.NewRegistry()}
	p.results.hwm = make([]int64, cfg.Workers)
	p.results.deduped = p.Reg.Counter("panes_deduped")
	p.in = startLanes(cfg.Workers, cfg.Buffer, p.Reg, cfg.Tracer, func(worker int) operator {
		return &windower{
			p: p, worker: worker, st: newPipeState(),
			sojourn:   p.Reg.Histogram("sojourn_ns"),
			late:      p.Reg.Counter("late_dropped"),
			processed: p.Reg.Counter("events_processed"),
		}
	})
	return p
}

// Workers returns the keyed parallelism the pipeline runs with.
func (p *Pipeline) Workers() int { return len(p.in.ls) }

// Send routes one event to its key's worker. With a bounded buffer this
// blocks when the worker is saturated — that wait is the backpressure the
// experiments measure (it is included in a sampled event's sojourn time).
func (p *Pipeline) Send(ev Event) error { return p.in.send(ev) }

// Advance broadcasts a low watermark: every window whose end is at or
// before wm fires on each worker. Negative watermarks are clamped to zero.
func (p *Pipeline) Advance(wm time.Duration) error { return p.in.advance(wm) }

// Close flushes all remaining windows (as if a final +inf watermark
// arrived), stops the workers, and returns every result fired over the
// pipeline's lifetime, ordered by (window start, key).
func (p *Pipeline) Close() []Result {
	p.in.close()
	out := p.results.snapshot()
	sort.Slice(out, func(i, j int) bool {
		if out[i].WindowStart != out[j].WindowStart {
			return out[i].WindowStart < out[j].WindowStart
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// QueueDepth reports the total messages pending across worker lanes (for
// the backpressure experiments).
func (p *Pipeline) QueueDepth() int { return p.in.depth() }

// windower is the Pipeline's operator: one worker's pane state and the
// scratch it reuses between batches.
type windower struct {
	p      *Pipeline
	worker int
	st     *pipeState

	sojourn         *metrics.Histogram
	late, processed *metrics.Counter

	fired    []Result // one firing's results, reused
	spinSink int
}

func (w *windower) snapshot() []byte { return w.st.encode() }

func (w *windower) restore(snap []byte) error {
	st, err := decodePipeState(snap)
	if err == nil {
		w.st = st
	}
	return err
}

// events folds the leading events of ms into their panes. Counters are
// added once per batch, and only sampled events (ingest != 0) read the
// clock.
func (w *windower) events(ms []message) int {
	cfg, st := &w.p.cfg, w.st
	tumbling := cfg.Slide <= 0 || cfg.Slide >= cfg.Window
	n, late, dropped := 0, 0, 0
	for ; n < len(ms) && ms[n].isEvent(); n++ {
		ev := &ms[n].ev
		// Simulated per-event processing cost.
		for i := 0; i < cfg.WorkSpin; i++ {
			w.spinSink += i ^ (w.spinSink << 1)
		}
		t, accepted := ev.EventTime, false
		switch {
		case t+cfg.AllowedLateness < st.watermark-cfg.Window:
			dropped++ // beyond the lateness horizon of every possible pane
		case tumbling:
			accepted = w.add((t/cfg.Window)*cfg.Window, ev)
		default:
			for start := (t / cfg.Slide) * cfg.Slide; start >= 0 && start > t-cfg.Window; start -= cfg.Slide {
				if t >= start && w.add(start, ev) {
					accepted = true
				}
			}
		}
		if !accepted {
			late++
		}
		if at := ms[n].ingest; at != 0 {
			w.sojourn.ObserveDuration(time.Since(epoch) - at)
		}
	}
	w.processed.Add(int64(n - dropped))
	if late > 0 {
		w.late.Add(int64(late))
	}
	return n
}

// add folds ev into the pane starting at start, unless that pane is
// closed for good.
func (w *windower) add(start time.Duration, ev *Event) bool {
	st := w.st
	if start+w.p.cfg.Window+w.p.cfg.AllowedLateness <= st.watermark {
		return false
	}
	agg := st.pane(start, ev.Key)
	agg.sum += ev.Value
	agg.count++
	return true
}

// advance fires the panes whose lateness horizon wm passed, windows in
// start order and each window's panes in order of first arrival; each
// carries the worker's next output sequence number.
func (w *windower) advance(wm time.Duration) {
	st := w.st
	if wm <= st.watermark {
		return
	}
	st.watermark = wm
	// A pane fires once start+Window+AllowedLateness <= wm.
	horizon := wm - w.p.cfg.Window - w.p.cfg.AllowedLateness
	n := 0
	for n < len(st.open) && st.open[n].start <= horizon {
		n++
	}
	if n == 0 {
		return
	}
	out := w.fired[:0]
	for _, win := range st.open[:n] {
		for id, key := range win.keys.Keys() {
			out = append(out, Result{
				WindowStart: win.start,
				WindowEnd:   win.start + w.p.cfg.Window,
				Key:         key,
				Sum:         win.panes[id].sum,
				Count:       win.panes[id].count,
			})
		}
		win.keys.Reset()
		win.panes = win.panes[:0]
	}
	st.free = append(st.free, st.open[:n]...)
	st.open, st.last = slices.Delete(st.open, 0, n), nil
	st.seq += int64(len(out))
	w.p.results.deliver(w.worker, st.seq, out)
	w.fired = out
}
