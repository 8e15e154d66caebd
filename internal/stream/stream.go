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
	"errors"
	"sort"
	"time"

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

// pipeState is one worker's volatile state: the open panes, the watermark
// high-water, and the output sequence number of the last pane this worker
// fired (the exactly-once cursor the sink dedups against).
type pipeState struct {
	watermark time.Duration
	seq       int64
	// windows holds the open panes by window start, then key: an event
	// costs one small integer lookup and one plain string lookup, and a
	// window fires as a whole.
	windows map[time.Duration]map[string]*paneAgg
	// minStart is the earliest open window start (maxWatermark when no
	// pane is open). It is derived from windows and, like spare, never
	// serialized; it lets a watermark that closes nothing return at once.
	minStart time.Duration
	// spare is a fired window's map, cleared for the next to open on.
	spare map[string]*paneAgg
}

func newPipeState() *pipeState {
	return &pipeState{windows: map[time.Duration]map[string]*paneAgg{}, minStart: maxWatermark}
}

// window returns the open window starting at start, opening it if needed.
func (st *pipeState) window(start time.Duration) map[string]*paneAgg {
	win := st.windows[start]
	if win == nil {
		if win, st.spare = st.spare, nil; win == nil {
			win = map[string]*paneAgg{}
		}
		st.windows[start] = win
		st.minStart = min(st.minStart, start)
	}
	return win
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

	slab     []paneAgg // new panes are carved from here
	fired    []Result  // one firing's results, reused
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
	win := st.window(start)
	agg := win[ev.Key]
	if agg == nil {
		if len(w.slab) == 0 {
			w.slab = make([]paneAgg, 256)
		}
		agg, w.slab = &w.slab[0], w.slab[1:]
		win[ev.Key] = agg
	}
	agg.sum += ev.Value
	agg.count++
	return true
}

// advance fires the panes whose lateness horizon wm passed; each carries
// the worker's next output sequence number. Within one firing the map
// iteration order is random, but the sink dedups whole rolled-back
// firings by sequence count, so replay correctness does not depend on
// intra-firing order (see DESIGN.md).
func (w *windower) advance(wm time.Duration) {
	st := w.st
	if wm <= st.watermark {
		return
	}
	st.watermark = wm
	// A pane fires once start+Window+AllowedLateness <= wm.
	horizon := wm - w.p.cfg.Window - w.p.cfg.AllowedLateness
	if st.minStart > horizon {
		return
	}
	out := w.fired[:0]
	st.minStart = maxWatermark
	for start, win := range st.windows {
		if start > horizon {
			st.minStart = min(st.minStart, start)
			continue
		}
		for key, agg := range win {
			out = append(out, Result{
				WindowStart: start,
				WindowEnd:   start + w.p.cfg.Window,
				Key:         key,
				Sum:         agg.sum,
				Count:       agg.count,
			})
		}
		delete(st.windows, start)
		clear(win)
		st.spare = win
	}
	st.seq += int64(len(out))
	w.p.results.deliver(w.worker, st.seq, out)
	w.fired = out
}
