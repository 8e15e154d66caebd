// Windowed histogram: the per-window time series behind the perf
// trajectory. A benchmark does not want one percentile for the whole
// run — warmup, checkpoint stalls, and fault recovery all wash out in a
// single summary. WindowedHistogram buckets observations into fixed-
// width time windows keyed by the caller-supplied observation time (wall
// or virtual), keeping a full log-bucketed Histogram per window plus one
// cumulative histogram for the run summary, so a bench family can report
// "throughput and p99 per second over the run" and "p999 overall" from
// the same instrument.
package metrics

import (
	"sort"
	"sync"
	"time"
)

// WindowedHistogram partitions observations into fixed-width windows by
// observation time. Safe for concurrent use. The zero value is unusable;
// call NewWindowedHistogram. Nil-receiver methods are no-ops, matching
// the rest of the package.
type WindowedHistogram struct {
	mu      sync.Mutex
	width   time.Duration
	windows map[int64]*Histogram // window index -> per-window values
	total   *Histogram           // cumulative, for run-level summary
}

// NewWindowedHistogram creates a windowed histogram with the given
// window width (<= 0 defaults to one second).
func NewWindowedHistogram(width time.Duration) *WindowedHistogram {
	if width <= 0 {
		width = time.Second
	}
	return &WindowedHistogram{
		width:   width,
		windows: map[int64]*Histogram{},
		total:   NewHistogram(),
	}
}

// Observe records value v (e.g. a latency in nanoseconds) at observation
// time `at`, measured from the run's own epoch. `at` may be wall-clock
// elapsed time or fully simulated time — the instrument does not care,
// which is what lets KV benches window by deterministic virtual latency
// accumulation.
func (w *WindowedHistogram) Observe(at time.Duration, v int64) {
	if w == nil {
		return
	}
	idx := int64(at / w.width)
	if at < 0 {
		idx = -1 // clamp pre-epoch observations into one catch-all window
	}
	w.mu.Lock()
	h := w.windows[idx]
	if h == nil {
		h = NewHistogram()
		w.windows[idx] = h
	}
	w.mu.Unlock()
	h.Observe(v)
	w.total.Observe(v)
}

// ObserveDuration records a duration sample at observation time `at`.
func (w *WindowedHistogram) ObserveDuration(at, d time.Duration) {
	w.Observe(at, int64(d))
}

// WindowSample is one window of the trajectory: its start offset, how
// many observations landed in it, and their distribution summary.
type WindowSample struct {
	Start  time.Duration // window start, relative to the run epoch
	Count  int64
	Mean   float64
	Min    int64
	Max    int64
	P50    int64
	P95    int64
	P99    int64
	P999   int64
	PerSec float64 // Count / window width — the windowed throughput
}

// Series returns the non-empty windows in time order. Gaps (windows with
// zero observations) are omitted; the differ treats window count as part
// of the workload shape, so a run that stalls long enough to skip a
// window shows up as a shape change, not a silent hole.
func (w *WindowedHistogram) Series() []WindowSample {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	idxs := make([]int64, 0, len(w.windows))
	for i := range w.windows {
		idxs = append(idxs, i)
	}
	hs := make(map[int64]*Histogram, len(w.windows))
	for i, h := range w.windows {
		hs[i] = h
	}
	width := w.width
	w.mu.Unlock()

	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]WindowSample, 0, len(idxs))
	secs := width.Seconds()
	for _, i := range idxs {
		h := hs[i]
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		out = append(out, WindowSample{
			Start:  time.Duration(i) * width,
			Count:  s.Count,
			Mean:   s.Mean,
			Min:    s.Min,
			Max:    s.Max,
			P50:    s.P50,
			P95:    s.P95,
			P99:    s.P99,
			P999:   s.P999,
			PerSec: float64(s.Count) / secs,
		})
	}
	return out
}

// Total summarizes all observations across every window.
func (w *WindowedHistogram) Total() HistogramSnapshot {
	if w == nil {
		return HistogramSnapshot{}
	}
	return w.total.Snapshot()
}
