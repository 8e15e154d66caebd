// Package metrics provides the lightweight instrumentation used across the
// framework: atomic counters and gauges, log-bucketed latency histograms
// with quantile estimation, labeled metric vectors, and a named registry
// with a typed Snapshot that experiment harnesses turn into report tables
// and WritePrometheus exposes in the Prometheus text format.
//
// Every metric type is nil-receiver safe on its mutating and reading
// methods: instrumented packages hold nil metric pointers until a caller
// opts in (Instrument / a Metrics config field), so the disabled path costs
// one predictable branch and no allocation.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta. Negative deltas are permitted for callers that use a
// counter as a net tally, but prefer Gauge for values that go down.
// No-op on a nil receiver.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count, or 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta and returns the new value (0 on a nil receiver).
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(delta)
}

// Value returns the current value, or 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram records int64 observations (typically nanoseconds or bytes)
// into exponentially sized buckets: 2 buckets per power of two, covering
// [1, 2^62]. Quantile error is bounded by the bucket width (~±25%), which
// is ample for the shape-level comparisons the experiments report.
// Histogram is safe for concurrent use.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
}

const numBuckets = 126

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

func bucketIndex(v int64) int {
	if v < 1 {
		v = 1
	}
	// log2 via bit length; two buckets per octave.
	bits := 63
	for bits > 0 && v>>uint(bits) == 0 {
		bits--
	}
	idx := bits * 2
	// Upper half of the octave goes in the second bucket.
	if bits > 0 && v>>(uint(bits)-1)&1 == 1 && v != 1<<uint(bits) {
		idx++
	}
	if idx >= 126 {
		idx = 125
	}
	return idx
}

func bucketUpper(idx int) int64 {
	octave := idx / 2
	base := int64(1) << uint(octave)
	if idx%2 == 0 {
		return base + base/2
	}
	if octave >= 62 {
		// base*2 would overflow int64; the last bucket is open-ended.
		return math.MaxInt64
	}
	return base * 2
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() int64 {
	if h.Count() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() int64 {
	if h.Count() == 0 {
		return 0
	}
	return h.max.Load()
}

// bucketCounts is one copy of a histogram's buckets, with the total and the
// maximum that go with it. Quantiles computed from the same copy are
// consistent with each other whatever concurrent writers do: the rank is
// taken from the very counts the walk adds up, and they are monotone in q.
type bucketCounts struct {
	n          [numBuckets]int64
	total, max int64
}

func (h *Histogram) load() (c bucketCounts) {
	if h == nil {
		return c
	}
	for i := range h.buckets {
		c.n[i] = h.buckets[i].Load()
		c.total += c.n[i]
	}
	c.max = h.max.Load()
	return c
}

func (c *bucketCounts) quantile(q float64) int64 {
	if c.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(min(max(q, 0), 1) * float64(c.total)))
	var cum int64
	for i, n := range c.n {
		cum += n
		if cum >= max(rank, 1) {
			return min(bucketUpper(i), c.max)
		}
	}
	return c.max
}

// Quantile returns an upper-bound estimate of the q-quantile (0 <= q <= 1).
// It returns 0 with no observations.
func (h *Histogram) Quantile(q float64) int64 {
	c := h.load()
	return c.quantile(q)
}

// Snapshot summarizes the histogram; the four quantiles come from one copy
// of the buckets, so P50 <= P95 <= P99 <= P999 even while writers run.
func (h *Histogram) Snapshot() HistogramSnapshot {
	c := h.load()
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   c.quantile(0.50),
		P95:   c.quantile(0.95),
		P99:   c.quantile(0.99),
		P999:  c.quantile(0.999),
	}
}

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	Count               int64
	Sum                 int64
	Mean                float64
	Min, Max            int64
	P50, P95, P99, P999 int64
}

// String renders the snapshot treating values as nanoseconds.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count, time.Duration(int64(s.Mean)), time.Duration(s.P50),
		time.Duration(s.P99), time.Duration(s.Max))
}

// Registry is a named collection of metrics. The zero value is unusable;
// call NewRegistry. Lookup creates metrics on first use, so instrumented
// code never needs registration boilerplate.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	histograms  map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		histograms:  map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		gaugeVecs:   map[string]*GaugeVec{},
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Names returns all registered metric names (plain and vector), sorted and
// deduplicated: a counter and a histogram sharing a name used to yield two
// indistinguishable entries, which made report code silently double-count.
// Use Snapshot for a kind-qualified view.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for n := range r.counters {
		add(n)
	}
	for n := range r.gauges {
		add(n)
	}
	for n := range r.histograms {
		add(n)
	}
	for n := range r.counterVecs {
		add(n)
	}
	for n := range r.gaugeVecs {
		add(n)
	}
	sort.Strings(names)
	return names
}

// CounterSample is one counter value in a Snapshot. Labels is nil for plain
// (unlabeled) counters; for vector children it pairs the vector's label
// keys with this child's values, in declaration order.
type CounterSample struct {
	Name   string
	Labels []Label
	Value  int64
}

// GaugeSample is one gauge value in a Snapshot.
type GaugeSample struct {
	Name   string
	Labels []Label
	Value  int64
}

// HistogramSample is one histogram summary in a Snapshot.
type HistogramSample struct {
	Name   string
	Labels []Label
	HistogramSnapshot
}

// Label is one key="value" pair attached to a vector child.
type Label struct {
	Key, Value string
}

// Snapshot is a typed, point-in-time view of a whole registry. Samples are
// sorted by name then label values, so reports are deterministic.
type Snapshot struct {
	Counters   []CounterSample
	Gauges     []GaugeSample
	Histograms []HistogramSample
}

// Snapshot captures every metric in the registry, including vector
// children. It replaces Names()-driven report loops, which could not tell
// a counter from a histogram with the same name. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	counterVecs := make([]*CounterVec, 0, len(r.counterVecs))
	for _, v := range r.counterVecs {
		counterVecs = append(counterVecs, v)
	}
	gaugeVecs := make([]*GaugeVec, 0, len(r.gaugeVecs))
	for _, v := range r.gaugeVecs {
		gaugeVecs = append(gaugeVecs, v)
	}
	r.mu.Unlock()

	var snap Snapshot
	for n, c := range counters {
		snap.Counters = append(snap.Counters, CounterSample{Name: n, Value: c.Value()})
	}
	for _, v := range counterVecs {
		v.Each(func(labels []Label, c *Counter) {
			snap.Counters = append(snap.Counters, CounterSample{Name: v.name, Labels: labels, Value: c.Value()})
		})
	}
	for n, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSample{Name: n, Value: g.Value()})
	}
	for _, v := range gaugeVecs {
		v.Each(func(labels []Label, g *Gauge) {
			snap.Gauges = append(snap.Gauges, GaugeSample{Name: v.name, Labels: labels, Value: g.Value()})
		})
	}
	for n, h := range histograms {
		snap.Histograms = append(snap.Histograms, HistogramSample{Name: n, HistogramSnapshot: h.Snapshot()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool {
		return sampleLess(snap.Counters[i].Name, snap.Counters[i].Labels, snap.Counters[j].Name, snap.Counters[j].Labels)
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return sampleLess(snap.Gauges[i].Name, snap.Gauges[i].Labels, snap.Gauges[j].Name, snap.Gauges[j].Labels)
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return sampleLess(snap.Histograms[i].Name, snap.Histograms[i].Labels, snap.Histograms[j].Name, snap.Histograms[j].Labels)
	})
	return snap
}

func sampleLess(an string, al []Label, bn string, bl []Label) bool {
	if an != bn {
		return an < bn
	}
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i].Value != bl[i].Value {
			return al[i].Value < bl[i].Value
		}
	}
	return len(al) < len(bl)
}
