package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{1, 0},               // smallest representable value
		{2, 2},               // exact power of two starts its octave
		{3, 3},               // upper half of the [2,4) octave
		{4, 4},               // next exact power of two
		{1 << 10, 20},        // exact power of two, mid-range
		{1<<10 + 1, 20},      // just above a power of two stays in the low half
		{3 << 9, 21},         // 1536: upper half of the [1024,2048) octave
		{1 << 62, 124},       // 2^62: last full octave
		{1<<62 + 1, 124},     // just above 2^62
		{math.MaxInt64, 125}, // clamped into the final bucket
		{0, 0},               // sub-1 values clamp to the first bucket
		{-5, 0},              // negative values clamp to the first bucket
		{math.MinInt64, 0},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketUpperCoversIndex(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the value,
	// and bucket uppers must be strictly increasing (no overflow wraps).
	prev := int64(0)
	for i := 0; i < 126; i++ {
		u := bucketUpper(i)
		if u <= prev {
			t.Fatalf("bucketUpper(%d) = %d not increasing (prev %d)", i, u, prev)
		}
		prev = u
	}
	for _, v := range []int64{1, 2, 3, 4, 1000, 1 << 30, 1 << 62, 1<<62 + 12345, math.MaxInt64} {
		if u := bucketUpper(bucketIndex(v)); u < v {
			t.Errorf("bucketUpper(bucketIndex(%d)) = %d < value", v, u)
		}
	}
}

func TestQuantileNearMaxInt64DoesNotOverflow(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.MaxInt64)
	h.Observe(math.MaxInt64 - 1)
	for _, q := range []float64{0, 0.5, 1} {
		if est := h.Quantile(q); est <= 0 {
			t.Fatalf("Quantile(%v) = %d, want positive (overflowed bucket upper?)", q, est)
		}
	}
}

func TestQuantileMonotonicUnderConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	// Pre-seed with the full distribution so concurrent estimates are
	// converged; concurrent writers then only scale bucket counts.
	for v := int64(1); v <= 100_000; v += 7 {
		h.Observe(v)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				v = (v*6364136223846793005 + 1442695040888963407)
				h.Observe(v%100_000 + 1)
			}
		}(int64(i + 1))
	}
	// Monotone within one snapshot: across separate calls the distribution
	// legitimately moves under the writers.
	for iter := 0; iter < 200; iter++ {
		s := h.Snapshot()
		ests := []int64{h.Quantile(0), s.P50, s.P95, s.P99, s.P999}
		for k, est := range ests {
			if est < 0 || est > 150_000 || (k > 1 && est < ests[k-1]) {
				close(stop)
				wg.Wait()
				t.Fatalf("iter %d: quantiles %v out of order or range", iter, ests)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestCounterVecChildrenIndependent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("shuffle_partition_bytes", "shuffle", "partition")
	v.With("1", "0").Add(100)
	v.With("1", "1").Add(300)
	v.With("2", "0").Add(7)
	if got := v.With("1", "1").Value(); got != 300 {
		t.Fatalf("child (1,1) = %d, want 300", got)
	}
	if r.CounterVec("shuffle_partition_bytes", "shuffle", "partition") != v {
		t.Fatal("registry did not return the same vector")
	}
	var seen []string
	var sum int64
	v.Each(func(labels []Label, c *Counter) {
		if len(labels) != 2 || labels[0].Key != "shuffle" || labels[1].Key != "partition" {
			t.Fatalf("labels = %v", labels)
		}
		seen = append(seen, labels[0].Value+"/"+labels[1].Value)
		sum += c.Value()
	})
	if len(seen) != 3 || sum != 407 {
		t.Fatalf("Each saw %v sum %d", seen, sum)
	}
	// Deterministic order: sorted by label values.
	if seen[0] != "1/0" || seen[1] != "1/1" || seen[2] != "2/0" {
		t.Fatalf("order = %v", seen)
	}
}

func TestVecWrongArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong label arity")
		}
	}()
	v.With("only-one")
}

func TestVecKeyMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("g", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched keys")
		}
	}()
	r.GaugeVec("g", "z")
}

func TestNilVecIsNoOp(t *testing.T) {
	var cv *CounterVec
	cv.With("x").Inc() // must not panic
	cv.Each(func([]Label, *Counter) { t.Fatal("nil vec visited a child") })
	var gv *GaugeVec
	gv.With("x").Set(5)
}

func TestNilScalarMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has value")
	}
	var g *Gauge
	g.Set(3)
	if g.Add(2) != 0 || g.Value() != 0 {
		t.Fatal("nil gauge has value")
	}
	var h *Histogram
	h.Observe(10)
	h.ObserveDuration(5)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram has observations")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot nonzero")
	}
}

func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hits", "node")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				v.With(node).Inc()
			}
		}(string(rune('a' + i%4)))
	}
	wg.Wait()
	var total int64
	v.Each(func(_ []Label, c *Counter) { total += c.Value() })
	if total != 8*500 {
		t.Fatalf("total = %d, want 4000", total)
	}
}

func TestRegistryNamesDedupesAcrossKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Histogram("x").Observe(1) // same name, different kind
	r.Gauge("y").Set(2)
	r.CounterVec("z", "k").With("v").Inc()
	names := r.Names()
	want := []string{"x", "y", "z"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestRegistrySnapshotTyped(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(10)
	r.Histogram("x").Observe(42) // name collision must stay distinguishable
	r.Gauge("g").Set(-3)
	r.CounterVec("sb", "shuffle", "partition").With("1", "0").Add(5)
	r.CounterVec("sb", "shuffle", "partition").With("1", "1").Add(9)
	snap := r.Snapshot()
	if len(snap.Counters) != 3 { // x + two sb children
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "g" || snap.Gauges[0].Value != -3 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Name != "x" || snap.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	// Samples sorted by (name, label values).
	if snap.Counters[0].Name != "sb" || snap.Counters[1].Name != "sb" || snap.Counters[2].Name != "x" {
		t.Fatalf("counter order = %+v", snap.Counters)
	}
	if snap.Counters[0].Labels[1].Value != "0" || snap.Counters[1].Labels[1].Value != "1" {
		t.Fatalf("label order = %+v", snap.Counters)
	}
}
