package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestWindowedHistogramSeries(t *testing.T) {
	w := NewWindowedHistogram(time.Second)
	// Two observations in window 0, one in window 2 (window 1 stays empty).
	w.Observe(100*time.Millisecond, 10)
	w.Observe(900*time.Millisecond, 30)
	w.Observe(2500*time.Millisecond, 50)
	series := w.Series()
	if len(series) != 2 {
		t.Fatalf("series len = %d, want 2 (empty windows omitted)", len(series))
	}
	w0, w2 := series[0], series[1]
	if w0.Start != 0 || w0.Count != 2 {
		t.Fatalf("window 0 = %+v", w0)
	}
	if w2.Start != 2*time.Second || w2.Count != 1 {
		t.Fatalf("window 2 = %+v", w2)
	}
	if w0.PerSec != 2 {
		t.Fatalf("window 0 per-sec = %v", w0.PerSec)
	}
	if w0.Min != 10 || w0.Max != 30 {
		t.Fatalf("window 0 min/max = %d/%d", w0.Min, w0.Max)
	}
	tot := w.Total()
	if tot.Count != 3 || tot.Min != 10 || tot.Max != 50 {
		t.Fatalf("total = %+v", tot)
	}
}

func TestWindowedHistogramQuantiles(t *testing.T) {
	w := NewWindowedHistogram(time.Second)
	for i := int64(1); i <= 1000; i++ {
		w.Observe(time.Millisecond, i)
	}
	s := w.Series()
	if len(s) != 1 {
		t.Fatalf("series len = %d", len(s))
	}
	// Log-bucketed quantiles are upper bounds; sanity-order them.
	if !(s[0].P50 <= s[0].P95 && s[0].P95 <= s[0].P99 && s[0].P99 <= s[0].P999) {
		t.Fatalf("quantiles out of order: %+v", s[0])
	}
	if s[0].P999 > s[0].Max*2 {
		t.Fatalf("p999 = %d implausible vs max %d", s[0].P999, s[0].Max)
	}
}

func TestWindowedHistogramDefaultsAndNil(t *testing.T) {
	w := NewWindowedHistogram(0)
	if w.width != time.Second {
		t.Fatalf("default width = %v", w.width)
	}
	w.Observe(-time.Second, 5) // pre-epoch clamps into catch-all window
	if got := w.Series(); len(got) != 1 || got[0].Count != 1 {
		t.Fatalf("pre-epoch series = %+v", got)
	}

	var nilW *WindowedHistogram
	nilW.Observe(0, 1)
	nilW.ObserveDuration(0, time.Second)
	if nilW.Series() != nil {
		t.Fatal("nil WindowedHistogram not a no-op")
	}
	if nilW.Total().Count != 0 {
		t.Fatal("nil Total() nonzero")
	}
}

func TestWindowedHistogramConcurrent(t *testing.T) {
	w := NewWindowedHistogram(10 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.ObserveDuration(time.Duration(i)*time.Millisecond, time.Duration(g+1)*time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := w.Total().Count; got != 4000 {
		t.Fatalf("total count = %d", got)
	}
	var n int64
	for _, s := range w.Series() {
		n += s.Count
	}
	if n != 4000 {
		t.Fatalf("series counts sum = %d", n)
	}
}

func TestHistogramSnapshotP999(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.P999 < s.P99 {
		t.Fatalf("p999 %d < p99 %d", s.P999, s.P99)
	}
}
