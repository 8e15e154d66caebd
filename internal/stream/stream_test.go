package stream

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/workload"
)

func send(t *testing.T, p *Pipeline, key string, v float64, at time.Duration) {
	t.Helper()
	if err := p.Send(Event{Key: key, Value: v, EventTime: at}); err != nil {
		t.Fatal(err)
	}
}

func TestTumblingWindowSums(t *testing.T) {
	p := New(Config{Workers: 2, Window: 10 * time.Second})
	send(t, p, "a", 1, 1*time.Second)
	send(t, p, "a", 2, 5*time.Second)
	send(t, p, "a", 4, 12*time.Second) // next window
	send(t, p, "b", 8, 3*time.Second)
	results := p.Close()
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	byKey := map[string][]Result{}
	for _, r := range results {
		byKey[r.Key] = append(byKey[r.Key], r)
	}
	if byKey["a"][0].Sum != 3 || byKey["a"][0].Count != 2 || byKey["a"][0].WindowStart != 0 {
		t.Fatalf("a window 0 = %+v", byKey["a"][0])
	}
	if byKey["a"][1].Sum != 4 || byKey["a"][1].WindowStart != 10*time.Second {
		t.Fatalf("a window 10 = %+v", byKey["a"][1])
	}
	if byKey["b"][0].Sum != 8 {
		t.Fatalf("b = %+v", byKey["b"][0])
	}
}

func TestWatermarkFiresWindows(t *testing.T) {
	p := New(Config{Workers: 1, Window: 10 * time.Second})
	send(t, p, "k", 5, 2*time.Second)
	if err := p.Advance(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Window [0,10) fired at watermark 15 (lateness 0). Give the worker a
	// moment, then check without closing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := p.results.snapshot()
		if len(got) == 1 {
			if got[0].Sum != 5 {
				t.Fatalf("fired %+v", got[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("window did not fire after watermark passed")
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
}

func TestLateEventWithinLatenessIsAbsorbed(t *testing.T) {
	p := New(Config{Workers: 1, Window: 10 * time.Second, AllowedLateness: 10 * time.Second})
	send(t, p, "k", 1, 2*time.Second)
	_ = p.Advance(12 * time.Second) // window [0,10) past end, within lateness
	send(t, p, "k", 10, 3*time.Second)
	results := p.Close()
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Sum != 11 || results[0].Count != 2 {
		t.Fatalf("late event not absorbed: %+v", results[0])
	}
	if p.Reg.Counter("late_dropped").Value() != 0 {
		t.Fatal("in-lateness event counted as dropped")
	}
}

func TestTooLateEventDropped(t *testing.T) {
	p := New(Config{Workers: 1, Window: 10 * time.Second, AllowedLateness: 5 * time.Second})
	send(t, p, "k", 1, 2*time.Second)
	_ = p.Advance(30 * time.Second) // [0,10) closed at 15
	send(t, p, "k", 99, 3*time.Second)
	results := p.Close()
	if len(results) != 1 || results[0].Sum != 1 {
		t.Fatalf("results = %+v", results)
	}
	if p.Reg.Counter("late_dropped").Value() != 1 {
		t.Fatalf("late_dropped = %d", p.Reg.Counter("late_dropped").Value())
	}
}

func TestSlidingWindows(t *testing.T) {
	// Window 10s sliding by 5s: an event at t=7 belongs to [0,10) and [5,15).
	p := New(Config{Workers: 1, Window: 10 * time.Second, Slide: 5 * time.Second})
	send(t, p, "k", 3, 7*time.Second)
	results := p.Close()
	if len(results) != 2 {
		t.Fatalf("panes = %+v", results)
	}
	if results[0].WindowStart != 0 || results[1].WindowStart != 5*time.Second {
		t.Fatalf("pane starts = %v, %v", results[0].WindowStart, results[1].WindowStart)
	}
	for _, r := range results {
		if r.Sum != 3 || r.Count != 1 {
			t.Fatalf("pane %+v", r)
		}
	}
}

func TestKeysPartitionedConsistently(t *testing.T) {
	p := New(Config{Workers: 4, Window: time.Minute})
	for i := 0; i < 1000; i++ {
		send(t, p, fmt.Sprintf("key-%d", i%10), 1, time.Second)
	}
	results := p.Close()
	if len(results) != 10 {
		t.Fatalf("got %d panes, want 10 (one per key)", len(results))
	}
	for _, r := range results {
		if r.Count != 100 {
			t.Fatalf("key %s count %d, want 100", r.Key, r.Count)
		}
	}
}

func TestSendAfterClose(t *testing.T) {
	p := New(Config{Window: time.Second})
	p.Close()
	if err := p.Send(Event{Key: "k"}); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
	if err := p.Advance(time.Second); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
	// Double close is safe.
	p.Close()
}

func TestClickstreamEndToEnd(t *testing.T) {
	clicks := workload.Clickstream(20000, 500, 50, 5000, 100*time.Millisecond, 3)
	p := New(Config{Workers: 4, Window: time.Second, AllowedLateness: 500 * time.Millisecond})
	var wm time.Duration
	for i, c := range clicks {
		send(t, p, c.User, 1, c.EventTime)
		if i%1000 == 999 {
			if c.EventTime > wm {
				wm = c.EventTime - 200*time.Millisecond
				_ = p.Advance(wm)
			}
		}
	}
	results := p.Close()
	var total int64
	for _, r := range results {
		total += r.Count
	}
	dropped := p.Reg.Counter("late_dropped").Value()
	if total+dropped != 20000 {
		t.Fatalf("counted %d + dropped %d != 20000", total, dropped)
	}
	if float64(dropped) > 0.05*20000 {
		t.Fatalf("dropped %d events (>5%%)", dropped)
	}
	if p.Reg.Histogram("sojourn_ns").Count() == 0 {
		t.Fatal("no sojourn latencies recorded")
	}
}

func TestBackpressureBoundsQueueDepth(t *testing.T) {
	// Slow consumers (WorkSpin) + fast producer: bounded buffer keeps
	// queue depth at the cap; unbounded lets it grow far beyond.
	const n = 20000
	run := func(buffer int) int {
		p := New(Config{Workers: 1, Buffer: buffer, Window: time.Minute, WorkSpin: 2000})
		maxDepth := 0
		for i := 0; i < n; i++ {
			_ = p.Send(Event{Key: "k", Value: 1, EventTime: time.Duration(i) * time.Millisecond})
			if d := p.QueueDepth(); d > maxDepth {
				maxDepth = d
			}
		}
		p.Close()
		return maxDepth
	}
	bounded := run(64)
	unbounded := run(0)
	if bounded > 64 {
		t.Fatalf("bounded queue reached depth %d > 64", bounded)
	}
	if unbounded < 10*bounded {
		t.Fatalf("unbounded depth %d not clearly larger than bounded %d", unbounded, bounded)
	}
}

func TestSojournLatencyLowerWithBackpressureAtOverload(t *testing.T) {
	// At overload, p99 sojourn with a bounded queue stays near
	// (buffer × service time); unbounded grows with the whole backlog.
	const n = 30000
	run := func(buffer int) int64 {
		p := New(Config{Workers: 1, Buffer: buffer, Window: time.Minute, WorkSpin: 1000})
		for i := 0; i < n; i++ {
			_ = p.Send(Event{Key: "k", Value: 1, EventTime: time.Duration(i) * time.Millisecond})
		}
		p.Close()
		return p.Reg.Histogram("sojourn_ns").Quantile(0.99)
	}
	bounded := run(32)
	unbounded := run(0)
	if unbounded < 2*bounded {
		t.Fatalf("unbounded p99 %v not clearly above bounded p99 %v",
			time.Duration(unbounded), time.Duration(bounded))
	}
}

// TestFiringOrderRepeats: a worker fires the same events in the same order
// on every run (windows by start, each window's panes in order of first
// arrival), not in Go's map order: two fresh single-worker pipelines fed
// alike deliver equal sequences to the sink, before Close sorts them.
func TestFiringOrderRepeats(t *testing.T) {
	keys, gen := benchKeys(64), rng.New(7)
	evs := make([]Event, 3000)
	for i := range evs { // out of order by up to 50 ms
		evs[i] = Event{Key: keys[gen.Intn(len(keys))], Value: float64(i), EventTime: time.Duration(i+gen.Intn(50)) * time.Millisecond}
	}
	fire := func(cfg Config) []Result {
		p := New(cfg)
		for i, ev := range evs {
			send(t, p, ev.Key, ev.Value, ev.EventTime)
			if i%100 == 99 {
				if err := p.Advance(time.Duration(i-50) * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
		}
		p.in.close()
		return p.results.snapshot()
	}
	for _, cfg := range []Config{
		{Workers: 1, Window: 100 * time.Millisecond},
		{Workers: 1, Window: 100 * time.Millisecond, Slide: 25 * time.Millisecond},
	} {
		for run := range 5 {
			if a, b := fire(cfg), fire(cfg); !slices.Equal(a, b) {
				t.Fatalf("slide %v, run %d: two pipelines fired the same events in different orders", cfg.Slide, run)
			}
		}
	}
}

// benchKeys interns the benchmark keys so the timed loops measure the
// pipeline, not fmt.Sprintf.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	return keys
}

func BenchmarkPipelineThroughput(b *testing.B) {
	keys := benchKeys(64)
	p := New(Config{Workers: 4, Buffer: 1024, Window: time.Second})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Send(Event{Key: keys[i%64], Value: 1, EventTime: time.Duration(i) * time.Microsecond})
	}
	p.Close()
}

// ringSource is a replayable source of n events cycling through a
// pre-generated ring of (key, value, jitter), with interned keys.
type ringSource struct {
	ring   []Event // EventTime holds the jitter
	step   time.Duration
	off, n int64
}

func (s *ringSource) Next() (Event, bool) {
	if s.off >= s.n {
		return Event{}, false
	}
	ev := s.ring[s.off%int64(len(s.ring))]
	ev.EventTime += time.Duration(s.off) * s.step
	s.off++
	return ev, true
}

func (s *ringSource) Offset() int64 { return s.off }

func (s *ringSource) SeekTo(off int64) error { s.off = off; return nil }

// BenchmarkRunnerWindow drives a Runner at the repository benchmark's
// stream_window parameters (bench/sut.go), so
// `go test -bench RunnerWindow -cpuprofile` profiles what that workload
// runs.
func BenchmarkRunnerWindow(b *testing.B) {
	keys := benchKeys(256)
	gen := NewGeneratorSource(42, 1<<16, len(keys), time.Millisecond, 4*time.Millisecond)
	src := &ringSource{step: time.Millisecond, n: int64(b.N)}
	for i := int64(0); i < 1<<16; i++ {
		ev := gen.At(i)
		ev.EventTime -= time.Duration(i) * time.Millisecond
		ev.Key = keys[i%256]
		src.ring = append(src.ring, ev)
	}
	r := NewRunner(RunConfig{
		Pipeline:        Config{Workers: 4, Buffer: 256, Window: 2 * time.Second},
		CheckpointEvery: 20_000,
		WatermarkEvery:  256,
		WatermarkLag:    5 * time.Millisecond,
		// Like the repository benchmark, stop timing at the last record:
		// Close's one-off sort of every result is not the steady state.
		TickEvery: b.N,
		Tick:      b.StopTimer,
	}, src)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := r.Run(); err != nil {
		b.Fatal(err)
	}
	if late := r.Metrics().Counter("late_dropped").Value(); late != 0 {
		b.Fatalf("%d late events", late)
	}
}
