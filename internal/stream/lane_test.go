package stream

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Four producers push numbered events into one lane while a consumer
// takes batches: every producer's events must come out in its own order,
// no batch may exceed the bound (take hands over exactly what was pending,
// so this is the bound on len(pending)), and nothing may be lost.
func TestLanePerProducerFIFOAndBound(t *testing.T) {
	const producers, perProducer = 4, 5000
	for _, bound := range []int{1, 2, 64} {
		l := newLane(bound)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				key := fmt.Sprint(p)
				for i := 0; i < perProducer; i++ {
					if err := l.push(message{ev: Event{Key: key, Value: float64(i)}, watermark: -1}); err != nil {
						t.Errorf("push: %v", err)
						return
					}
				}
			}(p)
		}
		go func() {
			wg.Wait()
			l.close()
		}()
		next := map[string]float64{}
		for batch := l.take(nil); len(batch) > 0; batch = l.take(batch) {
			if len(batch) > bound {
				t.Fatalf("bound %d: took a batch of %d", bound, len(batch))
			}
			for _, m := range batch {
				if m.ev.Value != next[m.ev.Key] {
					t.Fatalf("bound %d: producer %s delivered %v, want %v", bound, m.ev.Key, m.ev.Value, next[m.ev.Key])
				}
				next[m.ev.Key]++
			}
		}
		for p := 0; p < producers; p++ {
			if got := next[fmt.Sprint(p)]; got != perProducer {
				t.Fatalf("bound %d: producer %d delivered %v of %d", bound, p, got, perProducer)
			}
		}
	}
}

// The batch path: producers push runs of 1 to 2 x bound messages, so
// most runs do not fit and are split. Every producer's messages must come
// out in its own order, no taken batch may exceed the bound, and nothing
// may be lost.
func TestLaneBatchPushKeepsBoundAndOrder(t *testing.T) {
	const producers, perProducer = 4, 5000
	for _, bound := range []int{1, 2, 64} {
		l := newLane(bound)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				key := fmt.Sprint(p)
				run := make([]message, 0, 2*bound)
				for i, size := 0, 1; i < perProducer; size = size%(2*bound) + 1 {
					run = run[:0]
					for ; len(run) < size && i < perProducer; i++ {
						run = append(run, message{ev: Event{Key: key, Value: float64(i)}, watermark: -1})
					}
					if err := l.push(run...); err != nil {
						t.Errorf("push: %v", err)
						return
					}
				}
			}(p)
		}
		go func() {
			wg.Wait()
			l.close()
		}()
		next := map[string]float64{}
		for batch := l.take(nil); len(batch) > 0; batch = l.take(batch) {
			if len(batch) > bound {
				t.Fatalf("bound %d: took a batch of %d", bound, len(batch))
			}
			for _, m := range batch {
				if m.ev.Value != next[m.ev.Key] {
					t.Fatalf("bound %d: producer %s delivered %v, want %v", bound, m.ev.Key, m.ev.Value, next[m.ev.Key])
				}
				next[m.ev.Key]++
			}
		}
		for p := 0; p < producers; p++ {
			if got := next[fmt.Sprint(p)]; got != perProducer {
				t.Fatalf("bound %d: producer %d delivered %v of %d", bound, p, got, perProducer)
			}
		}

		// A batch push blocked on a full lane is released by close with
		// ErrClosed, having delivered only what fit. Once the lane holds
		// that much, the push has released the lock: it is waiting.
		l = newLane(bound)
		blocked := make(chan error, 1)
		go func() { blocked <- l.push(make([]message, 2*bound)...) }()
		for pending := 0; pending < bound; {
			runtime.Gosched()
			l.mu.Lock()
			pending = len(l.pending)
			l.mu.Unlock()
		}
		select {
		case err := <-blocked:
			t.Fatalf("bound %d: batch push into a full lane returned %v", bound, err)
		default:
		}
		l.close()
		if err := <-blocked; !errors.Is(err, ErrClosed) {
			t.Fatalf("bound %d: blocked batch push after close: %v, want ErrClosed", bound, err)
		}
		if batch := l.take(nil); len(batch) != bound {
			t.Fatalf("bound %d: close left %d messages pending, want the %d that fit", bound, len(batch), bound)
		}
	}
}

// A producer blocked on a full lane must be released by close, with
// ErrClosed, and what was pending must still reach the worker.
func TestLaneCloseReleasesBlockedProducer(t *testing.T) {
	l := newLane(1)
	if err := l.push(message{watermark: 1}); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error)
	go func() { blocked <- l.push(message{watermark: 2}) }()
	// The second push cannot complete while the lane is full.
	select {
	case err := <-blocked:
		t.Fatalf("push into a full lane returned %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	l.close()
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked push after close: %v, want ErrClosed", err)
	}
	batch := l.take(nil)
	if len(batch) != 1 || batch[0].watermark != 1 {
		t.Fatalf("pending message lost at close: %v", batch)
	}
	if batch = l.take(batch); len(batch) != 0 {
		t.Fatal("closed, drained lane still yields input")
	}
}

func TestSojournSampledFromFirstEvent(t *testing.T) {
	p := New(Config{Workers: 1, Window: time.Second})
	send(t, p, "k", 1, 0)
	p.Close()
	if n := p.Reg.Histogram("sojourn_ns").Count(); n != 1 {
		t.Fatalf("sojourn_ns count after one Send = %d, want 1", n)
	}
	// 1 in 64 per lane after that.
	p = New(Config{Workers: 1, Window: time.Second})
	for i := 0; i < 640; i++ {
		send(t, p, "k", 1, 0)
	}
	p.Close()
	if n := p.Reg.Histogram("sojourn_ns").Count(); n != 10 {
		t.Fatalf("sojourn_ns count after 640 Sends = %d, want 10", n)
	}
	if n := p.Reg.Counter("events_processed").Value(); n != 640 {
		t.Fatalf("events_processed = %d, want 640", n)
	}
}

// sleepySource sleeps once, before handing out the event at offset at.
type sleepySource struct {
	*SliceSource
	at  int64
	nap time.Duration
}

func (s *sleepySource) Next() (Event, bool) {
	if s.Offset() == s.at {
		time.Sleep(s.nap)
	}
	return s.SliceSource.Next()
}

// The Runner stages events before it pushes them, and a sampled event's
// sojourn must count that wait: here the lane's first event (sampled) sits
// in its stage while the source sleeps. Only a lower bound is checked, so
// a slow machine cannot fail it.
func TestSojournIncludesStaging(t *testing.T) {
	const nap = 5 * time.Millisecond
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = Event{Key: "k", Value: 1, EventTime: time.Duration(i) * time.Millisecond}
	}
	r := NewRunner(RunConfig{Pipeline: Config{Workers: 1, Window: time.Second}},
		&sleepySource{SliceSource: NewSliceSource(evs), at: 1, nap: nap})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(r.Metrics().Histogram("sojourn_ns").Max()); got < nap {
		t.Fatalf("sojourn_ns max = %v, want >= %v: the stamp was taken at push, not at staging", got, nap)
	}
}

// A crash that lands between two events of the same batch must split the
// batch exactly there: the worker is stalled while events, the crash and
// more events queue up behind it, takes them all in one swap, and the
// recovered output must still be byte-identical to a fault-free run.
func TestCrashInsideBatchExactlyOnce(t *testing.T) {
	const n, ckptAt, crashAt, crashEnd = 4000, 1000, 2500, 3000
	src := NewGeneratorSource(11, n, 8, time.Millisecond, 4*time.Millisecond)
	var evs []Event
	for ev, ok := src.Next(); ok; ev, ok = src.Next() {
		evs = append(evs, ev)
	}
	cfg := Config{Workers: 1, Window: 100 * time.Millisecond}
	// feed sends evs[from:to] with a watermark every 100 events, lagging
	// the jitter bound, and returns how many messages that was.
	feed := func(p *Pipeline, from, to int) (pushed int) {
		for i := from; i < to; i++ {
			send(t, p, evs[i].Key, evs[i].Value, evs[i].EventTime)
			pushed++
			if (i+1)%100 == 0 {
				if err := p.Advance(time.Duration(i)*time.Millisecond - 5*time.Millisecond); err != nil {
					t.Fatal(err)
				}
				pushed++
			}
		}
		return pushed
	}

	clean := New(cfg)
	feed(clean, 0, n)
	want := clean.Close()
	if got := clean.Reg.Counter("late_dropped").Value(); got != 0 {
		t.Fatalf("clean run dropped %d late events", got)
	}

	p := New(cfg)
	feed(p, 0, ckptAt)
	ck, err := p.TriggerCheckpoint(ckptAt, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stall the worker on a barrier whose ack nobody receives yet.
	stall := make(chan workerAck)
	l := p.in.ls[0]
	if err := l.push(message{watermark: -1, ctl: &control{op: ctlBarrier, ack: stall}}); err != nil {
		t.Fatal(err)
	}
	for p.QueueDepth() > 0 { // until the worker holds the stall barrier
		time.Sleep(time.Millisecond)
	}
	queued := feed(p, ckptAt, crashAt)
	crashed := make(chan workerAck, 1)
	if err := l.push(message{watermark: -1, ctl: &control{op: ctlCrash, ack: crashed}}); err != nil {
		t.Fatal(err)
	}
	queued += 1 + feed(p, crashAt, crashEnd)
	if got := p.QueueDepth(); got != queued {
		t.Fatalf("lane holds %d messages, want all %d queued behind the stalled worker", got, queued)
	}
	<-stall // release: the next take swaps in events, crash and events at once
	<-crashed
	if err := p.RestoreFrom(ck); err != nil {
		t.Fatal(err)
	}
	feed(p, ckptAt, n)
	got := p.Close()

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered output diverged from the fault-free run: %d vs %d panes", len(got), len(want))
	}
	if d := p.Reg.Counter("panes_deduped").Value(); d <= 0 {
		t.Fatalf("panes_deduped = %d, want > 0 (panes fired before the crash are re-fired by the replay)", d)
	}
	if d := p.Reg.Counter("crashed_dropped_events").Value(); d != crashEnd-crashAt {
		t.Fatalf("crashed_dropped_events = %d, want %d", d, crashEnd-crashAt)
	}
}
