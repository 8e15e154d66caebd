//go:build !race

// The race detector changes what escapes to the heap, so the ceiling here
// holds only in a plain build.

package stream

import (
	"testing"
	"time"
)

// TestWindowerSteadyStateAllocs holds a warm tumbling window over known
// keys to one allocation per window: the sink's copy of the fired panes.
// The window that opens is a fired one off pipeState.free, its key table
// reset and its pane vector cut to empty, both keeping their room, so
// neither grows again.
func TestWindowerSteadyStateAllocs(t *testing.T) {
	const window, keys = time.Second, 8
	p := New(Config{Workers: 1, Window: window})
	defer p.Close()
	w := &windower{
		p: p, st: newPipeState(),
		sojourn:   p.Reg.Histogram("sojourn_ns"),
		late:      p.Reg.Counter("late_dropped"),
		processed: p.Reg.Counter("events_processed"),
	}
	ms := make([]message, keys)
	for i, key := range benchKeys(keys) {
		ms[i] = message{ev: Event{Key: key, Value: 1}, watermark: -1}
	}
	start := time.Duration(0)
	cycle := func() {
		for i := range ms {
			ms[i].ev.EventTime = start + time.Duration(i)
		}
		if n := w.events(ms); n != keys {
			t.Fatalf("folded %d of %d events", n, keys)
		}
		start += window
		w.advance(start)
	}
	for range 4 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(256, cycle); allocs > 1 {
		t.Errorf("%v allocations per window, want at most 1 (the sink's result chunk)", allocs)
	}
	if got, want := p.Reg.Counter("events_processed").Value(), int64(261*keys); got != want {
		t.Fatalf("events_processed = %d, want %d", got, want)
	}
}
