// Replayable sources for the stream engine. Exactly-once recovery needs
// the input to be rewindable: instead of re-reading events lost inside a
// crashed worker, recovery seeks the source back to the last committed
// checkpoint's offset and replays the tail. Both sources here are pure
// functions of (their construction parameters, offset), so a rewound
// replay delivers byte-identical events in byte-identical order.
package stream

import (
	"fmt"
	"time"

	"repro/internal/rng"
)

// Source is a replayable, offset-addressed event stream. Offset reports
// how many events have been read (the offset of the next event); SeekTo
// rewinds (or fast-forwards) the cursor, which is what recovery uses to
// replay the tail after a rollback. Sources are driven from a single
// goroutine (the Runner's loop) and need not be concurrency-safe.
type Source interface {
	Next() (Event, bool)
	Offset() int64
	SeekTo(offset int64) error
}

// GeneratorSource is a deterministic synthetic event stream: event i is a
// pure function of (seed, i), generated from a per-offset SplitMix-seeded
// RNG, so any offset can be re-read at any time. Event times advance by
// Step per record with up to Jitter of seeded disorder, giving the
// bounded out-of-orderness the watermark lag is meant to absorb.
type GeneratorSource struct {
	seed   uint64
	n      int64
	keys   int
	step   time.Duration
	jitter time.Duration
	off    int64
}

// NewGeneratorSource builds a generator of n events over `keys` distinct
// keys. step is the mean event-time advance per record (required > 0);
// jitter adds up to that much seeded event-time disorder per record.
func NewGeneratorSource(seed uint64, n int64, keys int, step, jitter time.Duration) *GeneratorSource {
	if keys <= 0 {
		keys = 16
	}
	if step <= 0 {
		step = time.Millisecond
	}
	return &GeneratorSource{seed: seed, n: n, keys: keys, step: step, jitter: jitter}
}

// At returns event i without moving the cursor.
func (g *GeneratorSource) At(i int64) Event {
	// Decorrelate nearby offsets the same way rng seeds decorrelate:
	// a golden-ratio stride through the seed space.
	r := rng.New(g.seed + uint64(i)*0x9e3779b97f4a7c15)
	t := time.Duration(i) * g.step
	if g.jitter > 0 {
		t += time.Duration(r.Int63n(int64(g.jitter) + 1))
	}
	return Event{
		Key:       fmt.Sprintf("k%03d", r.Intn(g.keys)),
		Value:     float64(1 + r.Intn(100)),
		EventTime: t,
	}
}

// Next returns the event at the cursor and advances it.
func (g *GeneratorSource) Next() (Event, bool) {
	if g.off >= g.n {
		return Event{}, false
	}
	ev := g.At(g.off)
	g.off++
	return ev, true
}

// Offset returns the offset of the next unread event.
func (g *GeneratorSource) Offset() int64 { return g.off }

// SeekTo moves the cursor; used by recovery to replay from a checkpoint.
func (g *GeneratorSource) SeekTo(off int64) error {
	if off < 0 || off > g.n {
		return fmt.Errorf("stream: seek to %d outside [0,%d]", off, g.n)
	}
	g.off = off
	return nil
}

// SliceSource replays a fixed event slice; handy for tests and for
// feeding captured traces through the fault-tolerant runner.
type SliceSource struct {
	evs []Event
	off int64
}

// NewSliceSource wraps evs (not copied) as a replayable source.
func NewSliceSource(evs []Event) *SliceSource { return &SliceSource{evs: evs} }

// Next returns the event at the cursor and advances it.
func (s *SliceSource) Next() (Event, bool) {
	if s.off >= int64(len(s.evs)) {
		return Event{}, false
	}
	ev := s.evs[s.off]
	s.off++
	return ev, true
}

// Offset returns the offset of the next unread event.
func (s *SliceSource) Offset() int64 { return s.off }

// SeekTo moves the cursor; used by recovery to replay from a checkpoint.
func (s *SliceSource) SeekTo(off int64) error {
	if off < 0 || off > int64(len(s.evs)) {
		return fmt.Errorf("stream: seek to %d outside [0,%d]", off, len(s.evs))
	}
	s.off = off
	return nil
}
