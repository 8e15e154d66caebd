package stream

import (
	"encoding/binary"
	"math"
	"sort"
	"time"

	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// SessionResult is one closed session: a burst of activity for a key with
// no gap larger than the configured timeout.
type SessionResult struct {
	Key        string
	Start, End time.Duration // [first event, last event]
	Sum        float64
	Count      int64
}

// SessionConfig configures a Sessionizer.
type SessionConfig struct {
	// Gap is the inactivity timeout that closes a session; required.
	Gap time.Duration
	// Workers is the keyed parallelism. Default 4.
	Workers int
	// Buffer bounds each worker lane's pending events (<= 0: effectively
	// unbounded); see Config.Buffer.
	Buffer int
}

// Sessionizer groups keyed events into gap-separated sessions in event
// time: events within Gap of an open session extend it (in any arrival
// order, merging sessions that a late event bridges); watermarks close
// sessions whose end precedes wm - Gap. This is the sessionization
// workload behind funnel/engagement analytics. It runs on the same lanes
// as Pipeline (lane.go), so it supports aligned checkpoint barriers,
// worker crash/restore, and exactly-once output via per-worker sequence
// dedup at the sink — a session's identity is not unique (the same
// (key, start) can close twice in one run), so sequences, not content,
// are the dedup key.
type Sessionizer struct {
	cfg SessionConfig
	in  *lanes
	out sink[SessionResult]

	// Reg exposes the sessionizer's fault-tolerance counters
	// (sessions_deduped, checkpoints_committed, checkpoint_bytes, ...).
	Reg *metrics.Registry
}

type session struct {
	start, end time.Duration
	sum        float64
	count      int64
}

// sessState is one session worker's volatile state.
type sessState struct {
	watermark time.Duration
	seq       int64
	open      map[string][]*session
}

func newSessState() *sessState {
	return &sessState{open: map[string][]*session{}}
}

// NewSessionizer starts the workers.
func NewSessionizer(cfg SessionConfig) *Sessionizer {
	if cfg.Gap <= 0 {
		panic("stream: SessionConfig.Gap is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	s := &Sessionizer{cfg: cfg, Reg: metrics.NewRegistry()}
	s.out.hwm = make([]int64, cfg.Workers)
	s.out.deduped = s.Reg.Counter("sessions_deduped")
	s.in = startLanes(cfg.Workers, cfg.Buffer, s.Reg, nil, func(worker int) operator {
		return &sessioner{s: s, worker: worker, st: newSessState()}
	})
	return s
}

// Send routes one event to its key's worker.
func (s *Sessionizer) Send(ev Event) error { return s.in.send(ev) }

// Advance broadcasts a watermark: sessions whose last event precedes
// wm - Gap can no longer be extended and are emitted.
func (s *Sessionizer) Advance(wm time.Duration) error { return s.in.advance(wm) }

// Close flushes every open session and returns all sessions, ordered by
// (key, start).
func (s *Sessionizer) Close() []SessionResult {
	s.in.close()
	out := s.out.snapshot()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// TriggerCheckpoint injects an aligned barrier and commits once every
// worker acked its snapshot; see Pipeline.TriggerCheckpoint.
func (s *Sessionizer) TriggerCheckpoint(offset int64, wm time.Duration) (*Checkpoint, error) {
	return s.in.checkpoint(offset, wm, trace.TraceContext{})
}

// CrashWorker drops one worker's open sessions and stops it processing
// until RestoreFrom; see Pipeline.CrashWorker.
func (s *Sessionizer) CrashWorker(i int) error { return s.in.crash(i) }

// RestoreFrom rolls every worker back to the checkpoint; the sink's
// sequence high-waters stay put and dedup the replay. See
// Pipeline.RestoreFrom.
func (s *Sessionizer) RestoreFrom(ck *Checkpoint) error {
	return s.in.restore(ck, trace.TraceContext{})
}

// sessioner is the Sessionizer's operator: one worker's open sessions.
type sessioner struct {
	s      *Sessionizer
	worker int
	st     *sessState
	fired  []SessionResult // one firing's results, reused
}

func (o *sessioner) snapshot() []byte { return o.st.encode() }

func (o *sessioner) restore(snap []byte) error {
	st, err := decodeSessState(snap)
	if err == nil {
		o.st = st
	}
	return err
}

func (o *sessioner) events(ms []message) int {
	gap, st := o.s.cfg.Gap, o.st
	n := 0
	for ; n < len(ms) && ms[n].isEvent(); n++ {
		ev := &ms[n].ev
		// Merge every session this event touches ([start-Gap, end+Gap])
		// into one; the untouched ones stay as they are.
		merged := &session{start: ev.EventTime, end: ev.EventTime, sum: ev.Value, count: 1}
		var rest []*session
		for _, x := range st.open[ev.Key] {
			if ev.EventTime < x.start-gap || ev.EventTime > x.end+gap {
				rest = append(rest, x)
				continue
			}
			merged.start = min(merged.start, x.start)
			merged.end = max(merged.end, x.end)
			merged.sum += x.sum
			merged.count += x.count
		}
		st.open[ev.Key] = append(rest, merged)
	}
	return n
}

// advance emits sessions that can no longer grow, each carrying the
// worker's next output sequence for sink-side dedup.
func (o *sessioner) advance(wm time.Duration) {
	st := o.st
	if wm <= st.watermark {
		return
	}
	st.watermark = wm
	out := o.fired[:0]
	for key, sess := range st.open {
		var keep []*session
		for _, x := range sess {
			if x.end+o.s.cfg.Gap <= wm {
				out = append(out, SessionResult{
					Key: key, Start: x.start, End: x.end, Sum: x.sum, Count: x.count,
				})
			} else {
				keep = append(keep, x)
			}
		}
		if len(keep) == 0 {
			delete(st.open, key)
		} else {
			st.open[key] = keep
		}
	}
	st.seq += int64(len(out))
	o.s.out.deliver(o.worker, st.seq, out)
	o.fired = out
}

// sessionSize is one session's encoded size: start, end, sum, count.
const sessionSize = 4 * 8

// encode serializes a session worker's state; keys and sessions are
// sorted so identical state yields identical bytes.
func (st *sessState) encode() []byte {
	keys := make([]string, 0, len(st.open))
	size := 8 + 8 + 4
	for k, sess := range st.open {
		keys = append(keys, k)
		size += 4 + len(k) + 4 + len(sess)*sessionSize
	}
	sort.Strings(keys)
	b := binary.BigEndian.AppendUint64(make([]byte, 0, size), uint64(st.watermark))
	b = binary.BigEndian.AppendUint64(b, uint64(st.seq))
	b = binary.BigEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		sess := append([]*session(nil), st.open[k]...)
		sort.Slice(sess, func(i, j int) bool { return sess[i].start < sess[j].start })
		b = binary.BigEndian.AppendUint32(ha.AppendString(b, k), uint32(len(sess)))
		for _, x := range sess {
			b = binary.BigEndian.AppendUint64(b, uint64(x.start))
			b = binary.BigEndian.AppendUint64(b, uint64(x.end))
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(x.sum))
			b = binary.BigEndian.AppendUint64(b, uint64(x.count))
		}
	}
	return b
}

func decodeSessState(b []byte) (*sessState, error) {
	d := ha.NewDecoder(b)
	st := newSessState()
	st.watermark = time.Duration(d.U64())
	st.seq = int64(d.U64())
	for nKeys := d.Count(4 + 4); nKeys > 0 && d.Err() == nil; nKeys-- {
		key := d.String()
		var sess []*session
		for n := d.Count(sessionSize); n > 0 && d.Err() == nil; n-- {
			x := &session{start: time.Duration(d.U64()), end: time.Duration(d.U64())}
			x.sum = math.Float64frombits(d.U64())
			x.count = int64(d.U64())
			sess = append(sess, x)
		}
		st.open[key] = sess
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return st, nil
}
