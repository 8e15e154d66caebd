package stream

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestPipeStateEncodeRoundTrip(t *testing.T) {
	st := newPipeState()
	st.watermark = 42 * time.Millisecond
	st.seq = 7
	*st.pane(200*time.Millisecond, "b") = paneAgg{sum: -1.25, count: 9}
	*st.pane(100*time.Millisecond, "b") = paneAgg{sum: 0.5, count: 1}
	*st.pane(100*time.Millisecond, "a") = paneAgg{sum: 3.5, count: 2}
	b := st.encode()
	if !reflect.DeepEqual(b, st.encode()) {
		t.Fatal("encoding is not deterministic")
	}
	got, err := decodePipeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if enc := got.encode(); !reflect.DeepEqual(enc, b) {
		t.Fatalf("round trip mismatch:\n%x\nvs\n%x", enc, b)
	}
	for cut := 1; cut < len(b); cut += 7 {
		if _, err := decodePipeState(b[:len(b)-cut]); err == nil {
			t.Fatalf("truncated snapshot (-%d bytes) accepted", cut)
		}
	}
}

func TestSessStateEncodeRoundTrip(t *testing.T) {
	st := newSessState()
	st.watermark = time.Second
	st.seq = 3
	st.open["a"] = []*session{
		{start: 10 * time.Millisecond, end: 30 * time.Millisecond, sum: 2, count: 2},
		{start: 500 * time.Millisecond, end: 510 * time.Millisecond, sum: 1, count: 1},
	}
	st.open["zz"] = []*session{{start: 0, end: 5 * time.Millisecond, sum: 4.5, count: 3}}
	b := st.encode()
	if !reflect.DeepEqual(b, st.encode()) {
		t.Fatal("encoding is not deterministic")
	}
	got, err := decodeSessState(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", got, st)
	}
	if _, err := decodeSessState(b[:len(b)-3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// A count inside a blob claims 2^32-1 elements in four bytes; the decoder
// must refuse it before it sizes anything. Both follow a watermark and a
// sequence number; sessionBomb's sits behind one empty key.
var (
	paneBomb    = append(make([]byte, 16), 0xff, 0xff, 0xff, 0xff)
	sessionBomb = append(make([]byte, 16), 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)
)

func TestCountBombsRejectedBeforeAllocating(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"pane count", func() error { _, err := decodePipeState(paneBomb); return err }},
		{"sessions per key", func() error { _, err := decodeSessState(sessionBomb); return err }},
	} {
		var err error
		if got := leastAllocated(func() { err = tc.decode() }); got >= 4<<10 || err == nil {
			t.Errorf("%s: error %v, allocated %d bytes", tc.name, err, got)
		}
	}
}

// leastAllocated is the fewest bytes the process allocated over five runs
// of f: the count is process-wide, and goroutines an earlier test left
// running may allocate during any one run.
func leastAllocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// fuzzDecode is the property both snapshot decoders must meet on any
// bytes: no panic, and what decodes re-encodes to a fixed point
// (decode(encode(s)) encodes to the same bytes). Counts inside the blob
// are attacker-controlled, so the seeds include absurd ones with no bytes
// behind them.
func fuzzDecode[S interface{ encode() []byte }](f *testing.F, seed []byte, decode func([]byte) (S, error)) {
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(paneBomb)
	f.Add(sessionBomb)
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decode(b)
		if err != nil {
			return
		}
		enc := st.encode()
		st2, err := decode(enc)
		if err != nil {
			t.Fatalf("re-decode of an encoded state: %v", err)
		}
		if enc2 := st2.encode(); !reflect.DeepEqual(enc, enc2) {
			t.Fatalf("encode is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

func FuzzDecodePipeState(f *testing.F) {
	st := newPipeState()
	st.watermark, st.seq = 42*time.Millisecond, 7
	*st.pane(100*time.Millisecond, "a") = paneAgg{sum: 3.5, count: 2}
	*st.pane(200*time.Millisecond, "b") = paneAgg{sum: -1.25, count: 9}
	fuzzDecode(f, st.encode(), decodePipeState)
}

func FuzzDecodeSessState(f *testing.F) {
	st := newSessState()
	st.watermark, st.seq = time.Second, 3
	st.open["a"] = []*session{{start: 10, end: 30, sum: 2, count: 2}, {start: 500, end: 510, sum: 1, count: 1}}
	st.open["zz"] = []*session{{start: 0, end: 5, sum: 4.5, count: 3}}
	fuzzDecode(f, st.encode(), decodeSessState)
}

func TestCheckpointAbortsOnDeadWorker(t *testing.T) {
	p := New(Config{Workers: 3, Window: 100 * time.Millisecond})
	if err := p.CrashWorker(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.TriggerCheckpoint(0, 0); err == nil {
		t.Fatal("checkpoint committed with a dead worker")
	}
	if got := p.Reg.Counter("checkpoints_aborted").Value(); got != 1 {
		t.Fatalf("checkpoints_aborted = %d", got)
	}
	// Recovery brings the worker back; the next checkpoint commits.
	if err := p.RestoreFrom(p.GenesisCheckpoint()); err != nil {
		t.Fatal(err)
	}
	ck, err := p.TriggerCheckpoint(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Offset != 5 || ck.Bytes <= 0 || len(ck.States) != 3 {
		t.Fatalf("bad checkpoint: %+v", ck)
	}
	if got := p.Reg.Counter("checkpoints_committed").Value(); got != 1 {
		t.Fatalf("checkpoints_committed = %d", got)
	}
	if err := p.CrashWorker(99); err == nil {
		t.Fatal("out-of-range crash accepted")
	}
	if err := p.RestoreFrom(&Checkpoint{}); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
	p.Close()
	if _, err := p.TriggerCheckpoint(0, 0); err != ErrClosed {
		t.Fatalf("checkpoint after close: %v", err)
	}
	if err := p.CrashWorker(0); err != ErrClosed {
		t.Fatalf("crash after close: %v", err)
	}
	if err := p.RestoreFrom(ck); err != ErrClosed {
		t.Fatalf("restore after close: %v", err)
	}
}

// runPipelineFT drives a checkpointed generator run; faults, when non-nil,
// builds the chaos tick hook over the runner.
func runPipelineFT(t *testing.T, faults func(r *Runner) func()) ([]Result, *metrics.Registry) {
	t.Helper()
	src := NewGeneratorSource(5, 6000, 16, time.Millisecond, 4*time.Millisecond)
	r := NewRunner(RunConfig{
		Pipeline:        Config{Workers: 4, Window: 200 * time.Millisecond},
		CheckpointEvery: 1000,
		WatermarkEvery:  100,
		WatermarkLag:    5 * time.Millisecond,
		TickEvery:       200,
	}, src)
	if faults != nil {
		r.OnTick(faults(r))
	}
	out, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out, r.Metrics()
}

func TestRunnerExactlyOnceAfterCrashRestore(t *testing.T) {
	clean, cleanReg := runPipelineFT(t, nil)
	if len(clean) == 0 {
		t.Fatal("clean run produced no results")
	}
	if got := cleanReg.Counter("panes_deduped").Value(); got != 0 {
		t.Fatalf("clean run deduped %d panes", got)
	}
	faulted, reg := runPipelineFT(t, func(r *Runner) func() {
		tick := 0
		return func() {
			tick++
			if tick == 5 {
				_ = r.CrashWorker(2)
			}
			if tick == 12 {
				_ = r.RestoreWorker(2)
			}
		}
	})
	if !reflect.DeepEqual(faulted, clean) {
		t.Fatalf("faulted output diverged from clean run: %d vs %d results", len(faulted), len(clean))
	}
	for name, want := range map[string]int64{
		"stream_worker_crashes":    1,
		"stream_recoveries":        1,
		"checkpoints_aborted":      1, // the barrier that hit the dead worker
		"panes_deduped":            1,
		"recovery_replayed_events": 1,
		"crashed_dropped_events":   1,
		"checkpoints_committed":    1,
		"checkpoint_bytes":         1,
	} {
		if got := reg.Counter(name).Value(); got < want {
			t.Errorf("%s = %d, want >= %d", name, got, want)
		}
	}
}

func TestRunnerCrashWithoutRestoreRecoversAtEOF(t *testing.T) {
	clean, _ := runPipelineFT(t, nil)
	faulted, reg := runPipelineFT(t, func(r *Runner) func() {
		tick := 0
		return func() {
			tick++
			if tick == 20 {
				_ = r.CrashWorker(0)
				_ = r.CrashWorker(3)
			}
		}
	})
	if !reflect.DeepEqual(faulted, clean) {
		t.Fatal("crash-without-restore run lost or duplicated data")
	}
	if got := reg.Counter("stream_worker_crashes").Value(); got != 2 {
		t.Fatalf("stream_worker_crashes = %d", got)
	}
	if got := reg.Counter("stream_recoveries").Value(); got < 1 {
		t.Fatalf("stream_recoveries = %d", got)
	}
	if got := reg.Counter("recovery_replayed_events").Value(); got <= 0 {
		t.Fatalf("recovery_replayed_events = %d", got)
	}
}

func TestRunnerWithoutCheckpointsReplaysFromZero(t *testing.T) {
	run := func(fault bool) ([]Result, *metrics.Registry) {
		src := NewGeneratorSource(9, 2000, 8, time.Millisecond, 0)
		r := NewRunner(RunConfig{
			Pipeline:       Config{Workers: 2, Window: 100 * time.Millisecond},
			WatermarkEvery: 100,
			TickEvery:      100,
		}, src)
		if fault {
			tick := 0
			r.OnTick(func() {
				tick++
				if tick == 8 {
					_ = r.CrashWorker(1)
				}
				if tick == 12 {
					_ = r.RestoreWorker(1)
				}
			})
		}
		out, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out, r.Metrics()
	}
	clean, _ := run(false)
	faulted, reg := run(true)
	if !reflect.DeepEqual(faulted, clean) {
		t.Fatal("replay-from-genesis run diverged from clean run")
	}
	// Recovery rolled back to the genesis checkpoint: the whole prefix
	// replayed and every previously fired pane was deduped.
	if got := reg.Counter("recovery_replayed_events").Value(); got < 1200 {
		t.Fatalf("recovery_replayed_events = %d, want full prefix", got)
	}
	if got := reg.Counter("panes_deduped").Value(); got <= 0 {
		t.Fatalf("panes_deduped = %d", got)
	}
}

func TestSessionizerCheckpointRecovery(t *testing.T) {
	gap := 100 * time.Millisecond
	var evs []Event
	for b := 0; b < 12; b++ {
		for i := 0; i < 8; i++ {
			evs = append(evs, Event{
				Key:       fmt.Sprintf("k%d", b%5),
				Value:     float64(i + 1),
				EventTime: time.Duration(b*300+i*10) * time.Millisecond,
			})
		}
	}
	send := func(s *Sessionizer, batch []Event) {
		for _, ev := range batch {
			if err := s.Send(ev); err != nil {
				t.Fatal(err)
			}
		}
	}

	clean := NewSessionizer(SessionConfig{Gap: gap, Workers: 4})
	send(clean, evs[:40])
	if err := clean.Advance(1200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	send(clean, evs[40:])
	if err := clean.Advance(3000 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := clean.Close()
	if len(want) == 0 {
		t.Fatal("clean run produced no sessions")
	}

	s := NewSessionizer(SessionConfig{Gap: gap, Workers: 4})
	send(s, evs[:40])
	if err := s.Advance(1200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ck, err := s.TriggerCheckpoint(40, 1200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Bytes <= 0 {
		t.Fatal("checkpoint carried no state")
	}
	// Crash mid-window: worker 1 drops its share of the second phase, the
	// rest fire sessions the replay will re-fire.
	send(s, evs[40:70])
	if err := s.CrashWorker(1); err != nil {
		t.Fatal(err)
	}
	send(s, evs[70:])
	if err := s.Advance(3000 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Recovery: global rollback to the checkpoint, then replay the tail.
	if err := s.RestoreFrom(ck); err != nil {
		t.Fatal(err)
	}
	send(s, evs[40:])
	if err := s.Advance(3000 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := s.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered sessions diverged from clean run: %d vs %d", len(got), len(want))
	}
	if n := s.Reg.Counter("sessions_deduped").Value(); n <= 0 {
		t.Fatalf("sessions_deduped = %d", n)
	}
	if n := s.Reg.Counter("crashed_dropped_events").Value(); n <= 0 {
		t.Fatalf("crashed_dropped_events = %d", n)
	}
	if n := s.Reg.Counter("stream_recoveries").Value(); n != 1 {
		t.Fatalf("stream_recoveries = %d", n)
	}
}

func TestSessionizerCheckpointAfterCloseErrors(t *testing.T) {
	s := NewSessionizer(SessionConfig{Gap: time.Millisecond, Workers: 2})
	ck, err := s.TriggerCheckpoint(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.TriggerCheckpoint(0, 0); err != ErrClosed {
		t.Fatalf("checkpoint after close: %v", err)
	}
	if err := s.CrashWorker(0); err != ErrClosed {
		t.Fatalf("crash after close: %v", err)
	}
	if err := s.RestoreFrom(ck); err != ErrClosed {
		t.Fatalf("restore after close: %v", err)
	}
}
