package stream

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// TestRunnerMatchesParent pins the checkpointed Runner to the commit its
// constants were recorded on: a fault-free run, a crash restored from a
// Tick, a crash never restored (the run recovers at end of source), and a
// crash and restore raised between two Ticks, each at a bounded and an
// unbounded Buffer. The watermark cadence (7) is prime to the checkpoint
// and Tick cadences, and the source ends off all three. The digest covers
// the sorted panes, every committed checkpoint's cut and per-worker state
// bytes as read at each Tick, and the fault-tolerance counters. How the
// driver hands events to the lanes must not move any of it; record the
// new constant on the parent commit first if a move is deliberate.
func TestRunnerMatchesParent(t *testing.T) {
	crashAt := func(crash, restore int, workers ...int) func(r *Runner) func() {
		return func(r *Runner) func() {
			tick := 0
			return func() {
				tick++
				if tick == crash {
					for _, w := range workers {
						_ = r.CrashWorker(w)
					}
				}
				if tick == restore {
					_ = r.RestoreWorker(workers[0])
				}
			}
		}
	}
	// Faults raised between two Ticks, while events sit staged: the
	// source raises each once, as it first hands out the event at an
	// offset (the replay passes the crash offset again).
	midRun := func(r *Runner) func() {
		raised := map[int64]bool{}
		r.src = &hookSource{Source: r.src, hook: func(off int64) {
			if raised[off] {
				return
			}
			raised[off] = true
			switch off {
			case 1234:
				_ = r.CrashWorker(1)
			case 2345:
				_ = r.RestoreWorker(1)
			}
		}}
		return nil
	}
	for _, c := range []struct {
		name   string
		faults func(r *Runner) func()
		want   uint64
	}{
		{"fault-free", nil, 0x48c862ace2892de7},
		{"crash-restore", crashAt(5, 12, 2), 0x7c899869fa82ae43},
		{"crash-no-restore", crashAt(20, 0, 0, 3), 0x65aa34a38b6ec378},
		{"crash-restore-between-ticks", midRun, 0xe0e6888146cf087f},
	} {
		for _, buffer := range []int{8, 0} {
			if got := runnerDigest(t, buffer, c.faults); got != c.want {
				t.Errorf("%s buffer=%d: digest %#x, want %#x", c.name, buffer, got, c.want)
			}
		}
	}
}

// hookSource calls hook with the offset of each event before reading it.
type hookSource struct {
	Source
	hook func(off int64)
}

func (s *hookSource) Next() (Event, bool) {
	s.hook(s.Offset())
	return s.Source.Next()
}

func runnerDigest(t *testing.T, buffer int, faults func(r *Runner) func()) uint64 {
	t.Helper()
	h := fnv.New64a()
	word := func(v uint64) { _, _ = h.Write(binary.BigEndian.AppendUint64(nil, v)) }
	bytes := func(b []byte) { word(uint64(len(b))); _, _ = h.Write(b) }

	src := NewGeneratorSource(31, 6007, 24, time.Millisecond, 4*time.Millisecond)
	r := NewRunner(RunConfig{
		Pipeline:        Config{Workers: 4, Buffer: buffer, Window: 50 * time.Millisecond},
		CheckpointEvery: 1000,
		WatermarkEvery:  7,
		WatermarkLag:    0,
		TickEvery:       200,
	}, src)
	var chaos func()
	if faults != nil {
		chaos = faults(r)
	}
	r.OnTick(func() {
		ck := r.last
		word(uint64(ck.ID))
		word(uint64(ck.Offset))
		word(uint64(ck.Watermark))
		word(uint64(len(ck.States)))
		for _, s := range ck.States {
			bytes(s)
		}
		if chaos != nil {
			chaos()
		}
	})
	out, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	word(uint64(len(out)))
	for _, res := range out {
		word(uint64(res.WindowStart))
		word(uint64(res.WindowEnd))
		bytes([]byte(res.Key))
		word(math.Float64bits(res.Sum))
		word(uint64(res.Count))
	}
	for _, name := range []string{"checkpoints_committed", "checkpoints_aborted", "checkpoint_bytes",
		"panes_deduped", "crashed_dropped_events", "stream_recoveries", "late_dropped", "events_processed"} {
		v := r.Metrics().Counter(name).Value()
		t.Logf("%s = %d", name, v)
		word(uint64(v))
	}
	return h.Sum64()
}
