package stream_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/stream"
)

// How the lanes batch must be invisible: the same seeded out-of-order
// stream, driven with the same watermark and barrier cadence through
// every Buffer x Workers combination, must produce exactly the reference
// panes (and sessions), and — for a given worker count — byte-identical
// per-worker snapshots at the same barrier offsets whatever the Buffer,
// whether Send delivers each event or a Runner stages them.
func TestBatchingInvisibleAcrossBufferAndWorkers(t *testing.T) {
	const (
		n         = 6000
		wmEvery   = 100
		ckptEvery = 1500
		lag       = 5 * time.Millisecond
		window    = 200 * time.Millisecond
		gap       = 20 * time.Millisecond
	)
	evs, err := check.DrainSource(stream.NewGeneratorSource(23, n, 32, time.Millisecond, 4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	type engine interface {
		Send(stream.Event) error
		Advance(time.Duration) error
		TriggerCheckpoint(int64, time.Duration) (*stream.Checkpoint, error)
	}
	// drive feeds evs on the fixed cadence and returns every checkpoint's
	// per-worker state bytes.
	drive := func(e engine) (snaps [][][]byte) {
		var high time.Duration
		for i, ev := range evs {
			high = max(high, ev.EventTime)
			if err := e.Send(ev); err != nil {
				t.Fatal(err)
			}
			if off := i + 1; off%wmEvery == 0 {
				if err := e.Advance(high - lag); err != nil {
					t.Fatal(err)
				}
				if off%ckptEvery == 0 {
					ck, err := e.TriggerCheckpoint(int64(off), high)
					if err != nil {
						t.Fatal(err)
					}
					snaps = append(snaps, ck.States)
				}
			}
		}
		return snaps
	}
	sameSnaps := func(name string, got, want [][][]byte) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d checkpoints, want %d", name, len(got), len(want))
		}
		for c := range got {
			for w := range got[c] {
				if !bytes.Equal(got[c][w], want[c][w]) {
					t.Errorf("%s: checkpoint %d worker %d snapshot differs from the Buffer 1 run", name, c, w)
				}
			}
		}
	}
	for _, workers := range []int{1, 3, 4} {
		var paneSnaps, sessSnaps [][][]byte
		for _, buffer := range []int{1, 2, 64, 0} {
			name := fmt.Sprintf("workers=%d buffer=%d", workers, buffer)

			cfg := stream.Config{Workers: workers, Buffer: buffer, Window: window}
			p := stream.New(cfg)
			snaps := drive(p)
			panes := p.Close()
			if d := check.DiffWindows(name, panes, evs, window, 0); !d.OK {
				t.Errorf("%s %v", d, d.Details)
			}
			if late := p.Reg.Counter("late_dropped").Value(); late != 0 {
				t.Errorf("%s: %d late events", name, late)
			}
			if paneSnaps == nil {
				paneSnaps = snaps
			}
			sameSnaps(name+" panes", snaps, paneSnaps)

			// A Runner on the same cadence stages events and pushes them
			// in runs; it must give the same panes and the same bytes at
			// every barrier. Its Tick runs right after its own barrier at
			// that offset, so a checkpoint taken there snapshots that cut.
			r := stream.NewRunner(stream.RunConfig{
				Pipeline: cfg, CheckpointEvery: ckptEvery, WatermarkEvery: wmEvery,
				WatermarkLag: lag, TickEvery: ckptEvery,
			}, stream.NewSliceSource(evs))
			snaps = nil
			r.OnTick(func() {
				ck, err := r.Pipeline().TriggerCheckpoint(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, ck.States)
			})
			got, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, panes) {
				t.Errorf("%s: the Runner fired %d panes that differ from the %d Send gave", name, len(got), len(panes))
			}
			sameSnaps(name+" runner", snaps, paneSnaps)

			s := stream.NewSessionizer(stream.SessionConfig{Gap: gap, Workers: workers, Buffer: buffer})
			snaps = drive(s)
			if d := check.DiffSessions(name, s.Close(), evs, gap); !d.OK {
				t.Errorf("%s %v", d, d.Details)
			}
			if sessSnaps == nil {
				sessSnaps = snaps
			}
			sameSnaps(name+" sessions", snaps, sessSnaps)
		}
	}
}
