package experiments

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/stream"
	"repro/internal/trace"
)

// ESFTStream measures exactly-once streaming recovery: the same generated
// event stream runs under a sweep of checkpoint intervals crossed with
// worker crash/restore schedules, and every faulted run's output must be
// byte-identical to the clean run's. The cost axes are checkpoint volume
// (barriers committed, snapshot bytes) against recovery work (events
// replayed from the source, duplicate panes suppressed at the sink):
// frequent checkpoints pay bytes to shrink replay, sparse ones the
// reverse, and interval 0 falls back to full replay from offset zero.
func ESFTStream(p Params) *Table {
	seed := p.seedOr(11)
	const workers = 4
	events := int64(pick(p.Scale, 6_000, 48_000))
	t := &Table{
		ID:    "E-SFT",
		Title: "Streaming fault tolerance: checkpoint interval vs recovery cost",
		Note: fmt.Sprintf("%d events, %d workers, 250ms windows, seed %d; identical = output equals clean run",
			events, workers, seed),
		Cols: []string{"ckpt-every", "crashes", "wall", "vs-clean", "ckpts",
			"ckpt-bytes", "replayed", "deduped", "identical", "oracle"},
	}

	// The event stream is replayable from its (seed, params), so the
	// oracle drains an identical source and computes every pane directly.
	// Exactness precondition: WatermarkLag (5ms) covers the source jitter
	// (4ms), so a correct run drops nothing — a nonzero late_dropped
	// counter is itself a failure.
	refEvents, err := check.DrainSource(
		stream.NewGeneratorSource(seed, events, 32, time.Millisecond, 4*time.Millisecond))
	if err != nil {
		panic(fmt.Sprintf("E-SFT: drain reference source: %v", err))
	}
	oracle := func(job string, out []stream.Result, r *stream.Runner) check.Diff {
		d := check.DiffWindows(job, out, refEvents, 250*time.Millisecond, 0)
		if late := r.Metrics().Counter("late_dropped").Value(); late > 0 {
			d.OK = false
			d.Details = append(d.Details, fmt.Sprintf("%d late events dropped (lag must cover jitter)", late))
		}
		return t.recordCheck(d)
	}

	intervals := []int{0, pick(p.Scale, 500, 4_000), pick(p.Scale, 2_000, 16_000)}
	if p.CkptInterval > 0 {
		intervals = []int{p.CkptInterval}
	}
	entries := []chaosEntry{
		{"0", nil},
		{"1", streamCrashSchedule(1)},
		{"3", streamCrashSchedule(3)},
	}
	if p.Chaos != "" {
		entries = customChaos(t.ID, p.Chaos, workers)
	}

	run := func(interval int, sched chaos.Schedule) ([]stream.Result, *stream.Runner, *chaos.Controller, time.Duration) {
		rec := trace.New()
		src := stream.NewGeneratorSource(seed, events, 32, time.Millisecond, 4*time.Millisecond)
		r := stream.NewRunner(stream.RunConfig{
			Pipeline: stream.Config{
				Workers: workers,
				Window:  250 * time.Millisecond,
				Tracer:  rec,
			},
			CheckpointEvery: interval,
			WatermarkEvery:  200,
			WatermarkLag:    5 * time.Millisecond,
			TickEvery:       int(events / 32),
		}, src)
		var ctl *chaos.Controller
		if len(sched) > 0 {
			ctl = chaos.New(sched, seed, chaos.Targets{Nodes: workers, Stream: r}, r.Metrics())
			r.OnTick(ctl.Tick)
		}
		start := time.Now()
		out, err := r.Run()
		if err != nil {
			panic(fmt.Sprintf("E-SFT: %v", err))
		}
		return out, r, ctl, time.Since(start)
	}

	// The clean reference: no checkpoints, no faults. Its own output is
	// oracle-checked too — "identical to clean" proves nothing if the
	// clean run itself was wrong.
	baseline, baseRunner, _, cleanWall := run(0, nil)
	cleanDiff := oracle("E-SFT/clean", baseline, baseRunner)
	p.Obs.publish("E-SFT/clean", baseRunner.Metrics(), baseRunner.Tracer())

	for _, interval := range intervals {
		for _, e := range entries {
			if interval == 0 && e.sched == nil {
				t.AddRow("0", "0", cleanWall.Round(time.Millisecond).String(), "1.00x",
					"0", "0", "0", "0", "yes", verdictCell(cleanDiff))
				continue
			}
			out, r, ctl, wall := run(interval, e.sched)
			reg := r.Metrics()
			identical := "yes"
			if !reflect.DeepEqual(out, baseline) {
				identical = "NO"
			}
			job := fmt.Sprintf("E-SFT/ckpt-%d/crashes-%s", interval, e.name)
			diff := oracle(job, out, r)
			if ctl != nil {
				t.recordFaults(job, ctl)
			}
			t.AddRow(
				fmt.Sprintf("%d", interval),
				e.name,
				wall.Round(time.Millisecond).String(),
				fmt.Sprintf("%.2fx", float64(wall)/float64(cleanWall)),
				fmt.Sprintf("%d", reg.Counter("checkpoints_committed").Value()),
				fmt.Sprintf("%d", reg.Counter("checkpoint_bytes").Value()),
				fmt.Sprintf("%d", reg.Counter("recovery_replayed_events").Value()),
				fmt.Sprintf("%d", reg.Counter("panes_deduped").Value()),
				identical,
				verdictCell(diff),
			)
			p.Obs.publish(job, reg, r.Tracer())
		}
	}
	return t
}

// streamCrashSchedule crashes a seeded wildcard worker c times, restoring
// it a few virtual ticks later each time.
func streamCrashSchedule(c int) chaos.Schedule {
	var sched chaos.Schedule
	for i := 0; i < c; i++ {
		sched = append(sched,
			chaos.Event{At: int64(4 + i*8), Kind: chaos.StreamCrash, Node: chaos.WildcardNode},
			chaos.Event{At: int64(7 + i*8), Kind: chaos.StreamRestore, Node: chaos.WildcardNode},
		)
	}
	return sched
}
