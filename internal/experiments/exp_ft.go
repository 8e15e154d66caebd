package experiments

import (
	"fmt"
	"strings"
	"time"

	hpbdc "repro"
	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/workload"
)

// chaosEntry is one named schedule of an experiment's chaos sweep.
type chaosEntry struct {
	name  string
	sched chaos.Schedule
}

// customChaos resolves a Params.Chaos override (a preset name or schedule
// text) against the experiment's cluster size into the single "custom"
// entry that replaces its default sweep.
func customChaos(id, spec string, nodes int) []chaosEntry {
	sched, err := chaos.Load(spec, nodes)
	if err != nil {
		panic(fmt.Sprintf("%s: -chaos: %v", id, err))
	}
	return []chaosEntry{{"custom", sched}}
}

// EFTChaos measures graceful degradation under scheduled faults: the same
// shuffled wordcount job runs under each chaos preset with speculation
// off and on, against a clean baseline. Slowdown is wall clock relative
// to the clean run; recovery effort shows up as retries, speculative
// wins, quarantined nodes and partition-blocked fetches.
func EFTChaos(p Params) *Table {
	seed := p.seedOr(11)
	t := &Table{
		ID:    "EFT",
		Title: "Fault tolerance: chaos schedules vs recovery machinery",
		Note:  fmt.Sprintf("8 nodes, shuffled wordcount, seed %d; wall is relative to a clean run; chaos-events fired during the job, the rest of the schedule after it; oracle compares output to the sequential reference", seed),
		Cols: []string{"schedule", "spec", "wall", "vs-clean", "retries",
			"spec-wins", "quarantined", "blocked-fetch", "chaos-events", "oracle"},
	}
	lines := pick(p.Scale, 1_000, 10_000)
	corpus := workload.Text(lines, 10, 500, 0.9, 3)
	const nodes = 8

	encodePair := func(p hpbdc.Pair[string, int64]) string {
		return fmt.Sprintf("%s=%d", p.Key, p.Value)
	}
	// want is the sequential reference output, computed once from the
	// clean run's plan: every faulted run must reproduce it exactly
	// (recovery may permute records across partitions, so the comparison
	// is a multiset).
	var want []hpbdc.Pair[string, int64]

	run := func(job string, sched chaos.Schedule, speculation bool) (time.Duration, *hpbdc.Context, check.Diff) {
		ctx := hpbdc.New(hpbdc.Config{
			Racks:         2,
			NodesPerRack:  4,
			Seed:          seed,
			TaskFailProb:  p.FailProb,
			Speculation:   speculation,
			Chaos:         sched,
			EnableTracing: true,
		})
		words := hpbdc.FlatMap(hpbdc.Parallelize(ctx, corpus, 16), strings.Fields)
		pairs := hpbdc.KeyBy(words, func(w string) string { return w })
		ones := hpbdc.MapValues(pairs, func(string) int64 { return 1 })
		counts := hpbdc.ReduceByKey(ones, hpbdc.StringCodec, hpbdc.Int64Codec, 8,
			func(a, b int64) int64 { return a + b })
		start := time.Now()
		rows, err := counts.Collect()
		if err != nil {
			panic(fmt.Sprintf("%s: %v", job, err))
		}
		wall := time.Since(start)
		if want == nil {
			want = hpbdc.ReferenceCollect(counts)
		}
		diff := t.recordCheck(check.DiffMultiset(job, rows, want, encodePair))
		return wall, ctx, diff
	}

	clean, _, cleanDiff := run("EFT/clean", nil, false)
	t.AddRow("none", "off", clean.Round(time.Millisecond).String(), "1.00x",
		"0", "0", "0", "0", "0", verdictCell(cleanDiff))

	var entries []chaosEntry
	if p.Chaos != "" {
		entries = customChaos(t.ID, p.Chaos, nodes)
	} else {
		for _, name := range chaos.PresetNames() {
			sched, err := chaos.Preset(name, nodes)
			if err != nil {
				panic(err)
			}
			entries = append(entries, chaosEntry{name, sched})
		}
	}

	for _, e := range entries {
		for _, speculation := range []bool{false, true} {
			mode := "off"
			if speculation {
				mode = "on"
			}
			job := fmt.Sprintf("EFT/%s/spec-%s", e.name, mode)
			wall, ctx, diff := run(job, e.sched, speculation)
			reg := ctx.Metrics()
			t.AddRow(e.name, mode,
				wall.Round(time.Millisecond).String(),
				fmt.Sprintf("%.2fx", float64(wall)/float64(clean)),
				fmt.Sprintf("%d", reg.Counter("task_retries").Value()),
				fmt.Sprintf("%d", reg.Counter("speculative_wins").Value()),
				fmt.Sprintf("%d", reg.Counter("quarantined_nodes").Value()),
				fmt.Sprintf("%d", reg.Counter("partition_blocked_fetches").Value()),
				fmt.Sprintf("%d", ctx.Chaos().Applied()),
				verdictCell(diff))
			if speculation {
				p.Obs.observe(t, job, ctx)
			}
			t.finishFaults(job, ctx.Chaos(), e.sched)
		}
	}
	return t
}
