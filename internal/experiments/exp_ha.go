package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	hpbdc "repro"
	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/workload"
)

// EHAControlPlane measures control-plane high availability: a two-stage
// shuffled job (wordcount, then regroup-by-count) runs with the namenode
// replicated on a 3-member Raft group and the coordinator journaling
// stage completions, under schedules that crash the namenode leader, the
// coordinator, or both. Failover latency is the tick count from leader
// crash to replacement election; resumed vs restarted counts show how
// much journaled work a coordinator crash salvaged; the oracle compares
// the post-failover output to the sequential reference.
func EHAControlPlane(p Params) *Table {
	t := &Table{
		ID:    "E-HA",
		Title: "Control-plane HA: namenode failover and coordinator crash-resume",
		Note:  "8 nodes, 3-member control-plane group, two-shuffle wordcount; failover-ticks is group ticks from leader crash to replacement; resumed/restarted count journaled stages recovered vs recomputed after a coordinator crash",
		Cols: []string{"schedule", "seed", "wall", "failovers", "failover-ticks",
			"redirects", "coord-crashes", "resumed", "restarted", "oracle"},
	}
	lines := pick(p.Scale, 400, 4_000)
	corpus := workload.Text(lines, 10, 500, 0.9, 3)
	const nodes = 8

	// GroupByKey may deliver a count's word list in any order, so the
	// encoding canonicalizes each group before the multiset comparison.
	encodeGroup := func(p hpbdc.Pair[int64, []string]) string {
		words := append([]string(nil), p.Value...)
		sort.Strings(words)
		return fmt.Sprintf("%d=%s", p.Key, strings.Join(words, ","))
	}
	var want []hpbdc.Pair[int64, []string]

	run := func(job string, sched chaos.Schedule, seed uint64) (time.Duration, *hpbdc.Context, check.Diff) {
		ctx := hpbdc.New(hpbdc.Config{
			Racks:         2,
			NodesPerRack:  4,
			Seed:          seed,
			HA:            true,
			Chaos:         sched,
			EnableTracing: true,
		})
		words := hpbdc.FlatMap(hpbdc.Parallelize(ctx, corpus, 16), strings.Fields)
		ones := hpbdc.MapValues(hpbdc.KeyBy(words, func(w string) string { return w }),
			func(string) int64 { return 1 })
		counts := hpbdc.ReduceByKey(ones, hpbdc.StringCodec, hpbdc.Int64Codec, 8,
			func(a, b int64) int64 { return a + b })
		// Second shuffle: invert to count -> words, so the job has two
		// journaled stages and a mid-job coordinator crash can resume one.
		byCount := hpbdc.GroupByKey(
			hpbdc.MapValues(
				hpbdc.KeyBy(counts, func(p hpbdc.Pair[string, int64]) int64 { return p.Value }),
				func(p hpbdc.Pair[string, int64]) string { return p.Key }),
			hpbdc.Int64Codec, hpbdc.StringCodec, 4)
		start := time.Now()
		rows, err := byCount.Collect()
		if err != nil {
			panic(fmt.Sprintf("%s: %v", job, err))
		}
		wall := time.Since(start)
		if want == nil {
			want = hpbdc.ReferenceCollect(byCount)
		}
		diff := t.recordCheck(check.DiffMultiset(job, rows, want, encodeGroup))
		return wall, ctx, diff
	}

	var entries []chaosEntry
	if p.Chaos != "" {
		entries = customChaos(t.ID, p.Chaos, nodes)
	} else {
		for _, name := range []string{"nn-crash", "coord-crash", "ha"} {
			sched, err := chaos.Preset(name, nodes)
			if err != nil {
				panic(err)
			}
			entries = append(entries, chaosEntry{name, sched})
		}
	}
	seeds := []uint64{1, 7, 42}
	if p.Seed != 0 {
		seeds = []uint64{p.Seed}
	}

	for _, e := range entries {
		name, sched := e.name, e.sched
		for _, seed := range seeds {
			job := fmt.Sprintf("E-HA/%s/seed-%d", name, seed)
			wall, ctx, diff := run(job, sched, seed)
			reg := ctx.Metrics()
			ticks := "-"
			if h := reg.Histogram("ha_failover_ticks"); h.Count() > 0 {
				ticks = fmt.Sprintf("%.1f", h.Mean())
			}
			t.AddRow(name, fmt.Sprintf("%d", seed),
				wall.Round(time.Millisecond).String(),
				fmt.Sprintf("%d", reg.Counter("ha_failovers").Value()),
				ticks,
				fmt.Sprintf("%d", reg.Counter("ha_redirects").Value()),
				fmt.Sprintf("%d", reg.Counter("coord_crashes").Value()),
				fmt.Sprintf("%d", reg.Counter("coord_stages_resumed").Value()),
				fmt.Sprintf("%d", reg.Counter("coord_stages_restarted").Value()),
				verdictCell(diff))
			if name == entries[len(entries)-1].name && seed == seeds[len(seeds)-1] {
				p.Obs.observe(t, job, ctx)
			}
			t.finishFaults(job, ctx.Chaos(), sched)
		}
	}
	return t
}
