package hpbdc

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/workload"
)

// haSeeds returns the seed sweep for the HA acceptance gauntlet,
// overridable via HA_SEEDS (space-separated integers).
func haSeeds(t *testing.T) []uint64 {
	env := os.Getenv("HA_SEEDS")
	if env == "" {
		return []uint64{1, 7, 42}
	}
	var seeds []uint64
	for _, f := range strings.Fields(env) {
		s, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			t.Fatalf("HA_SEEDS: bad seed %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// haTwoStageJob runs the E-HA job shape — wordcount, then regroup by
// count — so the coordinator journals two shuffle stages before the
// result stage. Returns the collected groups and the plan's sequential
// reference output.
func haTwoStageJob(t *testing.T, ctx *Context) (got, want []Pair[int64, []string]) {
	t.Helper()
	corpus := workload.Text(400, 10, 300, 0.9, 3)
	words := FlatMap(Parallelize(ctx, corpus, 16), strings.Fields)
	ones := MapValues(KeyBy(words, func(w string) string { return w }),
		func(string) int64 { return 1 })
	counts := ReduceByKey(ones, StringCodec, Int64Codec, 8,
		func(a, b int64) int64 { return a + b })
	byCount := GroupByKey(
		MapValues(
			KeyBy(counts, func(p Pair[string, int64]) int64 { return p.Value }),
			func(p Pair[string, int64]) string { return p.Key }),
		Int64Codec, StringCodec, 4)
	got, err := byCount.Collect()
	if err != nil {
		t.Fatalf("job under ha chaos failed: %v", err)
	}
	return got, ReferenceCollect(byCount)
}

// encodeCountGroup canonicalizes one (count, words) group for the
// multiset oracle: GroupByKey may deliver words in any order.
func encodeCountGroup(p Pair[int64, []string]) string {
	words := append([]string(nil), p.Value...)
	sort.Strings(words)
	return fmt.Sprintf("%d=%s", p.Key, strings.Join(words, ","))
}

// TestHAAcceptance is the control-plane HA gauntlet: under the "ha"
// chaos preset — namenode leader crash, coordinator crash mid-job,
// member revival — the job must finish with output identical to the
// sequential reference, a leader failover must have been recorded, and
// the coordinator must have resumed at least one journaled stage
// instead of recomputing it.
func TestHAAcceptance(t *testing.T) {
	sched, err := chaos.Preset("ha", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range haSeeds(t) {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			ctx := New(Config{
				Racks:        2,
				NodesPerRack: 4,
				Seed:         seed,
				HA:           true,
				Chaos:        sched,
			})
			got, want := haTwoStageJob(t, ctx)
			if d := check.DiffMultiset("ha-acceptance", got, want, encodeCountGroup); !d.OK {
				t.Errorf("post-failover output diverged from reference: %s", d)
			}
			reg := ctx.Metrics()
			if v := reg.Counter("ha_failovers").Value(); v < 1 {
				t.Errorf("ha_failovers = %d, want >= 1 (leader crash went unnoticed)", v)
			}
			if v := reg.Counter("ha_member_restarts").Value(); v < 1 {
				t.Errorf("ha_member_restarts = %d, want >= 1 (nn-revive never fired)", v)
			}
			if v := reg.Counter("coord_crashes").Value(); v < 1 {
				t.Errorf("coord_crashes = %d, want >= 1", v)
			}
			if v := reg.Counter("coord_stages_resumed").Value(); v < 1 {
				t.Errorf("coord_stages_resumed = %d, want >= 1 (journal salvaged nothing)", v)
			}
			if v := reg.Counter("journal_append_failures").Value(); v != 0 {
				t.Errorf("journal_append_failures = %d, want 0", v)
			}
		})
	}
}

// TestHADeterministicReplay pins the reproducibility claim to the HA
// path: the same (schedule, seed) run twice must produce identical
// output and identical failover/recovery metrics.
func TestHADeterministicReplay(t *testing.T) {
	sched, err := chaos.Preset("ha", 8)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]Pair[int64, []string], map[string]int64) {
		ctx := New(Config{Racks: 2, NodesPerRack: 4, Seed: 42, HA: true, Chaos: sched})
		got, _ := haTwoStageJob(t, ctx)
		reg := ctx.Metrics()
		snap := map[string]int64{}
		for _, name := range []string{
			"ha_failovers", "ha_member_crashes", "ha_member_restarts",
			"ha_proposals", "ha_compactions", "ha_snapshots_built",
			"ha_snapshot_bytes", "coord_crashes", "coord_stages_resumed",
			"coord_stages_restarted", "stages_run",
		} {
			snap[name] = reg.Counter(name).Value()
		}
		return got, snap
	}
	got1, snap1 := run()
	got2, snap2 := run()
	if d := check.DiffMultiset("ha-replay", got1, got2, encodeCountGroup); !d.OK {
		t.Errorf("output diverged across identical runs: %s", d)
	}
	for name, v1 := range snap1 {
		if v2 := snap2[name]; v2 != v1 {
			t.Errorf("metric %s diverged: %d vs %d", name, v1, v2)
		}
	}
}
