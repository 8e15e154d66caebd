package hpbdc

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file is the acceptance gate for the differential-oracle and
// linearizability-checking subsystem (internal/check): every chaos
// preset, across several seeds, must reproduce the sequential reference
// output for the batch engine and a linearizable history for the KV
// store — and the deliberate stale-read fault injection must make the
// checker FAIL, proving the harness has teeth.

// chaosSeeds returns the seeds the checked sweep runs under:
// CHAOS_SEEDS="1 2 3" overrides the default trio (scripts/chaos.sh uses
// this to widen the sweep).
func chaosSeeds(t *testing.T) []uint64 {
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []uint64{1, 7, 42}
	}
	var seeds []uint64
	for _, f := range strings.Fields(env) {
		s, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// checkedWordCount runs the canonical shuffled job under a chaos
// schedule and returns the collected rows plus the dataset handle (for
// ReferenceCollect).
func checkedWordCount(t *testing.T, sched chaos.Schedule, seed uint64) ([]Pair[string, int64], *Dataset[Pair[string, int64]]) {
	t.Helper()
	ctx := New(Config{
		Racks:        2,
		NodesPerRack: 4,
		Seed:         seed,
		Speculation:  true,
		Chaos:        sched,
	})
	corpus := workload.Text(300, 10, 250, 0.9, 3)
	words := FlatMap(Parallelize(ctx, corpus, 16), strings.Fields)
	pairs := KeyBy(words, func(w string) string { return w })
	ones := MapValues(pairs, func(string) int64 { return 1 })
	counts := ReduceByKey(ones, StringCodec, Int64Codec, 8,
		func(a, b int64) int64 { return a + b })
	rows, err := counts.Collect()
	if err != nil {
		t.Fatalf("job under chaos failed: %v", err)
	}
	return rows, counts
}

// checkedJob runs one plan under (sched, seed) and diffs its output
// against the sequential single-node reference evaluation of that plan.
type checkedJob func(t *testing.T, name string, sched chaos.Schedule, seed uint64) check.Diff

// wordCountJob is the hash-shuffle job. The reference is computed once,
// from the first run's plan: the corpus and transforms are identical
// across presets and seeds. Recovery may permute records across
// partitions, so the comparison is a multiset.
func wordCountJob() checkedJob {
	var want []Pair[string, int64]
	return func(t *testing.T, name string, sched chaos.Schedule, seed uint64) check.Diff {
		rows, counts := checkedWordCount(t, sched, seed)
		if want == nil {
			want = ReferenceCollect(counts)
		}
		return check.DiffMultiset(name, rows, want, func(p Pair[string, int64]) string {
			return fmt.Sprintf("%s=%d", p.Key, p.Value)
		})
	}
}

// teraSortJob is the sort-shuffle job: 20 000 TeraGen records through
// the range-partitioned, lz-compressed SortByKey (sampling job included)
// with speculation on. The output must be the reference's multiset and
// globally sorted.
func teraSortJob() checkedJob {
	const records, parts = 20_000, 16
	var want []Pair[string, string]
	return func(t *testing.T, name string, sched chaos.Schedule, seed uint64) check.Diff {
		ctx := New(Config{
			Racks: 2, NodesPerRack: 4, ShuffleCodec: "lz",
			Seed: seed, Speculation: true, Chaos: sched,
		})
		gen := SourceFunc(ctx, parts, func(part int) []Pair[string, string] {
			recs := workload.TeraGen(records/parts, uint64(part)+100)
			out := make([]Pair[string, string], len(recs))
			for i, r := range recs {
				out[i] = Pair[string, string]{Key: string(r.Key), Value: string(r.Value)}
			}
			return out
		})
		sorted, err := SortByKey(gen, StringCodec, StringCodec, parts, 128)
		if err != nil {
			t.Fatalf("%s: sampling job under chaos failed: %v", name, err)
		}
		rows, err := sorted.Collect()
		if err != nil {
			t.Fatalf("%s: sort under chaos failed: %v", name, err)
		}
		if want == nil {
			want = ReferenceCollect(sorted)
		}
		d := check.DiffMultiset(name, rows, want, func(p Pair[string, string]) string {
			return p.Key + "=" + p.Value
		})
		for i := 1; i < len(rows); i++ {
			if rows[i].Key < rows[i-1].Key {
				d.OK = false
				d.Details = append(d.Details, fmt.Sprintf("output not sorted at record %d", i))
				break
			}
		}
		return d
	}
}

// TestChaosCheckedSweep runs both shuffle paths — the hash-shuffled
// wordcount and the sort-shuffled TeraSort — clean and then under every
// compute chaos preset and every sweep seed, each run diffed against the
// reference. This is the tentpole claim: chaos never changes answers,
// and a reference oracle — not a second distributed run — says so.
func TestChaosCheckedSweep(t *testing.T) {
	presets := chaos.PresetNames()
	if len(presets) < 5 {
		t.Fatalf("preset sweep too small: %v", presets)
	}
	seeds := chaosSeeds(t)
	jobs := []struct {
		name string
		run  checkedJob
	}{{"wordcount", wordCountJob()}, {"terasort", teraSortJob()}}

	harness := check.NewHarness()
	for _, job := range jobs {
		if d := harness.Record(job.run(t, job.name+"/clean", nil, 1)); d.Compared == 0 {
			t.Fatalf("%s: clean run produced no rows", job.name)
		}
		for _, name := range presets {
			sched, err := chaos.Preset(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				harness.Record(job.run(t, fmt.Sprintf("%s/%s/seed-%d", job.name, name, seed), sched, seed))
			}
		}
	}
	if wantRuns := len(jobs) * (1 + len(presets)*len(seeds)); harness.Len() != wantRuns {
		t.Fatalf("harness recorded %d diffs, want %d", harness.Len(), wantRuns)
	}
	if !harness.OK() {
		t.Fatalf("oracle diffs failed:\n%s", harness.Summary())
	}
}

// TestChaosKVLinearizability captures a concurrent client history
// against the quorum store while each chaos preset fires between waves
// (wave-synchronized, so failure transitions never race an in-flight
// op), and requires a valid sequential witness for every preset x seed.
// Only crash/revive events act on the store — the KV layer tracks node
// liveness itself, not fabric reachability — but the sweep still runs
// every preset so a future KV/network coupling is automatically covered.
func TestChaosKVLinearizability(t *testing.T) {
	seeds := chaosSeeds(t)
	for _, name := range chaos.PresetNames() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed-%d", name, seed), func(t *testing.T) {
				sched, err := chaos.Preset(name, 8)
				if err != nil {
					t.Fatal(err)
				}
				fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.TCP40G)
				store, err := kvstore.New(kvstore.Config{Fabric: fab, N: 3, R: 2, W: 2})
				if err != nil {
					t.Fatal(err)
				}
				ctl := chaos.New(sched, seed, chaos.Targets{Nodes: 8, KV: store}, store.Reg)
				h := check.CaptureHistory(store, check.CaptureConfig{
					Clients: 4, Waves: 30, Keys: 8, Nodes: 8,
					ReadFraction: 0.4, DeleteFraction: 0.1,
					Seed:         seed,
					IsNotFound:   func(err error) bool { return err == kvstore.ErrNotFound },
					BetweenWaves: func(int) { ctl.Tick() },
				})
				// Every preset's schedule fits inside 30 waves, so the whole
				// schedule must have fired — the verdict covers real chaos.
				if !ctl.Done() {
					t.Fatalf("schedule only applied %d events", ctl.Applied())
				}
				verdict := check.Linearizable(h)
				if !verdict.OK {
					t.Fatalf("history not linearizable: %s", verdict)
				}
				if verdict.Ops == 0 {
					t.Fatal("empty history: capture drove no operations")
				}
			})
		}
	}
}

// TestChaosStaleReadSelfTest proves the linearizability checker has
// teeth: with the stale-read fault injection enabled, a read that
// returns an overwritten version must be rejected, and with the
// injection disabled the same sequence must pass. A checker that cannot
// fail this test verifies nothing.
func TestChaosStaleReadSelfTest(t *testing.T) {
	fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.TCP40G)
	store, err := kvstore.New(kvstore.Config{Fabric: fab, N: 3, R: 2, W: 2})
	if err != nil {
		t.Fatal(err)
	}
	record := func(h *check.History, kind check.OpKind, key string, do func() (string, bool)) {
		inv := h.Stamp()
		val, found := do()
		ret := h.Stamp()
		h.Append(check.Op{Client: 0, Kind: kind, Key: key, Value: val,
			Found: found, Invoke: inv, Return: ret})
	}
	put := func(h *check.History, key, val string) {
		record(h, check.OpWrite, key, func() (string, bool) {
			if _, err := store.Put(0, key, []byte(val)); err != nil {
				t.Fatal(err)
			}
			return val, true
		})
	}
	get := func(h *check.History, key string) string {
		var got string
		record(h, check.OpRead, key, func() (string, bool) {
			v, _, err := store.Get(0, key)
			if err != nil {
				t.Fatal(err)
			}
			got = string(v)
			return got, true
		})
		return got
	}

	// Faulted: write v1, overwrite with v2, then read with the injection
	// serving retained overwritten versions. The read must observe v1 —
	// and the checker must reject the history.
	faulted := check.NewHistory()
	put(faulted, "k", "v1")
	put(faulted, "k", "v2")
	store.SetStaleReads(true)
	if got := get(faulted, "k"); got != "v1" {
		t.Fatalf("stale injection served %q, want the overwritten v1", got)
	}
	verdict := check.Linearizable(faulted)
	if verdict.OK {
		t.Fatal("checker accepted a stale read — the harness has no teeth")
	}
	if !strings.Contains(verdict.Detail, "k") {
		t.Fatalf("failure detail %q does not name the violating key", verdict.Detail)
	}

	// Healed: the identical sequence without the injection must pass,
	// pinning the failure above on the injected fault, not the harness.
	store.SetStaleReads(false)
	healthy := check.NewHistory()
	put(healthy, "k2", "v1")
	put(healthy, "k2", "v2")
	if got := get(healthy, "k2"); got != "v2" {
		t.Fatalf("healthy read got %q, want v2", got)
	}
	if verdict := check.Linearizable(healthy); !verdict.OK {
		t.Fatalf("healthy history rejected: %s", verdict)
	}
}
