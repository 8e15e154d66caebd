package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/netsim"
	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/topology"
)

func testEngine(t *testing.T, nodes int, cfg Config) *Engine {
	t.Helper()
	top := topology.TwoTier(2, (nodes+1)/2, 2)
	if nodes < 4 {
		top = topology.Single(nodes)
	}
	fab := netsim.NewFabric(top, netsim.RDMA40G)
	cfg.Cluster = cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
	e := NewEngine(cfg)
	e.SetDFS(dfs.New(dfs.Config{BlockSize: 1 << 16, Replication: 2, Topology: top, Seed: 1}))
	return e
}

// perRow is the Emit of a dependency whose rows are single elements: one
// record per row, cut by key and value.
func perRow(key, value func(Row) []byte) func(Row, shuffle.Writer) error {
	return func(r Row, w shuffle.Writer) error { return w.Write(key(r), value(r)) }
}

// materialize returns a view's records as a slice to range over.
func materialize(view shuffle.Records) []shuffle.Record {
	recs := make([]shuffle.Record, view.Len())
	for i := range recs {
		recs[i] = shuffle.Record{Key: view.Key(i), Value: view.Value(i)}
	}
	return recs
}

// sliceSource builds a source plan over fixed data split into parts.
func sliceSource(e *Engine, data []int, parts int) *Plan {
	return e.NewSource(parts, func(ctx *TaskContext, part int) []Row {
		var rows []Row
		for i := part; i < len(data); i += parts {
			rows = append(rows, data[i])
		}
		return rows
	}, nil)
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func collectInts(t *testing.T, e *Engine, p *Plan) []int {
	t.Helper()
	rows, err := e.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, 0, len(rows))
	for _, r := range rows {
		out = append(out, r.(int))
	}
	sort.Ints(out)
	return out
}

func TestSourceCollect(t *testing.T) {
	e := testEngine(t, 4, Config{})
	p := sliceSource(e, ints(100), 8)
	got := collectInts(t, e, p)
	if len(got) != 100 {
		t.Fatalf("collected %d rows", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestNarrowPipeline(t *testing.T) {
	e := testEngine(t, 4, Config{})
	p := sliceSource(e, ints(50), 4)
	doubled := e.NewNarrow(p, func(ctx *TaskContext, rows []Row) []Row {
		out := make([]Row, 0, len(rows))
		for _, r := range rows {
			out = append(out, r.(int)*2)
		}
		return out
	})
	evens := e.NewNarrow(doubled, func(ctx *TaskContext, rows []Row) []Row {
		var out []Row
		for _, r := range rows {
			if r.(int)%4 == 0 {
				out = append(out, r)
			}
		}
		return out
	})
	got := collectInts(t, e, evens)
	if len(got) != 25 {
		t.Fatalf("got %d rows, want 25", len(got))
	}
	for _, v := range got {
		if v%4 != 0 {
			t.Fatalf("filter leak: %d", v)
		}
	}
}

func TestUnion(t *testing.T) {
	e := testEngine(t, 4, Config{})
	a := sliceSource(e, ints(10), 2)
	b := sliceSource(e, ints(10), 3)
	u := e.NewUnion(a, b)
	if u.Partitions() != 5 {
		t.Fatalf("union parts = %d", u.Partitions())
	}
	got := collectInts(t, e, u)
	if len(got) != 20 {
		t.Fatalf("union rows = %d", len(got))
	}
}

func TestCountMatchesCollect(t *testing.T) {
	e := testEngine(t, 4, Config{})
	p := sliceSource(e, ints(123), 7)
	n, err := e.Count(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != 123 {
		t.Fatalf("count = %d", n)
	}
}

// wordCountPlan builds the canonical shuffle job over the given lines.
func wordCountPlan(e *Engine, lines []string, parts, reducers int) *Plan {
	src := e.NewSource(parts, func(ctx *TaskContext, part int) []Row {
		var rows []Row
		for i := part; i < len(lines); i += parts {
			for _, w := range strings.Fields(lines[i]) {
				rows = append(rows, w)
			}
		}
		return rows
	}, nil)
	return e.NewShuffled(src, ShuffleDep{
		Partitions: reducers,
		Emit:       perRow(func(r Row) []byte { return []byte(r.(string)) }, func(r Row) []byte { return serde.EncodeInt64(1) }),
		Post: func(ctx *TaskContext, recs shuffle.Records) []Row {
			counts := map[string]int64{}
			for _, rec := range materialize(recs) {
				v, _ := serde.DecodeInt64(rec.Value)
				counts[string(rec.Key)] += v
			}
			var out []Row
			for w, c := range counts {
				out = append(out, [2]any{w, c})
			}
			return out
		},
	})
}

func wordCounts(t *testing.T, e *Engine, p *Plan) map[string]int64 {
	t.Helper()
	rows, err := e.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range rows {
		pair := r.([2]any)
		got[pair[0].(string)] += pair[1].(int64)
	}
	return got
}

func TestShuffleWordCount(t *testing.T) {
	e := testEngine(t, 4, Config{})
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the fox jumps over the dog",
	}
	got := wordCounts(t, e, wordCountPlan(e, lines, 3, 4))
	want := map[string]int64{"the": 4, "quick": 1, "brown": 1, "fox": 2,
		"lazy": 1, "dog": 2, "jumps": 1, "over": 1}
	if len(got) != len(want) {
		t.Fatalf("got %d words, want %d: %v", len(got), len(want), got)
	}
	for w, c := range want {
		if got[w] != c {
			t.Fatalf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
	if e.Reg.Counter("shuffle_records_written").Value() == 0 {
		t.Fatal("no shuffle records recorded")
	}
	if e.NetTime() == 0 {
		t.Fatal("no network time charged for shuffle fetches")
	}
}

func TestSortedShuffleGlobalOrder(t *testing.T) {
	e := testEngine(t, 4, Config{})
	data := ints(1000)
	// Shuffle with range partitioning on big-endian keys: concatenating
	// partitions in order yields a globally sorted sequence.
	src := sliceSource(e, data, 8)
	splits := [][]byte{
		serde.SortableUint64Key(250), serde.SortableUint64Key(500), serde.SortableUint64Key(750),
	}
	rp := shuffle.NewRangePartitioner(splits)
	sorted := e.NewShuffled(src, ShuffleDep{
		Partitions:  rp.Partitions(),
		Partitioner: rp.Partition,
		Sorted:      true,
		Emit:        perRow(func(r Row) []byte { return serde.SortableUint64Key(uint64(r.(int))) }, func(r Row) []byte { return nil }),
		Post: func(ctx *TaskContext, recs shuffle.Records) []Row {
			out := make([]Row, 0, recs.Len())
			for _, rec := range materialize(recs) {
				v, _ := serde.FromSortableUint64Key(rec.Key)
				out = append(out, int(v))
			}
			return out
		},
	})
	parts, err := e.Run(sorted)
	if err != nil {
		t.Fatal(err)
	}
	var flat []int
	for _, rows := range parts {
		for _, r := range rows {
			flat = append(flat, r.(int))
		}
	}
	if len(flat) != 1000 {
		t.Fatalf("sorted %d rows", len(flat))
	}
	for i := 1; i < len(flat); i++ {
		if flat[i-1] > flat[i] {
			t.Fatalf("not globally sorted at %d: %d > %d", i, flat[i-1], flat[i])
		}
	}
}

func TestChainedShuffles(t *testing.T) {
	// wordcount, then count words per frequency (two shuffle boundaries).
	e := testEngine(t, 4, Config{})
	lines := []string{"a b c", "a b", "a"}
	wc := wordCountPlan(e, lines, 2, 3)
	byFreq := e.NewShuffled(wc, ShuffleDep{
		Partitions: 2,
		Emit:       perRow(func(r Row) []byte { return serde.EncodeInt64(r.([2]any)[1].(int64)) }, func(r Row) []byte { return serde.EncodeInt64(1) }),
		Post: func(ctx *TaskContext, recs shuffle.Records) []Row {
			counts := map[int64]int64{}
			for _, rec := range materialize(recs) {
				f, _ := serde.DecodeInt64(rec.Key)
				counts[f]++
			}
			var out []Row
			for f, c := range counts {
				out = append(out, [2]int64{f, c})
			}
			return out
		},
	})
	rows, err := e.Collect(byFreq)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, r := range rows {
		pair := r.([2]int64)
		got[pair[0]] = pair[1]
	}
	// a:3, b:2, c:1 → one word each at frequencies 1, 2, 3.
	want := map[int64]int64{1: 1, 2: 1, 3: 1}
	for f, c := range want {
		if got[f] != c {
			t.Fatalf("freq %d has %d words, want %d (all: %v)", f, got[f], c, got)
		}
	}
}

func TestCacheAvoidsRecompute(t *testing.T) {
	e := testEngine(t, 4, Config{})
	var computes atomic.Int64
	src := e.NewSource(4, func(ctx *TaskContext, part int) []Row {
		computes.Add(1)
		return []Row{part}
	}, nil).Cache()
	if _, err := e.Collect(src); err != nil {
		t.Fatal(err)
	}
	first := computes.Load()
	if first != 4 {
		t.Fatalf("first run computed %d partitions", first)
	}
	if _, err := e.Collect(src); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != first {
		t.Fatalf("cached plan recomputed: %d -> %d", first, computes.Load())
	}
}

func TestInjectedFailuresRetried(t *testing.T) {
	e := testEngine(t, 4, Config{TaskFailProb: 0.3, Seed: 9})
	lines := []string{"x y z", "x y", "x"}
	got := wordCounts(t, e, wordCountPlan(e, lines, 4, 4))
	if got["x"] != 3 || got["y"] != 2 || got["z"] != 1 {
		t.Fatalf("wrong counts under fault injection: %v", got)
	}
	if e.Reg.Counter("task_retries").Value() == 0 {
		t.Fatal("no retries recorded despite 30% failure injection")
	}
}

func TestPersistentFailureAborts(t *testing.T) {
	e := testEngine(t, 2, Config{TaskFailProb: 1.0, MaxTaskRetries: 2})
	p := sliceSource(e, ints(10), 2)
	if _, err := e.Collect(p); !errors.Is(err, ErrJobAborted) {
		t.Fatalf("err = %v, want ErrJobAborted", err)
	}
}

func TestUserErrorAbortsWithoutRetry(t *testing.T) {
	e := testEngine(t, 2, Config{})
	boom := errors.New("user bug")
	src := e.NewSource(1, func(ctx *TaskContext, part int) []Row { return []Row{1} }, nil)
	shuffled := e.NewShuffled(src, ShuffleDep{
		Partitions: 1,
		Emit:       perRow(func(Row) []byte { return []byte("k") }, func(Row) []byte { return nil }),
		Post:       func(*TaskContext, shuffle.Records) []Row { return nil },
	})
	_ = shuffled
	// A narrow fn returning an error isn't expressible; simulate via task
	// fn error path: a source that panics would crash, so instead check
	// runTasks' non-retryable path through a failing checkpoint encode.
	if err := e.Checkpoint(src, "/ckpt", nil, nil); err == nil {
		t.Fatal("nil codecs accepted")
	}
	_ = boom
}

func TestLineageRecoveryAfterNodeDeath(t *testing.T) {
	e := testEngine(t, 4, Config{})
	var sourceRuns atomic.Int64
	lines := []string{"alpha beta", "alpha gamma", "beta alpha"}
	src := e.NewSource(3, func(ctx *TaskContext, part int) []Row {
		sourceRuns.Add(1)
		return []Row{lines[part]}
	}, nil)
	words := e.NewNarrow(src, func(ctx *TaskContext, rows []Row) []Row {
		var out []Row
		for _, r := range rows {
			for _, w := range strings.Fields(r.(string)) {
				out = append(out, w)
			}
		}
		return out
	})
	wc := e.NewShuffled(words, ShuffleDep{
		Partitions: 2,
		Emit:       perRow(func(r Row) []byte { return []byte(r.(string)) }, func(r Row) []byte { return serde.EncodeInt64(1) }),
		Post: func(ctx *TaskContext, recs shuffle.Records) []Row {
			counts := map[string]int64{}
			for _, rec := range materialize(recs) {
				counts[string(rec.Key)]++
			}
			var out []Row
			for w, c := range counts {
				out = append(out, [2]any{w, c})
			}
			return out
		},
	})
	got := wordCounts(t, e, wc)
	if got["alpha"] != 3 {
		t.Fatalf("first run wrong: %v", got)
	}
	runsAfterFirst := sourceRuns.Load()

	// Kill a node that owns map outputs; the next job must detect the
	// lost blocks (fetch failure) and recompute only via lineage.
	st := e.shuffles[wc.id]
	victim := st.owner[0]
	if err := e.cfg.Cluster.Kill(victim); err != nil {
		t.Fatal(err)
	}
	got = wordCounts(t, e, wc)
	if got["alpha"] != 3 || got["beta"] != 2 || got["gamma"] != 1 {
		t.Fatalf("post-failure counts wrong: %v", got)
	}
	if e.Reg.Counter("fetch_failures").Value() == 0 {
		t.Fatal("no fetch failure recorded; node death not exercised")
	}
	if sourceRuns.Load() == runsAfterFirst {
		t.Fatal("lineage recomputation did not re-run source tasks")
	}
}

func TestCheckpointSkipsLineage(t *testing.T) {
	e := testEngine(t, 4, Config{})
	var sourceRuns atomic.Int64
	src := e.NewSource(4, func(ctx *TaskContext, part int) []Row {
		sourceRuns.Add(1)
		return []Row{part * 10}
	}, nil)
	enc := func(r Row) []byte { return serde.EncodeInt64(int64(r.(int))) }
	dec := func(b []byte) Row { v, _ := serde.DecodeInt64(b); return int(v) }
	if err := e.Checkpoint(src, "/ckpt/src", enc, dec); err != nil {
		t.Fatal(err)
	}
	base := sourceRuns.Load()
	got := collectInts(t, e, src)
	if len(got) != 4 || got[0] != 0 || got[3] != 30 {
		t.Fatalf("checkpoint read back %v", got)
	}
	if sourceRuns.Load() != base {
		t.Fatal("checkpointed plan recomputed its source")
	}
}

func TestLocalityPreferenceHonored(t *testing.T) {
	e := testEngine(t, 4, Config{})
	var wrongNode atomic.Int64
	want := topology.NodeID(2)
	src := e.NewSource(4, func(ctx *TaskContext, part int) []Row {
		if ctx.Node != want {
			wrongNode.Add(1)
		}
		return []Row{part}
	}, func(part int) []topology.NodeID { return []topology.NodeID{want} })
	if _, err := e.Collect(src); err != nil {
		t.Fatal(err)
	}
	if wrongNode.Load() != 0 {
		t.Fatalf("%d tasks ran off the preferred node", wrongNode.Load())
	}
}

func TestBroadcastAndAccumulator(t *testing.T) {
	e := testEngine(t, 4, Config{})
	lookup := e.Broadcast(map[string]int{"a": 1, "b": 2}, 64)
	acc := e.NewAccumulator()
	src := e.NewSource(4, func(ctx *TaskContext, part int) []Row {
		m := lookup.Value().(map[string]int)
		acc.Add(int64(m["a"]))
		return nil
	}, nil)
	if _, err := e.Collect(src); err != nil {
		t.Fatal(err)
	}
	if acc.Value() != 4 {
		t.Fatalf("accumulator = %d, want 4", acc.Value())
	}
	if e.Reg.Counter("broadcast_bytes").Value() == 0 {
		t.Fatal("broadcast bytes not charged")
	}
}

func TestForceSortShuffleEquivalent(t *testing.T) {
	lines := []string{"m n o p", "m n o", "m n", "m"}
	plain := testEngine(t, 4, Config{})
	forced := testEngine(t, 4, Config{ForceSortShuffle: true})
	a := wordCounts(t, plain, wordCountPlan(plain, lines, 2, 3))
	b := wordCounts(t, forced, wordCountPlan(forced, lines, 2, 3))
	if len(a) != len(b) {
		t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
	}
	for w, c := range a {
		if b[w] != c {
			t.Fatalf("mismatch for %q: %d vs %d", w, c, b[w])
		}
	}
}

func TestManyPartitionsStress(t *testing.T) {
	e := testEngine(t, 8, Config{})
	got := wordCounts(t, e, wordCountPlan(e, []string{
		strings.Repeat("w ", 500),
	}, 32, 16))
	if got["w"] != 500 {
		t.Fatalf("count = %d, want 500", got["w"])
	}
}

func BenchmarkWordCount(b *testing.B) {
	top := topology.TwoTier(2, 4, 2)
	fab := netsim.NewFabric(top, netsim.RDMA40G)
	lines := make([]string, 256)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta gamma delta %d epsilon zeta", i%10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
		e := NewEngine(Config{Cluster: cl})
		p := wordCountPlan(e, lines, 8, 8)
		if _, err := e.Collect(p); err != nil {
			b.Fatal(err)
		}
	}
}
