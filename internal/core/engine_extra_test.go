package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compress"
	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/topology"
)

func TestUnionLocalityPrefsRouteToChildren(t *testing.T) {
	e := testEngine(t, 4, Config{})
	var aNodes, bNodes atomic.Int64
	a := e.NewSource(2, func(ctx *TaskContext, part int) []Row {
		if ctx.Node != 1 {
			aNodes.Add(1)
		}
		return []Row{1}
	}, func(int) []topology.NodeID { return []topology.NodeID{1} })
	b := e.NewSource(2, func(ctx *TaskContext, part int) []Row {
		if ctx.Node != 3 {
			bNodes.Add(1)
		}
		return []Row{2}
	}, func(int) []topology.NodeID { return []topology.NodeID{3} })
	u := e.NewUnion(a, b)
	if _, err := e.Collect(u); err != nil {
		t.Fatal(err)
	}
	if aNodes.Load() != 0 || bNodes.Load() != 0 {
		t.Fatalf("union lost child locality prefs: %d, %d off-node tasks",
			aNodes.Load(), bNodes.Load())
	}
}

func TestShuffleOverUnionMixedParents(t *testing.T) {
	// Shuffle whose parent is a union of a source and a narrow chain.
	e := testEngine(t, 4, Config{})
	a := sliceSource(e, ints(20), 2)
	doubled := e.NewNarrow(sliceSource(e, ints(20), 3), func(_ *TaskContext, rows []Row) []Row {
		out := make([]Row, len(rows))
		for i, r := range rows {
			out[i] = r.(int) + 100
		}
		return out
	})
	u := e.NewUnion(a, doubled)
	counted := e.NewShuffled(u, ShuffleDep{
		Partitions: 2,
		Emit:       perRow(func(r Row) []byte { return serde.EncodeInt64(int64(r.(int) % 2)) }, func(r Row) []byte { return serde.EncodeInt64(int64(r.(int))) }),
		Post: func(_ *TaskContext, recs shuffle.Records) []Row {
			sum := int64(0)
			for _, rec := range materialize(recs) {
				v, _ := serde.DecodeInt64(rec.Value)
				sum += v
			}
			return []Row{sum}
		},
	})
	rows, err := e.Collect(counted)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rows {
		total += r.(int64)
	}
	// ints(20) sums to 190; +100 each for 20 rows adds 2000+190.
	if total != 190+190+2000 {
		t.Fatalf("total = %d", total)
	}
}

func TestNoLiveNodesFailsCleanly(t *testing.T) {
	e := testEngine(t, 2, Config{})
	for i := 0; i < 2; i++ {
		_ = e.cfg.Cluster.Kill(topology.NodeID(i))
	}
	p := sliceSource(e, ints(4), 2)
	if _, err := e.Collect(p); !errors.Is(err, ErrNoLiveNodes) {
		t.Fatalf("err = %v, want ErrNoLiveNodes", err)
	}
}

func TestCheckpointWithoutDFSFails(t *testing.T) {
	// Engine built with no DFS must reject checkpoints, not panic.
	e := testEngine(t, 2, Config{})
	e.fs = nil
	p := sliceSource(e, ints(4), 2)
	enc := func(r Row) []byte { return serde.EncodeInt64(int64(r.(int))) }
	dec := func(b []byte) Row { v, _ := serde.DecodeInt64(b); return int(v) }
	if err := e.Checkpoint(p, "/x", enc, dec); err == nil {
		t.Fatal("checkpoint without DFS accepted")
	}
}

func TestTaskMetricsPopulated(t *testing.T) {
	e := testEngine(t, 4, Config{})
	got := wordCounts(t, e, wordCountPlan(e, []string{"a b", "b"}, 2, 2))
	if got["b"] != 2 {
		t.Fatalf("counts = %v", got)
	}
	if e.Reg.Counter("tasks_launched").Value() == 0 {
		t.Fatal("tasks_launched not counted")
	}
	if e.Reg.Counter("stages_run").Value() < 2 {
		t.Fatalf("stages_run = %d, want >= 2", e.Reg.Counter("stages_run").Value())
	}
	if e.Reg.Histogram("task_duration_ns").Count() == 0 {
		t.Fatal("task durations not observed")
	}
}

func TestEmptyPartitionsFlowThroughShuffle(t *testing.T) {
	e := testEngine(t, 4, Config{})
	src := e.NewSource(4, func(_ *TaskContext, part int) []Row {
		if part != 0 {
			return nil // three empty partitions
		}
		return []Row{"only"}
	}, nil)
	shuffled := e.NewShuffled(src, ShuffleDep{
		Partitions: 3,
		Emit:       perRow(func(r Row) []byte { return []byte(r.(string)) }, func(Row) []byte { return nil }),
		Post: func(_ *TaskContext, recs shuffle.Records) []Row {
			out := make([]Row, recs.Len())
			for i, rec := range materialize(recs) {
				out[i] = string(rec.Key)
			}
			return out
		},
	})
	rows, err := e.Collect(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].(string) != "only" {
		t.Fatalf("rows = %v", rows)
	}
}

// TestPostOwnsItsRecordsView: every read of a reduce partition — first run,
// retried task, rerun over recomputed map outputs — hands Post a view
// nothing else writes or reads again. Views kept across all of that still
// hold what they held when they were handed over, and a Post that scribbles
// over its view changes no later read.
func TestPostOwnsItsRecordsView(t *testing.T) {
	for _, codec := range []compress.Codec{compress.None{}, compress.LZ{}} {
		e := testEngine(t, 4, Config{TaskFailProb: 0.25, Seed: 9, Codec: codec, RetryBackoff: -1})
		type kept struct {
			view shuffle.Records
			was  []shuffle.Record // deep copy taken inside Post
		}
		var mu sync.Mutex
		var views []kept
		scribble := false
		src := e.NewSource(4, func(_ *TaskContext, part int) []Row {
			rows := make([]Row, 60)
			for i := range rows {
				rows[i] = fmt.Sprintf("key-%02d", (part*5+i)%17)
			}
			return rows
		}, nil)
		plan := e.NewShuffled(src, ShuffleDep{
			Partitions: 3,
			Sorted:     true,
			Emit:       perRow(func(r Row) []byte { return []byte(r.(string)) }, func(r Row) []byte { return []byte(r.(string))[4:] }),
			Post: func(_ *TaskContext, recs shuffle.Records) []Row {
				k := kept{view: recs}
				out := make([]Row, recs.Len())
				for i, rec := range materialize(recs) {
					k.was = append(k.was, shuffle.Record{Key: bytes.Clone(rec.Key), Value: bytes.Clone(rec.Value)})
					out[i] = string(rec.Key) + string(rec.Value)
				}
				mu.Lock()
				defer mu.Unlock()
				if scribble {
					for _, rec := range materialize(recs) {
						clear(rec.Key)
						clear(rec.Value)
					}
				} else {
					views = append(views, k)
				}
				return out
			},
		})
		run := func() string {
			t.Helper()
			parts, err := e.Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(parts)
		}
		want := run()
		if err := e.Cluster().Kill(1); err != nil { // lose map outputs: the next run recomputes them
			t.Fatal(err)
		}
		if got := run(); got != want {
			t.Fatalf("%s: rerun after a node loss\n got %s\nwant %s", codec.Name(), got, want)
		}
		mu.Lock()
		scribble = true
		mu.Unlock()
		run()
		mu.Lock()
		scribble = false
		mu.Unlock()
		if got := run(); got != want {
			t.Fatalf("%s: run after a Post overwrote its view\n got %s\nwant %s", codec.Name(), got, want)
		}
		if len(views) < 9 {
			t.Fatalf("%s: kept %d views from three runs of three partitions", codec.Name(), len(views))
		}
		for n, k := range views {
			for i, rec := range materialize(k.view) {
				if !bytes.Equal(rec.Key, k.was[i].Key) || !bytes.Equal(rec.Value, k.was[i].Value) {
					t.Fatalf("%s: kept view %d, record %d is now %q/%q, was %q/%q", codec.Name(), n, i, rec.Key, rec.Value, k.was[i].Key, k.was[i].Value)
				}
			}
		}
	}
}
