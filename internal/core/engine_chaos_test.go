package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/shuffle"
	"repro/internal/topology"
)

func TestFlakyNodeQuarantinedThenJobSucceeds(t *testing.T) {
	e := testEngine(t, 4, Config{})
	// Node 1 fails every task placed on it (the chaos "flaky" event).
	e.SetNodeFailProb(1, 1)
	got := collectInts(t, e, sliceSource(e, ints(200), 8))
	sort.Ints(got)
	want := ints(200)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
		}
	}
	if v := e.Reg.Counter("quarantined_nodes").Value(); v < 1 {
		t.Fatalf("quarantined_nodes = %d, want >= 1", v)
	}
	if v := e.Reg.Counter("task_retries").Value(); v < 2 {
		t.Fatalf("task_retries = %d, want >= 2", v)
	}
	if v := e.Reg.Counter("task_backoffs").Value(); v < 1 {
		t.Fatalf("task_backoffs = %d, want >= 1", v)
	}
	if v := e.Reg.Counter("backoff_ns_total").Value(); v <= 0 {
		t.Fatalf("backoff_ns_total = %d, want > 0", v)
	}
}

func TestSpeculativeBackupWinsForStraggler(t *testing.T) {
	e := testEngine(t, 4, Config{
		Speculation:    true,
		SpeculationMin: 2 * time.Millisecond,
	})
	// Node 3 stalls every task by far more than the straggler threshold.
	if err := e.Cluster().SetSlowdown(3, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := collectInts(t, e, sliceSource(e, ints(400), 8))
	if len(got) != 400 {
		t.Fatalf("got %d rows, want 400", len(got))
	}
	if v := e.Reg.Counter("speculative_launches").Value(); v < 1 {
		t.Fatalf("speculative_launches = %d, want >= 1", v)
	}
	if v := e.Reg.Counter("speculative_wins").Value(); v < 1 {
		t.Fatalf("speculative_wins = %d, want >= 1", v)
	}
}

func TestJobDeadlineAbortsCleanly(t *testing.T) {
	e := testEngine(t, 4, Config{})
	for _, n := range e.Cluster().LiveNodes() {
		if err := e.Cluster().SetSlowdown(n, 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.RunCtx(ctx, sliceSource(e, ints(100), 8))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	// The abort must not wait out the 200ms task stalls.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("deadline abort took %v", elapsed)
	}
	if v := e.Reg.Counter("jobs_deadline_aborted").Value(); v != 1 {
		t.Fatalf("jobs_deadline_aborted = %d, want 1", v)
	}
}

func TestCallerCancelStopsRetriesPromptly(t *testing.T) {
	e := testEngine(t, 4, Config{
		TaskFailProb:    1, // every task fails: the job can only retry
		MaxTaskRetries:  1000,
		RetryBackoff:    50 * time.Millisecond,
		MaxRetryBackoff: 500 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(40*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err := e.RunCtx(ctx, sliceSource(e, ints(50), 4))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// partitionTicker is a minimal ChaosTicker that partitions the fabric on
// its second tick and heals it on the sixth — long enough that at least
// one reduce wave sees blocked fetches, short enough that stage retries
// outlast it.
type partitionTicker struct {
	fab *netsim.Fabric
	n   int
}

func (p *partitionTicker) Tick() {
	p.n++
	switch p.n {
	case 2:
		p.fab.SetPartition([]topology.NodeID{0, 1}, []topology.NodeID{2, 3})
	case 6:
		p.fab.Heal()
	}
}

func TestPartitionBlocksFetchesUntilHeal(t *testing.T) {
	top := topology.Single(4)
	fab := netsim.NewFabric(top, netsim.RDMA40G)
	cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
	e := NewEngine(Config{Cluster: cl})
	e.SetChaos(&partitionTicker{fab: fab})
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the fox jumps over the dog",
	}
	got := wordCounts(t, e, wordCountPlan(e, lines, 4, 4))
	if got["the"] != 4 || got["fox"] != 2 {
		t.Fatalf("wrong counts after partition recovery: %v", got)
	}
	if v := e.Reg.Counter("partition_blocked_fetches").Value(); v < 1 {
		t.Fatalf("partition_blocked_fetches = %d, want >= 1", v)
	}
	// Blocked fetches must not invalidate intact map outputs.
	if v := e.Reg.Counter("fetch_failures").Value(); v != 0 {
		t.Fatalf("fetch_failures = %d, want 0 (outputs were never lost)", v)
	}
}

// stallFirst wraps a source so that the first copy of partition 0's task
// blocks until release is closed; every later copy runs straight through.
func stallFirst(e *Engine, parts int, release <-chan struct{}, rows func(part int) []Row) *Plan {
	var calls atomic.Int32
	return e.NewSource(parts, func(_ *TaskContext, part int) []Row {
		if part == 0 && calls.Add(1) == 1 {
			<-release
		}
		return rows(part)
	}, nil)
}

// awaitLateCopies releases the stalled primary and returns once every task
// the engine launched has run to its end on the cluster.
func awaitLateCopies(t *testing.T, e *Engine, release chan struct{}) {
	t.Helper()
	close(release)
	launched := e.Reg.Counter("tasks_launched").Value()
	for deadline := time.Now().Add(5 * time.Second); e.Cluster().Reg.Counter("tasks_completed").Value() < launched; {
		if time.Now().After(deadline) {
			t.Fatal("stalled copy never finished")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSpeculativeLoserIsFenced stalls a primary past its backup's finish.
// The job returns on the backup's result; the primary then runs to its end
// and nothing it computes may land — not in the result the caller now owns,
// not in the shuffle counters, which must read what a run with speculation
// off reads.
func TestSpeculativeLoserIsFenced(t *testing.T) {
	spec := Config{Speculation: true, SpeculationMin: time.Millisecond}
	rows := func(part int) []Row {
		out := make([]Row, 50)
		for i := range out {
			out[i] = fmt.Sprintf("w%02d", (part*7+i)%23)
		}
		return out
	}
	countWords := func(e *Engine, src *Plan) *Plan {
		return e.NewShuffled(src, ShuffleDep{
			Partitions: 3,
			Emit:       perRow(func(r Row) []byte { return []byte(r.(string)) }, func(Row) []byte { return []byte{1} }),
			Post: func(_ *TaskContext, recs shuffle.Records) []Row {
				return []Row{recs.Len()}
			},
		})
	}

	t.Run("result stage", func(t *testing.T) {
		e := testEngine(t, 4, spec)
		release := make(chan struct{})
		out, err := e.Run(stallFirst(e, 6, release, rows))
		if err != nil {
			t.Fatal(err)
		}
		if e.Reg.Counter("speculative_wins").Value() != 1 {
			t.Fatalf("speculative_wins = %d, want 1", e.Reg.Counter("speculative_wins").Value())
		}
		out[0] = nil // the result is the caller's now
		awaitLateCopies(t, e, release)
		if out[0] != nil {
			t.Fatal("the losing copy wrote the job's result after Run returned")
		}
	})

	t.Run("map stage", func(t *testing.T) {
		read := func(e *Engine, shuffled *Plan) string {
			s := fmt.Sprint(e.Reg.Counter("shuffle_records_written").Value(), e.Reg.Counter("shuffle_raw_bytes").Value(),
				e.Reg.Counter("shuffle_wire_bytes").Value(), e.Reg.Counter("shuffle_spills").Value())
			for _, vec := range []string{"shuffle_partition_bytes", "shuffle_partition_records"} {
				for part := 0; part < 3; part++ {
					s += fmt.Sprint(" ", e.Reg.CounterVec(vec, "shuffle", "partition").With(fmt.Sprint(shuffled.ID()), fmt.Sprint(part)).Value())
				}
			}
			return s
		}
		plain := testEngine(t, 4, Config{})
		idle := make(chan struct{})
		close(idle)
		plainPlan := countWords(plain, stallFirst(plain, 6, idle, rows))
		want, err := plain.Run(plainPlan)
		if err != nil {
			t.Fatal(err)
		}

		e := testEngine(t, 4, spec)
		release := make(chan struct{})
		plan := countWords(e, stallFirst(e, 6, release, rows))
		got, err := e.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		if e.Reg.Counter("speculative_wins").Value() != 1 {
			t.Fatalf("speculative_wins = %d, want 1", e.Reg.Counter("speculative_wins").Value())
		}
		awaitLateCopies(t, e, release)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("result %v, without speculation %v", got, want)
		}
		if g, w := read(e, plan), read(plain, plainPlan); g != w || strings.HasPrefix(g, "0 ") {
			t.Fatalf("shuffle counters with a fenced loser: %s\nwithout speculation:              %s", g, w)
		}
	})
}
