package core

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/serde"
	"repro/internal/shuffle"
	"repro/internal/topology"
	"repro/internal/trace"
)

// memJournal is an in-process Journal for tests; production uses the
// Raft-replicated ha.Journal behind the same interface.
type memJournal struct {
	mu   sync.Mutex
	recs [][]byte
}

func (j *memJournal) Append(rec []byte, _ trace.TraceContext) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, append([]byte(nil), rec...))
	return nil
}

func (j *memJournal) Replay() ([][]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([][]byte, len(j.recs))
	for i, r := range j.recs {
		out[i] = append([]byte(nil), r...)
	}
	return out, nil
}

// crashAt crashes the coordinator on one specific chaos tick.
type crashAt struct {
	e    *Engine
	at   int
	tick int
}

func (c *crashAt) Tick() {
	c.tick++
	if c.tick == c.at {
		c.e.CrashCoordinator()
	}
}

// twoStagePlan builds wordcount over two shuffle boundaries: count per
// word, then re-key words by their count (a second full shuffle).
func twoStagePlan(e *Engine, lines []string) *Plan {
	counts := wordCountPlan(e, lines, 4, 3)
	return e.NewShuffled(counts, ShuffleDep{
		Partitions: 2,
		Emit:       perRow(func(r Row) []byte { return serde.EncodeInt64(r.([2]any)[1].(int64)) }, func(r Row) []byte { return []byte(r.([2]any)[0].(string)) }),
		Post: func(ctx *TaskContext, recs shuffle.Records) []Row {
			group := map[int64][]string{}
			for _, rec := range materialize(recs) {
				c, _ := serde.DecodeInt64(rec.Key)
				group[c] = append(group[c], string(rec.Value))
			}
			var out []Row
			for c, words := range group {
				sort.Strings(words)
				out = append(out, [2]any{c, words})
			}
			return out
		},
	})
}

var journalLines = []string{
	"the quick brown fox", "jumps over the lazy dog",
	"the dog barks", "quick quick fox",
}

// runTwoStage runs the plan and flattens results into word -> count
// group for comparison across engines.
func runTwoStage(t *testing.T, e *Engine, p *Plan) map[string]int64 {
	t.Helper()
	rows, err := e.Collect(p)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	out := map[string]int64{}
	for _, r := range rows {
		pair := r.([2]any)
		for _, w := range pair[1].([]string) {
			out[w] = pair[0].(int64)
		}
	}
	return out
}

func TestCoordinatorCrashResumesFromJournal(t *testing.T) {
	// Reference run without faults.
	ref := testEngine(t, 4, Config{Seed: 7})
	want := runTwoStage(t, ref, twoStagePlan(ref, journalLines))

	e := testEngine(t, 4, Config{Seed: 7})
	e.SetJournal(&memJournal{})
	p := twoStagePlan(e, journalLines)
	// Tick 1 = attempt start, tick 2 = first map stage's wave. Crash on
	// tick 3: after stage one completed and journaled, before stage two.
	e.SetChaos(&crashAt{e: e, at: 3})
	got := runTwoStage(t, e, p)
	if len(got) != len(want) {
		t.Fatalf("result size %d, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("word %q: count group %d, want %d", w, got[w], c)
		}
	}
	if n := e.Reg.Counter("coord_crashes").Value(); n != 1 {
		t.Errorf("coord_crashes = %d, want 1", n)
	}
	if n := e.Reg.Counter("coord_stages_resumed").Value(); n != 1 {
		t.Errorf("coord_stages_resumed = %d, want 1 (first shuffle stage)", n)
	}
	if n := e.Reg.Counter("coord_stages_restarted").Value(); n != 0 {
		t.Errorf("coord_stages_restarted = %d, want 0", n)
	}
}

func TestCoordinatorCrashWithoutJournalRestartsJob(t *testing.T) {
	e := testEngine(t, 4, Config{Seed: 7})
	p := twoStagePlan(e, journalLines)
	e.SetChaos(&crashAt{e: e, at: 3})
	got := runTwoStage(t, e, p)
	if len(got) == 0 {
		t.Fatal("job produced no output after coordinator crash")
	}
	if n := e.Reg.Counter("coord_crashes").Value(); n != 1 {
		t.Errorf("coord_crashes = %d, want 1", n)
	}
	if n := e.Reg.Counter("coord_stages_resumed").Value(); n != 0 {
		t.Errorf("coord_stages_resumed = %d, want 0 without a journal", n)
	}
}

func TestCoordinatorCrashDeadOwnerRestartsStage(t *testing.T) {
	e := testEngine(t, 8, Config{Seed: 7})
	e.SetJournal(&memJournal{})
	p := twoStagePlan(e, journalLines)
	want := runTwoStage(t, e, p) // clean run, journal fully populated

	// Kill every node that owns a map output of the first shuffle stage,
	// then crash the coordinator: the journaled record fails owner
	// verification and the stage recomputes from lineage.
	firstShuffle := p.parent // the wordcount shuffle feeding the final one
	e.mu.Lock()
	st := e.shuffles[firstShuffle.id]
	e.mu.Unlock()
	killed := map[topology.NodeID]bool{}
	st.mu.Lock()
	for _, owner := range st.owner {
		killed[owner] = true
	}
	st.mu.Unlock()
	for n := range killed {
		if err := e.cfg.Cluster.Kill(n); err != nil {
			t.Fatalf("Kill(%d): %v", n, err)
		}
	}
	e.CrashCoordinator()
	got := runTwoStage(t, e, p)
	if len(got) != len(want) {
		t.Fatalf("post-recovery result size %d, want %d", len(got), len(want))
	}
	if n := e.Reg.Counter("coord_stages_restarted").Value(); n == 0 {
		t.Error("coord_stages_restarted = 0, want > 0 (owners were killed)")
	}
}

func TestJournaledStagesResumeAcrossRuns(t *testing.T) {
	e := testEngine(t, 4, Config{Seed: 7})
	e.SetJournal(&memJournal{})
	p := twoStagePlan(e, journalLines)
	want := runTwoStage(t, e, p)
	// Crash between runs: the rerun should resume both shuffle stages
	// from the journal and recompute nothing but the result stage.
	e.CrashCoordinator()
	stagesBefore := e.Reg.Counter("stages_run").Value()
	got := runTwoStage(t, e, p)
	if len(got) != len(want) {
		t.Fatalf("rerun result size %d, want %d", len(got), len(want))
	}
	if n := e.Reg.Counter("coord_stages_resumed").Value(); n != 2 {
		t.Errorf("coord_stages_resumed = %d, want 2", n)
	}
	if n := e.Reg.Counter("stages_run").Value() - stagesBefore; n != 1 {
		t.Errorf("stages_run delta = %d, want 1 (result stage only)", n)
	}
}

func TestDroppedMapOutputNotResumed(t *testing.T) {
	e := testEngine(t, 4, Config{Seed: 7})
	e.SetJournal(&memJournal{})
	p := twoStagePlan(e, journalLines)
	want := runTwoStage(t, e, p)
	// A dropped map output leaves its stage's journal record standing:
	// after a crash the record's owners are alive but one partition's
	// blocks are gone, so that stage restarts and the other resumes.
	e.invalidateMapOutput(p.parent.id, 0)
	e.CrashCoordinator()
	got := runTwoStage(t, e, p)
	if len(got) != len(want) {
		t.Fatalf("rerun result size %d, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("word %q: count group %d, want %d", w, got[w], c)
		}
	}
	if n := e.Reg.Counter("coord_stages_resumed").Value(); n != 1 {
		t.Errorf("coord_stages_resumed = %d, want 1 (the second shuffle)", n)
	}
	if n := e.Reg.Counter("coord_stages_restarted").Value(); n != 1 {
		t.Errorf("coord_stages_restarted = %d, want 1 (the shuffle that lost a partition)", n)
	}
}

// TestEmptyMapOutputResumed runs a two-line word count over four map
// partitions, so two map tasks write no blocks: an output held but empty
// is not a dropped one, and the stage resumes after a crash.
func TestEmptyMapOutputResumed(t *testing.T) {
	e := testEngine(t, 4, Config{Seed: 7})
	e.SetJournal(&memJournal{})
	p := wordCountPlan(e, journalLines[:2], 4, 3)
	want := wordCounts(t, e, p)
	e.CrashCoordinator()
	got := wordCounts(t, e, p)
	if len(got) != len(want) {
		t.Fatalf("rerun result size %d, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("word %q: count %d, want %d", w, got[w], c)
		}
	}
	if n := e.Reg.Counter("coord_stages_resumed").Value(); n != 1 {
		t.Errorf("coord_stages_resumed = %d, want 1", n)
	}
	if n := e.Reg.Counter("coord_stages_restarted").Value(); n != 0 {
		t.Errorf("coord_stages_restarted = %d, want 0", n)
	}
}

func TestConcurrentJobsJournalTheirOwnStages(t *testing.T) {
	e := testEngine(t, 4, Config{Seed: 7})
	e.SetJournal(&memJournal{})
	// Job A's one map task waits until job B has run to the end, so A's
	// stage completes, and is journaled, after B started.
	started, release := make(chan struct{}), make(chan struct{})
	var startOnce, releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	src := e.NewSource(1, func(ctx *TaskContext, part int) []Row {
		startOnce.Do(func() { close(started) })
		<-release
		return []Row{"a", "b", "a", "c"}
	}, nil)
	pA := e.NewShuffled(src, ShuffleDep{
		Partitions: 2,
		Emit:       perRow(func(r Row) []byte { return []byte(r.(string)) }, func(Row) []byte { return nil }),
		Post: func(ctx *TaskContext, recs shuffle.Records) []Row {
			var out []Row
			for _, rec := range materialize(recs) {
				out = append(out, string(rec.Key))
			}
			return out
		},
	})
	done := make(chan error, 1)
	go func() {
		_, err := e.Collect(pA)
		done <- err
	}()
	<-started
	runTwoStage(t, e, twoStagePlan(e, journalLines)) // job B
	releaseOnce.Do(func() { close(release) })
	if err := <-done; err != nil {
		t.Fatalf("job A: %v", err)
	}

	e.CrashCoordinator()
	rows, err := e.Collect(pA)
	if err != nil {
		t.Fatalf("job A rerun: %v", err)
	}
	if len(rows) != 4 {
		t.Errorf("job A rerun rows = %d, want 4", len(rows))
	}
	if n := e.Reg.Counter("coord_stages_resumed").Value(); n != 1 {
		t.Errorf("coord_stages_resumed = %d, want 1 (job A's shuffle, journaled while job B ran)", n)
	}
	if n := e.Reg.Counter("coord_stages_restarted").Value(); n != 0 {
		t.Errorf("coord_stages_restarted = %d, want 0", n)
	}
}

func TestForeignJournalRecordsIgnored(t *testing.T) {
	j := &memJournal{}
	e := testEngine(t, 4, Config{Seed: 7})
	e.SetJournal(j)
	pA := twoStagePlan(e, journalLines)
	runTwoStage(t, e, pA) // fills the journal with job A's records

	// A different job on the same engine + journal: job A's records must
	// not be mistaken for job B's stages during recovery.
	pB := sliceSource(e, ints(40), 4)
	e.CrashCoordinator()
	got := collectInts(t, e, pB)
	if len(got) != 40 {
		t.Fatalf("job B rows = %d, want 40", len(got))
	}
	if n := e.Reg.Counter("coord_stages_resumed").Value(); n != 0 {
		t.Errorf("coord_stages_resumed = %d, want 0 (job B has no journaled stages)", n)
	}
	if n := e.Reg.Counter("coord_stages_restarted").Value(); n != 0 {
		t.Errorf("coord_stages_restarted = %d, want 0 (foreign records are ignored)", n)
	}
}

// FuzzParseJournalRecord: replayed bytes are outside input to the decoder.
// It never panics, and a record it accepts is written back as the same
// bytes.
func FuzzParseJournalRecord(f *testing.F) {
	stage := func(owners ...topology.NodeID) []byte {
		return journalRecord{kind: recStage, fp: 1469598103934665603, planID: 4, owners: owners}.encode()
	}
	ckpt := journalRecord{kind: recCkpt, fp: 42, planID: 7}.encode()
	for _, seed := range [][]byte{
		stage(0, 3, 1),
		ckpt,
		append(ckpt, 0),
		stage()[:13],
		append(stage(0), 0),
		append(stage()[:13], ownerBomb...),
		stage(),
		ckpt[:5],
		append([]byte{'x'}, ckpt[1:]...),
		stage(1<<32 - 1),
		{},
		stage(0, 1)[:21],
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, ok := decodeJournalRecord(raw)
		if !ok {
			return
		}
		if again := rec.encode(); !bytes.Equal(again, raw) {
			t.Fatalf("% x decoded as %+v, written back as % x", raw, rec, again)
		}
	})
}

// ownerBomb is an owner count of 2^32-1 in four bytes: the decoder must
// refuse it before it sizes the owner list.
var ownerBomb = []byte{0xff, 0xff, 0xff, 0xff}

func TestCountBombsRejectedBeforeAllocating(t *testing.T) {
	raw := append(journalRecord{kind: recStage, fp: 1, planID: 2}.encode()[:13], ownerBomb...)
	ok := true
	if got := leastAllocated(func() { _, ok = decodeJournalRecord(raw) }); got >= 4<<10 || ok {
		t.Errorf("owner count: accepted %t, allocated %d bytes", ok, got)
	}
}

// leastAllocated is the fewest bytes the process allocated over five runs
// of f: the count is process-wide, and goroutines an earlier test left
// running may allocate during any one run.
func leastAllocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
