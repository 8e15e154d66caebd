package ha

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func journalGroup(t *testing.T, cfg Config) (*Group, *Journal) {
	t.Helper()
	cfg.Machines = map[string]func() StateMachine{"job": NewJournalMachine}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	g := NewGroup(cfg)
	return g, NewJournal(g, "job")
}

func TestJournalAppendReplay(t *testing.T) {
	_, j := journalGroup(t, Config{})
	var want []string
	for i := 0; i < 5; i++ {
		rec := fmt.Sprintf("stage %d done", i)
		want = append(want, rec)
		if err := j.Append([]byte(rec), trace.TraceContext{}); err != nil {
			t.Fatalf("Append(%q): %v", rec, err)
		}
	}
	got, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("Replay returned %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if string(rec) != want[i] {
			t.Errorf("record %d = %q, want %q", i, rec, want[i])
		}
	}
}

func TestJournalSurvivesLeaderCrash(t *testing.T) {
	g, j := journalGroup(t, Config{})
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec %d", i)), trace.TraceContext{}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := g.CrashMember(-1); err != nil {
		t.Fatalf("CrashMember: %v", err)
	}
	for i := 3; i < 5; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec %d", i)), trace.TraceContext{}); err != nil {
			t.Fatalf("Append after leader crash: %v", err)
		}
	}
	got, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("Replay returned %d records, want 5", len(got))
	}
	for i, rec := range got {
		if want := fmt.Sprintf("rec %d", i); string(rec) != want {
			t.Errorf("record %d = %q, want %q", i, rec, want)
		}
	}
}

func TestJournalSnapshotRoundTrip(t *testing.T) {
	jm := &JournalMachine{}
	for i := 0; i < 4; i++ {
		jm.Apply([]byte(fmt.Sprintf("r%d", i)))
	}
	snap := jm.Snapshot()
	restored := &JournalMachine{}
	restored.Restore(snap)
	if len(restored.recs) != 4 {
		t.Fatalf("restored %d records, want 4", len(restored.recs))
	}
	for i, rec := range restored.recs {
		if want := fmt.Sprintf("r%d", i); string(rec) != want {
			t.Errorf("record %d = %q, want %q", i, rec, want)
		}
	}
}

func TestJournalCompactionKeepsHistory(t *testing.T) {
	reg := metrics.NewRegistry()
	g, j := journalGroup(t, Config{CompactEvery: 8, Metrics: reg})
	for i := 0; i < 30; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec %d", i)), trace.TraceContext{}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// The log has been compacted well below 30 entries; the journal
	// history must still be complete via the snapshot.
	g.mu.Lock()
	compacted := false
	for i, rep := range g.reps {
		if off, _ := g.net.Node(i).Snapshot(); off > 0 && rep != nil {
			compacted = true
		}
	}
	g.mu.Unlock()
	if !compacted {
		t.Fatal("no member compacted its log; CompactEvery not honored")
	}
	if c, b := reg.Counter("ha_compactions").Value(), reg.Counter("ha_snapshots_built").Value(); c < 3 || b < 1 || b >= c {
		t.Fatalf("ha_compactions = %d, ha_snapshots_built = %d; want every member compacting off shared snapshots", c, b)
	}
	got, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != 30 {
		t.Fatalf("Replay returned %d records, want 30", len(got))
	}
}
