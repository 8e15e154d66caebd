package ha

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// tickSM is the trivial machine of the benchmark's ha probe: it counts
// and answers with a view of the command.
type tickSM struct{ n uint64 }

func (s *tickSM) Apply(cmd []byte) []byte { s.n++; return cmd[:1] }
func (s *tickSM) Snapshot() []byte        { return encAdd(s.n) }
func (s *tickSM) Restore(snap []byte)     { s.n = binary.BigEndian.Uint64(snap) }

func tickGroup() *Group {
	return NewGroup(Config{Seed: 42, Machines: map[string]func() StateMachine{
		"tick": func() StateMachine { return &tickSM{} },
	}})
}

// BenchmarkGroupPropose is one Propose on a trivial machine: what the
// replication path costs with no state machine work to hide behind.
func BenchmarkGroupPropose(b *testing.B) {
	g, cmd := tickGroup(), []byte("increment")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Propose("tick", cmd); err != nil {
			b.Fatal(err)
		}
	}
}

// One Propose is one envelope; messages, entry views and the mailbox
// cost nothing per call, log growth and compaction next to nothing. In
// bytes: the envelope plus each member's share of one log array per
// compaction cycle. The parent of the compacted log keeping its array
// size read 312 B per call, the log regrowing 1→2→…→256 every cycle.
func TestGroupProposeAllocCeiling(t *testing.T) {
	const runs = 1280 // ten compaction cycles
	g, cmd := tickGroup(), []byte("increment")
	propose := func() {
		if _, err := g.Propose("tick", cmd); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(500, propose); got > 3 {
		t.Errorf("Propose on a trivial machine: %.0f allocs per call, ceiling 3", got)
	}
	total := allocated(func() {
		for range runs {
			propose()
		}
	})
	if got := total / runs; got > 200 {
		t.Errorf("Propose on a trivial machine: %d bytes per call, ceiling 200", got)
	}
}

// A steady group builds a compaction snapshot in one buffer of about its
// own size: every machine appends into it, and the last build sized it.
// Before machines appended, each one's own snapshot was copied once more,
// about 2× the snapshot's length.
func TestGroupSnapshotBuildAllocCeiling(t *testing.T) {
	g := NewGroup(Config{Seed: 42, CompactEvery: 1 << 20, Dynamic: func(string) StateMachine { return NewJournalMachine() }})
	// ~200 KB, so that size-class rounding stays a few percent.
	rec := make([]byte, 200)
	propose := func(i int) {
		if _, err := g.Propose(fmt.Sprintf("journal-%d", i%4), rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 1000 {
		propose(i)
	}
	build := func() (snap []byte) {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.snapshotLocked(g.reps[g.net.Leader()])
	}
	build()
	propose(1000)
	var snap []byte
	if got := allocated(func() { snap = build() }); float64(got) > 1.15*float64(len(snap)) {
		t.Errorf("building a %d-byte snapshot allocated %d bytes, ceiling 1.15×", len(snap), got)
	}
}
