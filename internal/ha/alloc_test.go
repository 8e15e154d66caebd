package ha

import (
	"encoding/binary"
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
// cost nothing per call, log growth and compaction next to nothing.
func TestGroupProposeAllocCeiling(t *testing.T) {
	g, cmd := tickGroup(), []byte("increment")
	got := testing.AllocsPerRun(500, func() {
		if _, err := g.Propose("tick", cmd); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3 {
		t.Errorf("Propose on a trivial machine: %.0f allocs per call, ceiling 3", got)
	}
}
