package consensus

import (
	"testing"

	"repro/internal/metrics"
)

// A single-node cluster exercises the whole counter set deterministically:
// it wins its election immediately, commits proposals alone, and can
// compact its own log.
func TestMetricsSingleNodeLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	n := NewNode(Config{ID: 0, Peers: []int{0}, Seed: 3, Metrics: reg})

	for i := 0; i < 100 && n.State() != Leader; i++ {
		n.Tick(nil)
	}
	if n.State() != Leader {
		t.Fatal("single node never won its election")
	}
	if got := reg.Counter("raft_elections_started").Value(); got != 1 {
		t.Fatalf("elections counter = %d, want 1", got)
	}
	if got := reg.Counter("raft_leaderships_won").Value(); got != 1 {
		t.Fatalf("leaderships counter = %d, want 1", got)
	}
	if got := reg.Gauge("raft_term").Value(); got != int64(n.Term()) {
		t.Fatalf("term gauge = %d, want %d", got, n.Term())
	}

	idx, _, ok := n.Propose([]byte("x"), nil)
	if !ok {
		t.Fatal("leader rejected proposal")
	}
	committed := n.CommittedEntries()
	if len(committed) != 1 {
		t.Fatalf("committed %d entries, want 1", len(committed))
	}
	if got := reg.Counter("raft_entries_committed").Value(); got != 1 {
		t.Fatalf("committed counter = %d, want 1", got)
	}

	if err := n.Compact(idx, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("raft_compactions").Value(); got != 1 {
		t.Fatalf("compactions counter = %d, want 1", got)
	}
}

func TestSnapshotInstallCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	follower := NewNode(Config{ID: 1, Peers: []int{0, 1}, Metrics: reg})
	follower.Step(&Message{
		Type: MsgSnap, From: 0, To: 1, Term: 1,
		SnapIndex: 5, SnapTerm: 1, SnapData: []byte("state"),
	}, nil)
	if got := reg.Counter("raft_snapshots_installed").Value(); got != 1 {
		t.Fatalf("snapshots counter = %d, want 1", got)
	}
}
