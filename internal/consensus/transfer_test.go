package consensus

import (
	"fmt"
	"testing"
)

func TestLeadershipTransfer(t *testing.T) {
	c := NewCluster(5, 21)
	l := c.RunUntilLeader(300)
	for i := 0; i < 5; i++ {
		c.Propose([]byte(fmt.Sprintf("entry-%d", i)))
	}
	target := (l + 1) % 5
	if !c.TransferLeadership(target, 50) {
		t.Fatalf("transfer from %d to %d failed", l, target)
	}
	if c.Leader() != target {
		t.Fatalf("leader = %d, want %d", c.Leader(), target)
	}
	// Old leader stepped down.
	if c.Node(l).State() == Leader {
		t.Fatal("old leader did not step down")
	}
	// The new leader can commit.
	if !c.Propose([]byte("after-transfer")) {
		t.Fatal("propose after transfer failed")
	}
	c.Tick()
	applied := c.Applied(target)
	if len(applied) != 6 || string(applied[5].Data) != "after-transfer" {
		t.Fatalf("new leader applied %d entries", len(applied))
	}
}

func TestTransferCatchesUpLaggingTarget(t *testing.T) {
	c := NewCluster(3, 22)
	l := c.RunUntilLeader(300)
	target := (l + 1) % 3
	// Crash the target, commit entries it misses, restart it lagging.
	c.Crash(target)
	for i := 0; i < 10; i++ {
		c.Propose([]byte{byte(i)})
	}
	c.Restart(target)
	// Transfer must first replicate the missing entries, then hand off.
	if !c.TransferLeadership(target, 100) {
		t.Fatal("transfer to lagging follower failed")
	}
	// No committed entries may be lost across the transfer.
	c.Propose([]byte("post"))
	c.Tick()
	if got := len(c.Applied(target)); got != 11 {
		t.Fatalf("new leader applied %d entries, want 11", got)
	}
}

func TestTransferToSelfOrUnknownRejected(t *testing.T) {
	c := NewCluster(3, 23)
	l := c.RunUntilLeader(300)
	if msgs, ok := c.Node(l).TransferLeadership(l, nil); ok || msgs != nil {
		t.Fatal("transfer to self accepted")
	}
	if msgs, ok := c.Node(l).TransferLeadership(99, nil); ok || msgs != nil {
		t.Fatal("transfer to unknown peer accepted")
	}
	follower := (l + 1) % 3
	if msgs, ok := c.Node(follower).TransferLeadership(l, nil); ok || msgs != nil {
		t.Fatal("non-leader issued a transfer")
	}
}

func TestTransferSafetyEntriesSurvive(t *testing.T) {
	// Repeated transfers around the ring never lose committed entries.
	c := NewCluster(5, 24)
	c.RunUntilLeader(300)
	total := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			if !c.Propose([]byte{byte(total)}) {
				t.Fatalf("propose %d failed", total)
			}
			total++
		}
		target := (c.Leader() + 1) % 5
		if !c.TransferLeadership(target, 100) {
			t.Fatalf("round %d transfer failed", round)
		}
	}
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	for id := 0; id < 5; id++ {
		applied := c.Applied(id)
		if len(applied) != total {
			t.Fatalf("node %d applied %d/%d entries", id, len(applied), total)
		}
		for i, e := range applied {
			if e.Data[0] != byte(i) {
				t.Fatalf("node %d entry %d corrupted", id, i)
			}
		}
	}
}
