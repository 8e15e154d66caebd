package consensus

import "testing"

// InstallSnapshot over a log that already reaches the snapshot's index
// (Raft §7): the follower keeps only a suffix that follows the snapshot's
// own last entry, and its ack never claims more than the snapshot covers.

// snapFollower returns follower 1 of {0, 1, 2} holding entries 1..len(terms)
// at the given terms, appended by leader `from` at term terms[len-1], with
// commit 2.
func snapFollower(t *testing.T, from int, terms ...uint64) *Node {
	t.Helper()
	n := NewNode(Config{ID: 1, Peers: []int{0, 1, 2}, Seed: 1})
	var ents []Entry
	for i, term := range terms {
		ents = append(ents, Entry{Term: term, Index: uint64(i + 1), Data: []byte{byte(i)}})
	}
	out := n.Step(&Message{Type: MsgApp, From: from, To: 1, Term: terms[len(terms)-1], Entries: ents, Commit: 2}, nil)
	if len(out) != 1 || !out[0].Success || n.lastIndex() != uint64(len(terms)) {
		t.Fatalf("setup: follower did not take %d entries: %+v", len(terms), out)
	}
	return n
}

// installSnap delivers leader 2's snapshot at index 4, term 2, and returns
// the follower's ack.
func installSnap(t *testing.T, n *Node) Message {
	t.Helper()
	out := n.Step(&Message{Type: MsgSnap, From: 2, To: 1, Term: 2, SnapIndex: 4, SnapTerm: 2, SnapData: []byte("state@4")}, nil)
	if len(out) != 1 || out[0].Type != MsgAppResp || !out[0].Success {
		t.Fatalf("follower answered %+v, want one successful MsgAppResp", out)
	}
	return out[0]
}

// The follower took entries 1..5 at term 1 from an old leader; the new
// leader's snapshot holds 3..4 at term 2. Acking 5 would count the
// follower toward a quorum for entries it does not share.
func TestSnapshotOverConflictingTailAcksOnlyTheSnapshot(t *testing.T) {
	n := snapFollower(t, 0, 1, 1, 1, 1, 1)
	ack := installSnap(t, n)
	if ack.Index != 4 {
		t.Errorf("ack claims index %d; the follower shares only the snapshot's 4", ack.Index)
	}
	if off, data := n.Snapshot(); off != 4 || string(data) != "state@4" || n.LogLen() != 0 {
		t.Errorf("follower holds snapshot (%d, %q) and %d entries; want the snapshot at 4 and no conflicting tail", off, data, n.LogLen())
	}
	if term, _ := n.termAt(4); term != 2 || n.commit != 4 {
		t.Errorf("term at 4 = %d, commit %d; want 2 and 4", term, n.commit)
	}
}

// The follower holds the snapshot's last entry at its term: the entries
// after it stay, the ones it covers go.
func TestSnapshotOverMatchingLogKeepsTheSuffix(t *testing.T) {
	n := snapFollower(t, 2, 1, 1, 2, 2, 2, 2)
	before := n.entriesFrom(5, 2)
	ack := installSnap(t, n)
	if ack.Index != 4 {
		t.Errorf("ack claims index %d, want the snapshot's 4", ack.Index)
	}
	if off, _ := n.Snapshot(); off != 4 || n.LogLen() != 2 || n.lastIndex() != 6 {
		t.Errorf("offset %d, %d live entries, last index %d; want 4, 2, 6", off, n.LogLen(), n.lastIndex())
	}
	if got := n.entriesFrom(5, 2); &got[0] == &before[0] || got[0].Data[0] != 4 || got[1].Data[0] != 5 {
		t.Errorf("suffix %+v: want entries 5 and 6 in a fresh array", got)
	}
	if n.CommittedEntries() != nil {
		t.Error("entries the snapshot covers were handed to the state machine")
	}
}
