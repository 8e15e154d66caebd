package consensus

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/rng"
)

// Log views are shared, not copied: a MsgApp's Entries and the slice
// CommittedEntries returns alias the node's log. These tests hold such
// views across everything that changes the log afterwards and require
// them to stay byte for byte what they were.

// aliasLeader returns node 0 of {0,1,2} as leader of term 1 with the
// no-op (index 1) and entries 2..last in its log, follower 1 having
// acknowledged acked and the state machine having consumed that much.
func aliasLeader(t *testing.T, acked, last uint64) *Node {
	t.Helper()
	n := NewNode(Config{ID: 0, Peers: []int{0, 1, 2}, Seed: 5})
	for i := 0; i < 100 && n.State() != Candidate; i++ {
		n.Tick(nil)
	}
	n.Step(&Message{Type: MsgVoteResp, From: 1, To: 0, Term: n.Term(), Granted: true}, nil)
	if n.State() != Leader {
		t.Fatal("node 0 did not win its election")
	}
	for i := uint64(2); i <= last; i++ {
		n.Propose([]byte{'e', byte(i)}, nil)
	}
	n.Step(&Message{Type: MsgAppResp, From: 1, To: 0, Term: n.Term(), Success: true, Index: acked}, nil)
	n.CommittedEntries()
	return n
}

// usurp steps n with an append from node 2 at the next term that
// conflicts with n's log at index at.
func usurp(t *testing.T, n *Node, at uint64) {
	t.Helper()
	prevTerm, _ := n.termAt(at - 1)
	term := n.Term() + 1
	n.Step(&Message{
		Type: MsgApp, From: 2, To: 0, Term: term, PrevIndex: at - 1, PrevTerm: prevTerm,
		Entries: []Entry{{Term: term, Index: at, Data: []byte("usurper")}},
	}, nil)
	if got, _ := n.termAt(at); got != term || n.lastIndex() != at {
		t.Fatalf("conflict at %d not installed: term %d, last index %d", at, got, n.lastIndex())
	}
}

func cloneEntries(es []Entry) []Entry {
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = Entry{Term: e.Term, Index: e.Index, Data: bytes.Clone(e.Data)}
	}
	return out
}

func requireSameEntries(t *testing.T, when string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: view has %d entries, want %d", when, len(got), len(want))
	}
	for i := range want {
		if got[i].Term != want[i].Term || got[i].Index != want[i].Index || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s: view[%d] = {%d %d %q}, want {%d %d %q}", when, i,
				got[i].Term, got[i].Index, got[i].Data, want[i].Term, want[i].Index, want[i].Data)
		}
	}
}

// requireCapped fails unless an append to view must reallocate.
func requireCapped(t *testing.T, what string, view []Entry) {
	t.Helper()
	if len(view) == 0 || cap(view) != len(view) {
		t.Fatalf("%s: len %d, cap %d; want a non-empty view with cap == len", what, len(view), cap(view))
	}
}

func TestInFlightAppendSurvivesConflictTruncation(t *testing.T) {
	n := aliasLeader(t, 2, 4)
	_, msgs, _ := n.Propose([]byte{'e', 5}, nil)
	var held []Message
	for _, m := range msgs {
		if m.To == 1 {
			held = append(held, m)
		}
	}
	if len(held) != 1 || len(held[0].Entries) != 3 || held[0].Entries[0].Index != 3 {
		t.Fatalf("want one MsgApp to follower 1 carrying entries 3..5, got %+v", held)
	}
	view := held[0].Entries
	if &view[0] != &n.entries[2] {
		t.Fatal("MsgApp entries are a copy; this test is about views of the log")
	}
	requireCapped(t, "MsgApp.Entries", view)
	want := cloneEntries(view)
	usurp(t, n, 4)
	requireSameEntries(t, "after conflict truncation at 4", view, want)
}

func TestCommittedViewSurvivesLogChanges(t *testing.T) {
	n := aliasLeader(t, 1, 5)
	n.Step(&Message{Type: MsgAppResp, From: 1, To: 0, Term: n.Term(), Success: true, Index: 5}, nil)
	view := n.CommittedEntries()
	if len(view) != 4 || &view[0] != &n.entries[1] {
		t.Fatalf("want entries 2..5 as a view of the log, got %d entries", len(view))
	}
	requireCapped(t, "CommittedEntries", view)
	want := cloneEntries(view)

	n.Propose([]byte("later"), nil)
	requireSameEntries(t, "after a later Propose", view, want)
	// Raft never truncates a committed entry; the node does not check,
	// and that is exactly the overwrite a shared view must not see.
	usurp(t, n, 4)
	requireSameEntries(t, "after conflict truncation at 4", view, want)
	if err := n.Compact(3, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	requireSameEntries(t, "after Compact", view, want)
	n.Step(&Message{
		Type: MsgApp, From: 2, To: 0, Term: n.Term(), PrevIndex: 4, PrevTerm: n.Term(),
		Entries: []Entry{{Term: n.Term(), Index: 5, Data: []byte("next")}},
	}, nil)
	requireSameEntries(t, "after appending past the truncation", view, want)
}

func TestHandedOutEntriesAreCapped(t *testing.T) {
	n := aliasLeader(t, 0, 4)
	n.Step(&Message{Type: MsgAppResp, From: 1, To: 0, Term: n.Term(), Success: true, Index: 4}, nil)
	// The committed span 1..4 starts with the no-op: the filtered copy.
	requireCapped(t, "CommittedEntries with a no-op dropped", n.CommittedEntries())
	requireCapped(t, "CommittedSince with a no-op dropped", n.CommittedSince(0))
	requireCapped(t, "CommittedSince as a view", n.CommittedSince(1))
	requireCapped(t, "entriesFrom below its max", n.entriesFrom(1, 64))
	requireCapped(t, "entriesFrom cut at its max", n.entriesFrom(1, 2))
}

// A drained mailbox must not keep delivered messages alive: they
// reference log entries and whole snapshots.
func TestDrainedMailboxPinsNothing(t *testing.T) {
	c := NewCluster(3, 4)
	c.RunUntilLeader(200)
	for i := 0; i < 5; i++ {
		c.Propose([]byte{byte(i)})
	}
	for _, buf := range [][]Message{c.mail.Out[:cap(c.mail.Out)], c.mail.back[:cap(c.mail.back)]} {
		for i, m := range buf {
			if m.Entries != nil || m.SnapData != nil || m.Term != 0 {
				t.Fatalf("slot %d of a quiet mailbox still holds %+v", i, m)
			}
		}
	}
}

// appliedSum drives c through a seeded schedule of proposals, crashes,
// restarts, directed link cuts, leadership transfers and compactions,
// and returns a checksum over every node's applied sequence.
func appliedSum(c *Cluster, n int, seed uint64, ticks int) string {
	r := rng.New(seed)
	for tick := 0; tick < ticks; tick++ {
		switch x := r.Intn(100); {
		case x < 3:
			c.Crash(r.Intn(n))
		case x < 9:
			c.Restart(r.Intn(n))
		case x < 14:
			c.CutLink(r.Intn(n), r.Intn(n))
		case x < 20:
			c.HealLink(r.Intn(n), r.Intn(n))
		case x < 22:
			c.Heal()
		case x < 25:
			c.TransferLeadership(r.Intn(n), 3)
		case x < 27:
			// Mute the leader: it keeps appending proposals nobody hears,
			// the entries its successor will truncate.
			if l := c.Leader(); l >= 0 {
				for to := 0; to < n; to++ {
					c.CutLink(l, to)
				}
			}
		case x < 32:
			id := r.Intn(n)
			if applied := c.Applied(id); len(applied) > 0 {
				// An index below a snapshot the node installed since is
				// refused or a no-op; both are part of the schedule.
				_ = c.Node(id).Compact(applied[len(applied)-1].Index, []byte{byte(tick)})
			}
		}
		c.Propose(binary.BigEndian.AppendUint64(nil, seed<<32|uint64(tick)))
		c.Tick()
	}
	h := sha256.New()
	for id := 0; id < n; id++ {
		applied := c.Applied(id)
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(applied))))
		for _, e := range applied {
			h.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, e.Index), e.Term))
			h.Write(e.Data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAppliedSequencesMatchParent pins what every node applies, and in
// which order, to the commit before log views were shared: the constants
// were recorded there. hardened-5 was re-recorded when a follower whose
// log holds a snapshot's last entry began installing the snapshot (Raft
// §7) instead of ignoring it: its schedule, seed 1005, reaches that path
// twice. With that path reverted it matches the old constant.
func TestAppliedSequencesMatchParent(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Cluster
		n    int
		want string
	}{
		{"hardened-5", NewHardenedCluster(5, 77), 5, "27c454770e3575b9fb45d73d2f2229bd343c1fff7ac1ae2b1f37dab3908f8c0b"},
		{"vanilla-3", NewCluster(3, 78), 3, "94ca84e7c56a64ef1d63808c3e39c9666b096b60537af41fde0832ede4c8e55d"},
	} {
		if got := appliedSum(tc.c, tc.n, 1000+uint64(tc.n), 2000); got != tc.want {
			t.Errorf("%s: applied checksum = %s, want %s", tc.name, got, tc.want)
		}
	}
}
