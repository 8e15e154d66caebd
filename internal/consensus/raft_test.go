package consensus

import (
	"bytes"
	"fmt"
	"testing"
)

func TestSingleNodeBecomesLeader(t *testing.T) {
	c := NewCluster(1, 1)
	if l := c.RunUntilLeader(100); l != 0 {
		t.Fatalf("leader = %d", l)
	}
}

func TestElectionThreeNodes(t *testing.T) {
	c := NewCluster(3, 1)
	l := c.RunUntilLeader(200)
	if l < 0 {
		t.Fatal("no leader elected in 200 ticks")
	}
	// Exactly one leader at the top term.
	leaders := 0
	for id := 0; id < 3; id++ {
		if c.Node(id).State() == Leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders", leaders)
	}
}

func TestElectionVariousSizes(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7, 9} {
		c := NewCluster(n, uint64(n))
		if l := c.RunUntilLeader(500); l < 0 {
			t.Fatalf("size %d: no leader", n)
		}
	}
}

func TestReplicationReachesAllNodes(t *testing.T) {
	c := NewCluster(3, 2)
	c.RunUntilLeader(200)
	for i := 0; i < 10; i++ {
		if !c.Propose([]byte(fmt.Sprintf("cmd-%d", i))) {
			t.Fatalf("propose %d failed", i)
		}
	}
	c.Tick() // commit index propagates on next heartbeat
	for id := 0; id < 3; id++ {
		got := c.Applied(id)
		if len(got) != 10 {
			t.Fatalf("node %d applied %d entries, want 10", id, len(got))
		}
		for i, e := range got {
			if string(e.Data) != fmt.Sprintf("cmd-%d", i) {
				t.Fatalf("node %d entry %d = %q", id, i, e.Data)
			}
		}
	}
}

func TestAppliedLogsAreConsistentPrefixes(t *testing.T) {
	c := NewCluster(5, 3)
	c.RunUntilLeader(200)
	for i := 0; i < 20; i++ {
		c.Propose([]byte{byte(i)})
	}
	c.Tick()
	// Every pair of applied sequences must be prefix-consistent.
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			ea, eb := c.Applied(a), c.Applied(b)
			n := len(ea)
			if len(eb) < n {
				n = len(eb)
			}
			for i := 0; i < n; i++ {
				if ea[i].Index != eb[i].Index || !bytes.Equal(ea[i].Data, eb[i].Data) {
					t.Fatalf("nodes %d/%d diverge at applied position %d", a, b, i)
				}
			}
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c := NewCluster(3, 4)
	l1 := c.RunUntilLeader(200)
	c.Propose([]byte("before-crash"))
	c.Crash(l1)
	l2 := -1
	for i := 0; i < 500 && (l2 < 0 || l2 == l1); i++ {
		c.Tick()
		l2 = c.Leader()
	}
	if l2 < 0 || l2 == l1 {
		t.Fatal("no new leader after crash")
	}
	if !c.Propose([]byte("after-crash")) {
		t.Fatal("propose after failover failed")
	}
	c.Tick()
	for _, id := range []int{l2} {
		got := c.Applied(id)
		if len(got) != 2 || string(got[0].Data) != "before-crash" || string(got[1].Data) != "after-crash" {
			t.Fatalf("node %d applied %v", id, got)
		}
	}
}

func TestCrashedFollowerCatchesUp(t *testing.T) {
	c := NewCluster(3, 5)
	l := c.RunUntilLeader(200)
	follower := (l + 1) % 3
	c.Crash(follower)
	for i := 0; i < 10; i++ {
		c.Propose([]byte{byte(i)})
	}
	c.Restart(follower)
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if got := len(c.Applied(follower)); got != 10 {
		t.Fatalf("restarted follower applied %d/10 entries", got)
	}
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	c := NewCluster(5, 6)
	l := c.RunUntilLeader(200)
	// Isolate the leader with one follower (minority).
	buddy := (l + 1) % 5
	var majority []int
	for id := 0; id < 5; id++ {
		if id != l && id != buddy {
			majority = append(majority, id)
		}
	}
	c.Partition([]int{l, buddy}, majority)

	// Old leader can still append locally but must not commit.
	before := c.Node(l).commit
	_, c.mail.Out, _ = c.Node(l).Propose([]byte("doomed"), c.mail.Out)
	c.drain()
	if c.Node(l).commit != before {
		t.Fatal("minority leader advanced commit index")
	}

	// The majority elects a fresh leader and commits.
	var l2 int = -1
	for i := 0; i < 500; i++ {
		c.Tick()
		l2 = c.Leader()
		inMaj := false
		for _, id := range majority {
			if l2 == id {
				inMaj = true
			}
		}
		if inMaj {
			break
		}
	}
	found := false
	for _, id := range majority {
		if l2 == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("majority did not elect its own leader (leader=%d)", l2)
	}
	if !c.Propose([]byte("survives")) {
		t.Fatal("majority propose failed")
	}

	// Heal: the doomed entry must be overwritten everywhere.
	c.Heal()
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	for id := 0; id < 5; id++ {
		for _, e := range c.Applied(id) {
			if string(e.Data) == "doomed" {
				t.Fatalf("node %d applied an uncommitted minority entry", id)
			}
		}
	}
}

func TestAtMostOneLeaderPerTerm(t *testing.T) {
	// Run many seeds; in every tick, at most one live leader may exist per
	// term (Election Safety).
	for seed := uint64(0); seed < 10; seed++ {
		c := NewCluster(5, seed)
		for tick := 0; tick < 300; tick++ {
			c.Tick()
			leadersByTerm := map[uint64][]int{}
			for id := 0; id < 5; id++ {
				n := c.Node(id)
				if n.State() == Leader {
					leadersByTerm[n.Term()] = append(leadersByTerm[n.Term()], id)
				}
			}
			for term, ls := range leadersByTerm {
				if len(ls) > 1 {
					t.Fatalf("seed %d tick %d: term %d has leaders %v", seed, tick, term, ls)
				}
			}
		}
	}
}

func TestSnapshotCatchUp(t *testing.T) {
	c := NewCluster(3, 7)
	l := c.RunUntilLeader(200)
	follower := (l + 1) % 3
	c.Crash(follower)
	for i := 0; i < 30; i++ {
		c.Propose([]byte{byte(i)})
	}
	// Leader compacts away everything the dead follower would need.
	leader := c.Node(l)
	if err := leader.Compact(leader.applied, []byte("snapshot-state")); err != nil {
		t.Fatal(err)
	}
	if leader.LogLen() != 0 {
		t.Fatalf("leader log not compacted: %d entries", leader.LogLen())
	}
	c.Restart(follower)
	for i := 0; i < 30; i++ {
		c.Tick()
	}
	idx, data := c.Node(follower).Snapshot()
	if idx == 0 || string(data) != "snapshot-state" {
		t.Fatalf("follower snapshot = (%d, %q)", idx, data)
	}
	// New proposals still replicate to the snapshotted follower.
	c.Propose([]byte("post-snap"))
	c.Tick()
	applied := c.Applied(follower)
	if len(applied) == 0 || string(applied[len(applied)-1].Data) != "post-snap" {
		t.Fatal("follower did not receive post-snapshot entries")
	}
}

func TestCompactRejectsUnapplied(t *testing.T) {
	c := NewCluster(1, 8)
	c.RunUntilLeader(50)
	c.Propose([]byte("x"))
	n := c.Node(0)
	if err := n.Compact(n.applied+5, nil); err == nil {
		t.Fatal("compacting unapplied index succeeded")
	}
}

func TestProposeOnFollowerFails(t *testing.T) {
	c := NewCluster(3, 9)
	l := c.RunUntilLeader(200)
	follower := (l + 1) % 3
	if _, _, ok := c.Node(follower).Propose([]byte("x"), nil); ok {
		t.Fatal("follower accepted a proposal")
	}
}

func TestCommitRoundsSmall(t *testing.T) {
	// A healthy cluster commits in one round trip (append out, acks back).
	c := NewCluster(5, 10)
	c.RunUntilLeader(200)
	c.Propose([]byte("warm"))
	rounds, ok := c.ProposeAndCountRounds([]byte("measured"))
	if !ok {
		t.Fatal("proposal did not commit")
	}
	if rounds > 2 {
		t.Fatalf("commit took %d rounds, want <= 2", rounds)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() (int, uint64) {
		c := NewCluster(5, 42)
		l := c.RunUntilLeader(300)
		return l, c.Node(l).Term()
	}
	l1, t1 := run()
	l2, t2 := run()
	if l1 != l2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", l1, t1, l2, t2)
	}
}

func BenchmarkProposeCommit(b *testing.B) {
	c := NewCluster(5, 1)
	c.RunUntilLeader(300)
	payload := []byte("benchmark-entry")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Propose(payload) {
			b.Fatal("propose failed")
		}
	}
}
