package consensus

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count returns to (or below) the
// baseline, failing the test on timeout — the leak check following the
// admission/stream race-test pattern. Raft nodes are single-threaded by
// design; this guards against helpers accidentally growing goroutines.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d alive, baseline %d", runtime.NumGoroutine(), baseline)
}

// isolateInbound blocks every link toward victim while leaving the
// victim's outbound links open — the classic gray failure: the node hears
// nothing, but its (increasingly desperate) campaigns still get out.
func isolateInbound(c *Cluster, victim, n int) {
	for i := 0; i < n; i++ {
		if i != victim {
			c.CutLink(i, victim)
		}
	}
}

// TestOneWayCutLivelockControl documents the failure mode the hardening
// exists for: under vanilla Raft, a node with only its inbound links cut
// keeps campaigning at ever higher terms, and each campaign that escapes
// deposes the healthy leader even though a connected 4/5 majority exists
// the whole time.
func TestOneWayCutLivelockControl(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := NewCluster(5, 1)
	if l := c.RunUntilLeader(200); l < 0 {
		t.Fatal("no initial leader")
	}
	if !c.TransferLeadership(0, 50) {
		t.Fatal("could not rig leader to node 0")
	}
	bootTerm := c.MaxTerm()
	isolateInbound(c, 4, 5)

	depositions := 0
	failed := 0
	for i := 0; i < 300; i++ {
		c.Tick()
		if !c.HasConnectedMajority() {
			t.Fatal("one-way cut must leave a connected majority")
		}
		if !c.Propose([]byte{byte(i)}) {
			failed++
		}
		if c.Node(0).State() != Leader {
			depositions++
		}
	}
	if c.MaxTerm() < bootTerm+5 {
		t.Fatalf("control must show term inflation: boot %d, now %d", bootTerm, c.MaxTerm())
	}
	if depositions == 0 && failed == 0 {
		t.Fatal("control must show leader depositions or failed proposals")
	}
	waitGoroutines(t, baseline)
}

// TestOneWayCutDefended runs the identical fault against the hardened
// cluster: PreVote keeps the isolated node from inflating terms, the
// leader is never deposed, and every proposal commits.
func TestOneWayCutDefended(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := NewHardenedCluster(5, 1)
	if l := c.RunUntilLeader(200); l < 0 {
		t.Fatal("no initial leader")
	}
	if !c.TransferLeadership(0, 50) {
		t.Fatal("could not rig leader to node 0")
	}
	bootTerm := c.MaxTerm()
	isolateInbound(c, 4, 5)

	for i := 0; i < 300; i++ {
		c.Tick()
		if c.Node(0).State() != Leader {
			t.Fatalf("tick %d: hardened leader deposed by isolated node", i)
		}
		if !c.Propose([]byte{byte(i)}) {
			t.Fatalf("tick %d: proposal failed despite connected majority", i)
		}
	}
	if got := c.MaxTerm(); got > bootTerm+1 {
		t.Fatalf("PreVote must bound terms: boot %d, now %d", bootTerm, got)
	}
	// Heal: the isolated node rejoins without deposing anyone.
	c.Heal()
	for i := 0; i < 50; i++ {
		c.Tick()
		if c.Node(0).State() != Leader {
			t.Fatalf("rejoin tick %d: healed node deposed the leader", i)
		}
	}
	if c.Node(4).Leader() != 0 {
		t.Fatal("healed node must re-adopt the leader")
	}
	waitGoroutines(t, baseline)
}

// TestCheckQuorumStepDown cuts a leader off from the majority (keeping one
// follower — a partial partition, not a clean split) and requires the
// stale leader to abdicate within a CheckQuorum window while the majority
// side elects a usable replacement.
func TestCheckQuorumStepDown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := NewHardenedCluster(5, 7)
	if l := c.RunUntilLeader(200); l < 0 {
		t.Fatal("no initial leader")
	}
	if !c.TransferLeadership(0, 50) {
		t.Fatal("could not rig leader to node 0")
	}
	bootTerm := c.MaxTerm()
	// Leader 0 keeps follower 1, but the {0,1} island is cut from the
	// {2,3,4} majority in both directions. No higher-term message can ever
	// reach node 0, so CheckQuorum is the only mechanism that can stop it
	// serving stale leader reads.
	for _, inside := range []int{0, 1} {
		for _, outside := range []int{2, 3, 4} {
			c.CutLink(inside, outside)
			c.CutLink(outside, inside)
		}
	}
	if len(c.StaleLeaders()) != 1 {
		t.Fatalf("node 0 must be a stale leader, got %v", c.StaleLeaders())
	}

	steppedDownAt := -1
	for i := 0; i < 200; i++ {
		c.Tick()
		if steppedDownAt < 0 && c.Node(0).State() != Leader {
			steppedDownAt = i
		}
	}
	if steppedDownAt < 0 {
		t.Fatal("stale leader never stepped down")
	}
	if steppedDownAt > 30 {
		t.Fatalf("step-down took %d ticks; must land within ~2 CheckQuorum windows", steppedDownAt)
	}
	if c.Node(0).StepDowns() != 1 {
		t.Fatalf("StepDowns = %d, want 1", c.Node(0).StepDowns())
	}
	// The minority island cannot reach prevote quorum: no term inflation.
	if c.Node(0).Term() != bootTerm || c.Node(1).Term() != bootTerm {
		t.Fatalf("island inflated terms: node0 %d node1 %d, boot %d",
			c.Node(0).Term(), c.Node(1).Term(), bootTerm)
	}
	if len(c.StaleLeaders()) != 0 {
		t.Fatalf("stale leaders remain: %v", c.StaleLeaders())
	}
	l := c.Leader()
	if l < 1 {
		t.Fatalf("majority side must have a leader, got %d", l)
	}
	if !c.Propose([]byte("after-stepdown")) {
		t.Fatal("majority-side leader must accept proposals")
	}
	// Heal: old leader rejoins as follower of the new leader.
	c.Heal()
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	if c.Node(0).State() == Leader {
		t.Fatal("deposed leader must not reclaim leadership on heal")
	}
	waitGoroutines(t, baseline)
}

// TestForceTransferPiercesLease: deliberate leadership transfer must keep
// working on a hardened cluster — TimeoutNow campaigns carry Force, which
// bypasses PreVote and the followers' leader leases.
func TestForceTransferPiercesLease(t *testing.T) {
	c := NewHardenedCluster(5, 42)
	if l := c.RunUntilLeader(200); l < 0 {
		t.Fatal("no initial leader")
	}
	for _, target := range []int{2, 0, 3} {
		if !c.TransferLeadership(target, 50) {
			t.Fatalf("transfer to %d failed under hardening", target)
		}
		if !c.Propose([]byte("x")) {
			t.Fatalf("proposal after transfer to %d failed", target)
		}
	}
}

// TestConnectivityProbes covers the availability bookkeeping helpers.
func TestConnectivityProbes(t *testing.T) {
	c := NewCluster(5, 3)
	if !c.HasConnectedMajority() {
		t.Fatal("clean cluster has a connected majority")
	}
	// Pairwise cuts leaving no node with bidirectional quorum links:
	// split {0,1} vs {2,3,4} and cut 2<->3, 2<->4, 3<->4 — every node
	// ends with at most one bidirectional peer.
	c.Partition([]int{0, 1}, []int{2, 3, 4})
	c.CutLink(2, 3)
	c.CutLink(3, 2)
	c.CutLink(2, 4)
	c.CutLink(4, 2)
	c.CutLink(3, 4)
	c.CutLink(4, 3)
	if c.HasConnectedMajority() {
		t.Fatal("no quorum should be connected")
	}
	c.Heal()
	if !c.HasConnectedMajority() {
		t.Fatal("heal must restore the connected majority")
	}
	// A one-way cut alone does not break the majority.
	c.CutLink(0, 1)
	if !c.HasConnectedMajority() {
		t.Fatal("single directed cut must not break the majority")
	}
	c.HealLink(0, 1)
	if c.cut != nil {
		t.Fatal("HealLink must clear the empty cut set")
	}
}

// TestClusterIgnoresUnknownIDs: fault hooks take ids from outside input
// (chaos schedules pass node ids straight through), so an id that names
// no node is a no-op, never a panic, and never disturbs the real nodes.
func TestClusterIgnoresUnknownIDs(t *testing.T) {
	c := NewHardenedCluster(3, 5)
	l := c.RunUntilLeader(200)
	for _, id := range []int{-1, 3, 9} {
		c.Crash(id)
		c.Restart(id)
		c.CutLink(id, l)
		c.CutLink(l, id)
		c.HealLink(id, l)
	}
	if c.cut != nil {
		t.Fatalf("cuts recorded for unknown nodes: %v", c.cut)
	}
	c.Partition([]int{0, 1, 2, 9}, []int{-1, 3})
	if c.group[0] != c.group[1] || c.group[1] != c.group[2] {
		t.Fatalf("unknown ids split the cluster: %v", c.group)
	}
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if c.Leader() != l || !c.Propose([]byte("x")) || !c.HasConnectedMajority() {
		t.Fatalf("leader %d lost its footing to unknown ids (leader now %d)", l, c.Leader())
	}
}

// TestDeterministicGrayReplay: the same (faults, seed) must produce
// bit-identical trajectories — the property every E-GRAY verdict and the
// avail perf family lean on.
func TestDeterministicGrayReplay(t *testing.T) {
	run := func() (uint64, uint64, int) {
		c := NewHardenedCluster(5, 11)
		c.RunUntilLeader(200)
		c.TransferLeadership(0, 50)
		isolateInbound(c, 4, 5)
		ok := 0
		for i := 0; i < 150; i++ {
			c.Tick()
			if c.Propose([]byte{byte(i)}) {
				ok++
			}
		}
		return c.MaxTerm(), c.StepDowns(), ok
	}
	t1, s1, ok1 := run()
	t2, s2, ok2 := run()
	if t1 != t2 || s1 != s2 || ok1 != ok2 {
		t.Fatalf("replay diverged: (%d,%d,%d) vs (%d,%d,%d)", t1, s1, ok1, t2, s2, ok2)
	}
}
