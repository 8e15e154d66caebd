package netsim

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/topology"
)

func TestPartitionReachability(t *testing.T) {
	top := topology.TwoTier(2, 4, 2)
	f := NewFabric(top, RDMA40G)
	reg := metrics.NewRegistry()
	f.Instrument(reg)

	if !f.Reachable(0, 7) {
		t.Fatal("clean fabric must be fully reachable")
	}
	if err := f.SetPartition(
		[]topology.NodeID{0, 1, 2, 3},
		[]topology.NodeID{4, 5, 6},
	); err != nil {
		t.Fatalf("SetPartition: %v", err)
	}
	if f.Reachable(0, 4) {
		t.Fatal("cross-group transfer must be blocked")
	}
	if !f.Reachable(0, 3) || !f.Reachable(4, 6) {
		t.Fatal("same-group transfers must stay reachable")
	}
	// Node 7 was not mentioned: isolated in its own group.
	if f.Reachable(7, 6) || f.Reachable(0, 7) {
		t.Fatal("unmentioned node must be isolated")
	}
	if !f.Reachable(7, 7) {
		t.Fatal("same-node transfers never partition away")
	}
	f.Heal()
	if !f.Reachable(0, 4) {
		t.Fatal("heal must restore reachability")
	}
	if got := reg.Counter("net_partitions_set").Value(); got != 1 {
		t.Fatalf("net_partitions_set = %d, want 1", got)
	}
	if got := reg.Counter("net_partition_heals").Value(); got != 1 {
		t.Fatalf("net_partition_heals = %d, want 1", got)
	}
	// Healing a healthy fabric is a no-op, not a phantom heal.
	f.Heal()
	if got := reg.Counter("net_partition_heals").Value(); got != 1 {
		t.Fatalf("redundant heal counted: %d", got)
	}
}

func TestSetPartitionRejectsOverlap(t *testing.T) {
	top := topology.TwoTier(2, 4, 2)
	f := NewFabric(top, RDMA40G)
	if err := f.SetPartition(
		[]topology.NodeID{0, 1, 2},
		[]topology.NodeID{2, 3},
	); err == nil {
		t.Fatal("overlapping groups must be rejected")
	}
	// The failed call must not have installed a partial partition.
	if !f.Reachable(0, 3) {
		t.Fatal("rejected SetPartition mutated conditions")
	}
	// A node repeated inside the same group is harmless, not an overlap.
	if err := f.SetPartition([]topology.NodeID{0, 0, 1}, []topology.NodeID{2}); err != nil {
		t.Fatalf("duplicate within one group rejected: %v", err)
	}
	f.Heal()
}

func TestDirectedLinkCuts(t *testing.T) {
	top := topology.TwoTier(2, 4, 2)
	f := NewFabric(top, RDMA40G)
	reg := metrics.NewRegistry()
	f.Instrument(reg)

	// One-way cut: 0->1 blocked, 1->0 still flows.
	f.CutLink(0, 1)
	if f.Reachable(0, 1) {
		t.Fatal("cut link 0->1 must be unreachable")
	}
	if !f.Reachable(1, 0) {
		t.Fatal("reverse direction 1->0 must stay reachable")
	}
	// Non-transitive shape: 0->1 cut, 1->2 and 0->2 alive.
	if !f.Reachable(1, 2) || !f.Reachable(0, 2) {
		t.Fatal("uncut links must stay reachable")
	}
	// Idempotent cut, directed heal.
	f.CutLink(0, 1)
	f.HealLink(0, 1)
	if !f.Reachable(0, 1) {
		t.Fatal("HealLink must restore the direction")
	}
	f.HealLink(0, 1) // healing a healthy link is a no-op
	if got := reg.Counter("net_link_heals").Value(); got != 1 {
		t.Fatalf("net_link_heals = %d, want 1", got)
	}
	if got := reg.Counter("net_link_cuts").Value(); got != 2 {
		t.Fatalf("net_link_cuts = %d, want 2", got)
	}

	// Cuts compose with group partitions, and Heal clears both layers.
	f.CutLink(4, 5)
	if err := f.SetPartition([]topology.NodeID{0, 1, 2, 3}, []topology.NodeID{4, 5, 6, 7}); err != nil {
		t.Fatalf("SetPartition: %v", err)
	}
	if f.Reachable(4, 5) {
		t.Fatal("same-group transfer must still honor the directed cut")
	}
	if f.Reachable(0, 4) {
		t.Fatal("cross-group transfer must be blocked")
	}
	f.Heal()
	if !f.Reachable(4, 5) || !f.Reachable(0, 4) {
		t.Fatal("Heal must clear both the partition and directed cuts")
	}
	// Self-cuts are ignored: local transfers never partition away.
	f.CutLink(3, 3)
	if !f.Reachable(3, 3) {
		t.Fatal("self-cut must be a no-op")
	}
}

func TestNodeDegradeScalesCost(t *testing.T) {
	top := topology.TwoTier(2, 4, 2)
	f := NewFabric(top, TCP40G)
	const bytes = 1 << 20
	clean := f.Cost(0, 5, bytes)
	cleanLocalRack := f.Cost(0, 1, bytes)
	f.SetNodeDegrade(5, 4)
	degraded := f.Cost(0, 5, bytes)
	if degraded < 3*clean || degraded > 5*clean {
		t.Fatalf("degraded cost %v not ~4x clean %v", degraded, clean)
	}
	// Transfers not touching node 5 are unaffected.
	if got := f.Cost(0, 1, bytes); got != cleanLocalRack {
		t.Fatalf("unrelated link degraded: %v vs %v", got, cleanLocalRack)
	}
	// Same-node copies never degrade.
	local := f.Cost(5, 5, bytes)
	f.SetNodeDegrade(5, 1) // clears
	if got := f.Cost(5, 5, bytes); got != local {
		t.Fatalf("local copy changed under degradation: %v vs %v", got, local)
	}
	if got := f.Cost(0, 5, bytes); got != clean {
		t.Fatalf("clear failed: %v vs %v", got, clean)
	}
}

func TestDegradeSlowsSimulatedFlows(t *testing.T) {
	top := topology.TwoTier(1, 4, 1)
	f := NewFabric(top, RDMA40G)
	flows := []Flow{{Src: 0, Dst: 1, Bytes: 8 << 20}}
	clean := f.Simulate(flows)[0].Finish
	f.SetNodeDegrade(1, 8)
	slow := f.Simulate(flows)[0].Finish
	if slow < 4*clean {
		t.Fatalf("degraded flow finished in %v, clean %v; want >= 4x slower", slow, clean)
	}
	f.SetNodeDegrade(1, 1)
	if got := f.Simulate(flows)[0].Finish; got != clean {
		t.Fatalf("clearing the degradation failed: %v vs %v", got, clean)
	}
}
