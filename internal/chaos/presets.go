package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/topology"
)

// Preset builds a named canned schedule sized for a cluster of n nodes.
// Presets are what the CLI -chaos flag and scripts/chaos.sh use; every
// preset leaves the cluster fully healthy once its last event fires, so a
// job that outlives the schedule can always finish. Known names: crash,
// partition, straggler, flaky, mixed — plus "stream", which targets the
// stream engine (stream-crash/stream-restore of one worker), and the
// control-plane presets "nn-crash" (kill + revive the namenode leader),
// "coord-crash" (kill the job coordinator) and "ha" (both),
// "overload" (traffic burst + tenant flood + per-node slowdown against
// the admission layer), "txn" (transaction-coordinator crashes
// bracketing the 2PC commit point, each followed by recovery), and
// "gray" (directed link cuts, link flapping, and a non-transitive
// partial partition — the asymmetric faults E-GRAY sweeps). Those are
// kept out of PresetNames so the compute-preset sweeps (EFT, chaos.sh)
// skip them; E-SFT/E-HA/E-OVL/E-TXN use them.
func Preset(name string, n int) (Schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("chaos: preset needs >= 2 nodes, got %d", n)
	}
	victim := topology.NodeID(n / 2)
	last := topology.NodeID(n - 1)
	half := firstHalf(n)
	rest := secondHalf(n)
	switch name {
	case "crash":
		return Schedule{
			{At: 2, Kind: Crash, Node: victim},
			{At: 8, Kind: Revive, Node: victim},
		}, nil
	case "partition":
		return Schedule{
			{At: 2, Kind: Partition, Group: [][]topology.NodeID{half, rest}},
			{At: 6, Kind: Heal},
		}, nil
	case "straggler":
		return Schedule{
			{At: 1, Kind: Slow, Node: last, Delay: 25 * time.Millisecond},
			{At: 12, Kind: Unslow, Node: last},
		}, nil
	case "flaky":
		return Schedule{
			{At: 1, Kind: Flaky, Node: victim, Value: 0.8},
			{At: 10, Kind: Unflaky, Node: victim},
		}, nil
	case "stream":
		return Schedule{
			{At: 4, Kind: StreamCrash, Node: victim},
			{At: 10, Kind: StreamRestore, Node: victim},
		}, nil
	case "nn-crash":
		return Schedule{
			{At: 2, Kind: NNCrash, Node: LeaderNode},
			{At: 4, Kind: NNRevive, Node: LeaderNode},
		}, nil
	case "coord-crash":
		return Schedule{
			{At: 4, Kind: CoordCrash},
		}, nil
	case "ha":
		return Schedule{
			{At: 2, Kind: NNCrash, Node: LeaderNode},
			{At: 4, Kind: CoordCrash},
			{At: 5, Kind: NNRevive, Node: LeaderNode},
		}, nil
	case "overload":
		// Traffic burst + tenant flood + a per-node slowdown on the
		// serving path. The slow node is modelled with degrade (a fabric
		// cost multiplier) rather than the compute Slow kind, because the
		// KV quorum path is network-bound: every rtt through the victim
		// rises 4x, which is what a saturated server looks like to its
		// clients. Kept out of PresetNames like stream/ha so compute
		// sweeps skip it; E-OVL and the overload acceptance test use it.
		return Schedule{
			{At: 2, Kind: Burst, Value: 3},
			{At: 4, Kind: TenantFlood, Node: 0, Value: 5},
			{At: 5, Kind: Degrade, Node: victim, Value: 4},
			{At: 8, Kind: Undegrade, Node: victim},
			{At: 9, Kind: Unflood, Node: 0},
			{At: 10, Kind: Unburst},
		}, nil
	case "txn":
		// Coordinator crashes bracketing the 2PC commit point, each
		// followed by a recovery pass: the pre-commit orphan must resolve
		// as an abort, the post-commit one as a resumed apply. Kept out of
		// PresetNames like stream/ha/overload so compute sweeps skip it;
		// E-TXN and the txn acceptance test use it.
		return Schedule{
			{At: 2, Kind: TxnCrash, Point: "before-commit"},
			{At: 4, Kind: TxnRecover},
			{At: 6, Kind: TxnCrash, Point: "commit"},
			{At: 8, Kind: TxnRecover},
		}, nil
	case "gray":
		// Gray-failure sampler: a one-way cut toward the last node (it can
		// still send — the inbound-isolation shape), then a short flapping
		// window on the same links, then a non-transitive partial partition,
		// with a total heal at the end so the run finishes clean. Kept out
		// of PresetNames like stream/ha/overload/txn so compute sweeps skip
		// it; E-GRAY, the gray acceptance test and the -gray CLI flags use
		// it.
		others := make([]topology.NodeID, 0, n-1)
		for i := 0; i < n-1; i++ {
			others = append(others, topology.NodeID(i))
		}
		return Schedule{
			{At: 2, Kind: LinkCut, Group: [][]topology.NodeID{others, {last}}},
			{At: 8, Kind: LinkHeal, Group: [][]topology.NodeID{others, {last}}},
			{At: 10, Kind: Flap, Group: [][]topology.NodeID{others, {last}}, Value: 0.3},
			{At: 16, Kind: Unflap, Group: [][]topology.NodeID{others, {last}}},
			{At: 18, Kind: PartialPartition, Group: [][]topology.NodeID{{0}, {last}}},
			{At: 24, Kind: Heal},
		}, nil
	case "mixed":
		return Schedule{
			{At: 1, Kind: Slow, Node: last, Delay: 20 * time.Millisecond},
			{At: 2, Kind: Flaky, Node: victim, Value: 0.9},
			{At: 3, Kind: Crash, Node: topology.NodeID(1)},
			{At: 4, Kind: Partition, Group: [][]topology.NodeID{half, rest}},
			{At: 6, Kind: Heal},
			{At: 8, Kind: Revive, Node: topology.NodeID(1)},
			{At: 10, Kind: Unflaky, Node: victim},
			{At: 14, Kind: Unslow, Node: last},
		}, nil
	default:
		return nil, fmt.Errorf("chaos: unknown preset %q (want %s)", name, strings.Join(PresetNames(), ", "))
	}
}

// PresetNames lists the available presets, sorted.
func PresetNames() []string {
	names := []string{"crash", "partition", "straggler", "flaky", "mixed"}
	sort.Strings(names)
	return names
}

// Load resolves spec as a preset name first, then as a schedule text.
// CLIs call it with either a preset name or the contents of a schedule
// file.
func Load(spec string, nodes int) (Schedule, error) {
	if !strings.ContainsAny(spec, " \n\t") {
		if s, err := Preset(spec, nodes); err == nil {
			return s, nil
		}
	}
	return Parse(spec)
}

func firstHalf(n int) []topology.NodeID {
	out := make([]topology.NodeID, 0, n/2)
	for i := 0; i < n/2; i++ {
		out = append(out, topology.NodeID(i))
	}
	return out
}

func secondHalf(n int) []topology.NodeID {
	out := make([]topology.NodeID, 0, n-n/2)
	for i := n / 2; i < n; i++ {
		out = append(out, topology.NodeID(i))
	}
	return out
}
