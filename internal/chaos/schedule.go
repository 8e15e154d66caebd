package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/topology"
)

// Kind names a fault event type.
type Kind string

// Event kinds; each is defined by its entry in kinds. Crash/Revive hit a
// whole machine across every wired target (executors, DFS replicas,
// consensus, the KV ring). Partition/Heal act on the network fabric and
// consensus transport. Slow/Unslow inject compute stragglers,
// Degrade/Undegrade network stragglers, Flaky/Unflaky transient task
// faults. StreamCrash/StreamRestore kill and recover one stream-engine
// worker (the node id is the worker index); recovery restores from the
// last committed checkpoint and replays the source tail.
// NNCrash/NNRevive kill and restart one member of the replicated
// control-plane group (the node id is the member index, or "leader");
// CoordCrash kills the job coordinator (volatile driver state is lost
// and the journal takes over); CorruptBlock flips bits in one stored
// DFS replica on the target node, exercising checksum read-repair.
const (
	Crash         Kind = "crash"
	Revive        Kind = "revive"
	Partition     Kind = "partition"
	Heal          Kind = "heal"
	Slow          Kind = "slow"
	Unslow        Kind = "unslow"
	Flaky         Kind = "flaky"
	Unflaky       Kind = "unflaky"
	Degrade       Kind = "degrade"
	Undegrade     Kind = "undegrade"
	StreamCrash   Kind = "stream-crash"
	StreamRestore Kind = "stream-restore"
	NNCrash       Kind = "nn-crash"
	NNRevive      Kind = "nn-revive"
	CoordCrash    Kind = "coord-crash"
	CorruptBlock  Kind = "corrupt-block"
	// Burst/Unburst scale every tenant's open-loop arrival rate by a
	// factor (traffic burst); TenantFlood/Unflood scale one tenant's rate
	// (a noisy neighbour flooding its share). Both act on the Overload
	// target; the Node field carries the tenant index for floods.
	Burst       Kind = "burst"
	Unburst     Kind = "unburst"
	TenantFlood Kind = "tenant-flood"
	Unflood     Kind = "unflood"
	// TxnCrash arms a one-shot transaction-coordinator crash at a named
	// 2PC/topology protocol point on the sharded KV plane; the next
	// operation through that point dies there, leaving its replicated
	// record behind. TxnRecover drives every orphaned transaction and
	// half-done range split/merge to its deterministic resolution.
	TxnCrash   Kind = "txn-crash"
	TxnRecover Kind = "txn-recover"
	// Gray-failure kinds act on the DIRECTED reachability layer of the
	// network fabric and consensus transport. LinkCut blocks every src->dst
	// pair between two node lists one way only (the reverse direction keeps
	// flowing); LinkHeal reverses exactly those cuts. PartialPartition cuts
	// both directions pairwise between its groups but — unlike Partition —
	// leaves intra-group and unlisted links alone, so non-transitive shapes
	// (A-B and B-C alive, A-C dead) are expressible. Flap seeds a per-tick
	// coin for every src->dst pair: each tick the link is cut with the given
	// probability, else healed (a flapping NIC or LB route); Unflap stops
	// the coin and heals its pairs.
	LinkCut          Kind = "link-cut"
	LinkHeal         Kind = "link-heal"
	PartialPartition Kind = "partial-partition"
	Flap             Kind = "flap"
	Unflap           Kind = "unflap"
)

// WildcardNode marks an event whose target node is chosen by the
// controller's seeded RNG at construction time (written "*" in the text
// form). A wildcard of a kind that undoes another (revive, unslow,
// unflaky, undegrade, stream-restore) resolves to the node picked by the
// most recent wildcard of the kind it undoes, so "crash * ... revive *"
// always pairs up.
const WildcardNode = topology.NodeID(-1)

// LeaderNode marks an nn-crash/nn-revive event targeting whichever
// member currently leads the control-plane group (written "leader" in
// the text form). For nn-revive it resolves to the most recently
// crashed member, so "nn-crash leader ... nn-revive leader" pairs up.
const LeaderNode = topology.NodeID(-2)

// Event is one scheduled fault, fired when virtual time reaches At.
type Event struct {
	At    int64
	Kind  Kind
	Node  topology.NodeID     // node, or worker, member or tenant index
	Value float64             // flaky/flap probability, degrade/burst/flood factor
	Delay time.Duration       // slow delay
	Group [][]topology.NodeID // partition groups, or {srcs, dsts} for link kinds
	Point string              // txn-crash protocol point
}

// Schedule is an ordered fault plan. Build one with Parse, a Preset, or
// literal Events; the controller sorts it stably by At.
type Schedule []Event

// sorted returns a stable At-ordered copy.
func (s Schedule) sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String renders the schedule in the text format Parse accepts.
func (s Schedule) String() string {
	var b strings.Builder
	for _, e := range s {
		fmt.Fprintf(&b, "%d %s", e.At, e.Kind)
		if k := kinds[e.Kind]; k.write != nil {
			b.WriteString(" " + k.write(e))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// groupsString renders node groups in the comma-list form Parse accepts,
// joined by sep ("|" for partition groups, " " for src/dst list pairs).
func groupsString(groups [][]topology.NodeID, sep string) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		ids := make([]string, len(g))
		for j, n := range g {
			ids[j] = strconv.Itoa(int(n))
		}
		parts[i] = strings.Join(ids, ",")
	}
	return strings.Join(parts, sep)
}

func nodeString(n topology.NodeID) string {
	switch n {
	case WildcardNode:
		return "*"
	case LeaderNode:
		return "leader"
	}
	return strconv.Itoa(int(n))
}

// Parse reads the text schedule format: one event per line,
//
//	<at> <kind> [args]
//
// with '#' comments and blank lines ignored. Examples:
//
//	2 crash 3          # kill node 3 at virtual time 2
//	8 revive 3
//	3 partition 0-3|4-7
//	9 heal
//	1 slow 1 40ms      # node 1 tasks take 40ms longer
//	5 flaky 2 0.8      # tasks on node 2 fail with p=0.8
//	6 degrade 5 4      # transfers touching node 5 cost 4x
//	7 stream-crash 2   # kill stream worker 2 (state lost)
//	9 stream-restore 2 # recover from the last committed checkpoint
//	2 nn-crash leader  # kill the control-plane leader member
//	9 nn-revive leader # restart the most recently crashed member
//	5 coord-crash      # kill the job coordinator (journal recovers)
//	3 corrupt-block 4  # flip bits in one replica stored on node 4
//	4 link-cut 0-3 4   # gray: nodes 0..3 can no longer reach 4 (one way)
//	9 link-heal 0-3 4
//	5 partial-partition 0|2-4  # pairwise two-way cuts, non-transitive
//	6 flap 0 1-4 0.3   # each 0->x link cut with p=0.3 per tick
//	9 unflap 0 1-4     # stop flapping and heal those links
//
// Unknown kinds, wrong argument counts and trailing junk are all
// rejected with the offending line number. A node written "*" is a
// wildcard resolved from the controller seed; see WildcardNode.
func Parse(text string) (Schedule, error) {
	var s Schedule
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		bad := func(why string) (Schedule, error) {
			return nil, fmt.Errorf("chaos: line %d %q: %s", lineNo+1, strings.TrimSpace(raw), why)
		}
		at, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || at < 0 {
			return bad("want non-negative integer virtual time first")
		}
		if len(fields) < 2 {
			return bad("missing event kind")
		}
		e := Event{At: at, Kind: Kind(fields[1])}
		args := fields[2:]
		k, ok := kinds[e.Kind]
		if !ok {
			return bad(fmt.Sprintf("unknown event kind %q", fields[1]))
		}
		if len(args) != k.nargs {
			if k.nargs == 0 {
				return bad(fmt.Sprintf("%s takes no arguments", e.Kind))
			}
			return bad(fmt.Sprintf("%s wants %s", e.Kind, k.usage))
		}
		if k.read != nil {
			if err := k.read(&e, args); err != nil {
				return bad(err.Error())
			}
		}
		s = append(s, e)
	}
	return s, nil
}

func parseNode(tok string) (topology.NodeID, error) {
	if tok == "*" {
		return WildcardNode, nil
	}
	n, err := strconv.Atoi(tok)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad node %q", tok)
	}
	return topology.NodeID(n), nil
}

// parseMember reads a control-plane member id: a non-negative index or
// "leader" (the wildcard "*" makes no sense for a 3-member group whose
// ids are unrelated to cluster nodes, so it is rejected).
func parseMember(tok string) (topology.NodeID, error) {
	if tok == "leader" {
		return LeaderNode, nil
	}
	n, err := strconv.Atoi(tok)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad member %q (want an index or \"leader\")", tok)
	}
	return topology.NodeID(n), nil
}

// parseNodeList reads a comma list of ids or lo-hi ranges ("0-3", "0,2,5").
func parseNodeList(part string) ([]topology.NodeID, error) {
	var g []topology.NodeID
	for _, tok := range strings.Split(part, ",") {
		if tok == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(tok, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a < 0 || b < a {
				return nil, fmt.Errorf("bad range %q", tok)
			}
			for n := a; n <= b; n++ {
				g = append(g, topology.NodeID(n))
			}
		} else {
			n, err := strconv.Atoi(tok)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad node %q", tok)
			}
			g = append(g, topology.NodeID(n))
		}
	}
	if len(g) == 0 {
		return nil, fmt.Errorf("empty node list %q", part)
	}
	return g, nil
}

// parseGroups reads "0-3|4-7" or "0,2|1,3" style partition specs: groups
// separated by '|', each a comma list of ids or lo-hi ranges. The groups
// must be disjoint: a node named in two of them is refused, as the fabric
// and the consensus transport would each read it differently. A node
// repeated within one group is harmless.
func parseGroups(spec string) ([][]topology.NodeID, error) {
	var groups [][]topology.NodeID
	owner := map[topology.NodeID]int{}
	for i, part := range strings.Split(spec, "|") {
		g, err := parseNodeList(part)
		if err != nil {
			return nil, fmt.Errorf("%v in %q", err, spec)
		}
		for _, n := range g {
			if prev, ok := owner[n]; ok && prev != i {
				return nil, fmt.Errorf("node %d in groups %d and %d of %q: groups must be disjoint", n, prev, i, spec)
			}
			owner[n] = i
		}
		groups = append(groups, g)
	}
	if len(groups) < 2 {
		return nil, fmt.Errorf("partition wants at least two groups, got %q", spec)
	}
	return groups, nil
}
