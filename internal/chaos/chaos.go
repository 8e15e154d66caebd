// Package chaos is a deterministic, seed-driven fault scheduler. A
// declarative Schedule of events — node crash/revive, network partition
// and link degradation, per-node slowdown (stragglers), membership
// message loss, transient task faults — is applied against a set of
// Targets (executor cluster, network fabric, DFS, SWIM membership, Raft
// consensus) as virtual time advances.
//
// Virtual time is a plain counter the host system advances at its own
// deterministic points: the dataflow engine ticks once per scheduling
// wave and once per job attempt, protocol harnesses tick once per round.
// Because events fire only inside Tick — always from the driver thread —
// a run is exactly reproducible from (schedule, seed): the seed resolves
// wildcard ("*") target nodes at construction, and everything else is
// explicit in the schedule. See DESIGN.md "Chaos engineering".
package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ComputeTarget is the executor-cluster surface chaos drives
// (implemented by *cluster.Cluster).
type ComputeTarget interface {
	Kill(topology.NodeID) error
	Revive(topology.NodeID) error
	SetSlowdown(topology.NodeID, time.Duration) error
}

// StorageTarget is the DFS surface (implemented by *dfs.DFS): a crashed
// machine loses its replicas until revival or re-replication.
type StorageTarget interface {
	KillNode(topology.NodeID) error
	ReviveNode(topology.NodeID) error
}

// NetworkTarget is the fabric surface (implemented by *netsim.Fabric).
// CutLink/HealLink act on the directed reachability layer (gray faults);
// SetPartition rejects overlapping groups with an error, which the
// controller discards like every other target error (a bad partition spec
// is caught by schedule tests, not at injection time).
type NetworkTarget interface {
	SetPartition(groups ...[]topology.NodeID) error
	Heal()
	SetNodeDegrade(topology.NodeID, float64)
	CutLink(src, dst topology.NodeID)
	HealLink(src, dst topology.NodeID)
}

// MembershipTarget is the SWIM surface (implemented by *gossip.Cluster).
type MembershipTarget interface {
	Crash(id int)
	Revive(id int)
	SetLossProb(p float64)
}

// ConsensusTarget is the Raft surface (implemented by
// *consensus.Cluster). CutLink/HealLink mirror the fabric's directed
// reachability layer onto the consensus message transport.
type ConsensusTarget interface {
	Crash(id int)
	Restart(id int)
	Partition(groups ...[]int)
	Heal()
	CutLink(from, to int)
	HealLink(from, to int)
}

// FaultInjector receives per-node transient task fault probabilities
// (implemented by *core.Engine).
type FaultInjector interface {
	SetNodeFailProb(topology.NodeID, float64)
}

// NamenodeTarget is the replicated control-plane surface (implemented
// by *ha.Group). Member ids are consensus replica indices, not cluster
// nodes; a negative id means "the current leader" for CrashMember and
// "the most recently crashed member" for ReviveMember.
type NamenodeTarget interface {
	CrashMember(id int) error
	ReviveMember(id int) error
}

// CoordinatorTarget is the job-coordinator surface (implemented by
// *core.Engine): CrashCoordinator discards the driver's volatile state
// at its next recovery point and the progress journal takes over.
type CoordinatorTarget interface {
	CrashCoordinator()
}

// BlockCorrupter flips bits in one stored DFS replica (implemented by
// *dfs.DFS), exercising checksum verification and read-repair.
type BlockCorrupter interface {
	CorruptBlock(topology.NodeID) error
}

// StreamTarget is the stream-engine surface (implemented by
// *stream.Runner): CrashWorker kills one stream worker's state,
// RestoreWorker triggers recovery from the last committed checkpoint
// with source-tail replay. The id is the worker index.
type StreamTarget interface {
	CrashWorker(id int) error
	RestoreWorker(id int) error
}

// KVTarget is the quorum KV store surface (implemented by
// *kvstore.Store): a crashed node stops serving reads and writes (its
// share of the ring rides on hinted handoff) until recovery delivers
// the hints held for it.
type KVTarget interface {
	FailNode(topology.NodeID) error
	RecoverNode(topology.NodeID) error
}

// OverloadTarget is the open-loop traffic surface (implemented by
// *admission.Sim): SetBurst scales every tenant's arrival rate, and
// SetTenantFlood scales one tenant's. Factor 1 restores normal traffic.
type OverloadTarget interface {
	SetBurst(factor float64)
	SetTenantFlood(tenant int, factor float64)
}

// TxnTarget is the sharded transactional plane surface (implemented by
// *kvstore.Sharded): OrphanNext arms a one-shot coordinator crash at a
// named protocol point (begin, prepare, before-commit, commit, apply,
// split, split-copy, split-commit, merge), and Recover drives every
// orphaned transaction and half-done topology change to its
// deterministic resolution from replicated state.
type TxnTarget interface {
	OrphanNext(point string) error
	Recover() error
}

// Targets wires a controller to the systems it acts on. Any field may be
// nil; events silently skip absent targets, so one schedule drives
// whatever subset a test or experiment assembles.
type Targets struct {
	// Nodes is the cluster size, used to resolve wildcard ("*") event
	// nodes. Required only when the schedule contains wildcards.
	Nodes       int
	Compute     ComputeTarget
	Storage     StorageTarget
	Network     NetworkTarget
	Membership  MembershipTarget
	Consensus   ConsensusTarget
	Faults      FaultInjector
	Stream      StreamTarget
	KV          KVTarget
	Namenode    NamenodeTarget
	Coordinator CoordinatorTarget
	Corrupt     BlockCorrupter
	Overload    OverloadTarget
	Txn         TxnTarget
}

// Controller replays a schedule against its targets as virtual time
// advances. Safe for concurrent use, though deterministic replay depends
// on the host ticking from one driver thread.
type Controller struct {
	mu      sync.Mutex
	sched   Schedule
	idx     int
	now     int64
	seed    uint64
	targets Targets

	// flaps are the active link-flap coins; while any is active, virtual
	// time advances tick by tick (each tick re-rolls every flapping pair)
	// instead of jumping event to event.
	flaps []*flapState

	applied     *metrics.CounterVec // chaos_events_applied{kind}
	heals       *metrics.Counter    // partition_heals
	flapToggles *metrics.Counter    // chaos_flap_toggles
	vtime       *metrics.Gauge      // chaos_vtime

	tracer *trace.Recorder // optional: instant events per injected fault
}

// flapState is one active flap event: a seeded coin per src->dst pair,
// re-rolled every virtual tick. state tracks the current cut set so the
// controller only calls targets on transitions.
type flapState struct {
	srcs, dsts []topology.NodeID
	p          float64
	r          *rng.RNG
	state      map[[2]int]bool
}

// SetTracer attaches a trace recorder: every applied fault is recorded
// as an instant event on the track of the component it hits (the node's
// executor track, "network", "ha", the driver), so injections appear
// inline on the cross-node timeline next to the work they disrupted.
// Nil detaches.
func (c *Controller) SetTracer(r *trace.Recorder) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.tracer = r
	c.mu.Unlock()
}

// trackOf maps an event to the timeline track it annotates.
func trackOf(e Event) string {
	switch e.Kind {
	case Partition, Heal, Drop, Undrop, PartialPartition, LinkCut, LinkHeal, Flap, Unflap:
		return "network"
	case StreamCrash, StreamRestore:
		return fmt.Sprintf("stream-worker-%02d", int(e.Node))
	case NNCrash, NNRevive:
		return "ha"
	case CoordCrash:
		return "driver"
	case Burst, Unburst:
		return "clients"
	case TxnCrash, TxnRecover:
		return "txn"
	case TenantFlood, Unflood:
		return fmt.Sprintf("tenant-%02d", int(e.Node))
	default:
		return fmt.Sprintf("node-%02d", int(e.Node))
	}
}

// New builds a controller over a schedule. Wildcard event nodes are
// resolved immediately from seed (see WildcardNode), so two controllers
// built from the same (schedule, seed) apply identical events. reg
// receives chaos_events_applied{kind}, partition_heals and chaos_vtime;
// nil disables counting.
func New(sched Schedule, seed uint64, targets Targets, reg *metrics.Registry) *Controller {
	c := &Controller{
		sched:   resolveWildcards(sched.sorted(), seed, targets.Nodes),
		seed:    seed,
		targets: targets,
	}
	if reg != nil {
		c.applied = reg.CounterVec("chaos_events_applied", "kind")
		c.heals = reg.Counter("partition_heals")
		c.flapToggles = reg.Counter("chaos_flap_toggles")
		c.vtime = reg.Gauge("chaos_vtime")
	}
	return c
}

// resolveWildcards replaces WildcardNode targets with seeded picks. An
// "undo" kind (revive/unslow/unflaky/undegrade) wildcard reuses the node
// of the most recent resolved wildcard of its starting kind, so
// crash/revive pairs stay paired.
func resolveWildcards(sched Schedule, seed uint64, nodes int) Schedule {
	r := rng.New(seed)
	last := map[Kind]topology.NodeID{}
	undoOf := map[Kind]Kind{
		Revive:        Crash,
		Unslow:        Slow,
		Unflaky:       Flaky,
		Undegrade:     Degrade,
		StreamRestore: StreamCrash,
	}
	out := append(Schedule(nil), sched...)
	for i := range out {
		if out[i].Node != WildcardNode {
			continue
		}
		if start, ok := undoOf[out[i].Kind]; ok {
			if n, ok := last[start]; ok {
				out[i].Node = n
				continue
			}
		}
		if nodes <= 0 {
			panic("chaos: wildcard node in schedule but Targets.Nodes is 0")
		}
		n := topology.NodeID(r.Intn(nodes))
		out[i].Node = n
		last[out[i].Kind] = n
	}
	return out
}

// Tick advances virtual time by one and applies every event now due.
func (c *Controller) Tick() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceToLocked(c.now + 1)
}

// AdvanceTo moves virtual time forward to t (never backward), applying
// due events in schedule order.
func (c *Controller) AdvanceTo(t int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.advanceToLocked(t)
	}
}

func (c *Controller) advanceToLocked(t int64) {
	for c.now < t {
		if len(c.flaps) == 0 {
			// No per-tick faults active: jump straight to the next event
			// (or the target time) in one step.
			next := t
			if c.idx < len(c.sched) && c.sched[c.idx].At > c.now && c.sched[c.idx].At < next {
				next = c.sched[c.idx].At
			}
			c.now = next
		} else {
			c.now++
		}
		for c.idx < len(c.sched) && c.sched[c.idx].At <= c.now {
			c.apply(c.sched[c.idx])
			c.idx++
		}
		c.flapTickLocked()
	}
	c.vtime.Set(c.now)
}

// flapTickLocked re-rolls every active flapping pair once, applying only
// the transitions. Roll order (flap activation order, then srcs x dsts) is
// fixed, so a run is exactly reproducible from (schedule, seed).
func (c *Controller) flapTickLocked() {
	for _, f := range c.flaps {
		for _, s := range f.srcs {
			for _, d := range f.dsts {
				if s == d {
					continue
				}
				want := f.r.Float64() < f.p
				key := [2]int{int(s), int(d)}
				if want == f.state[key] {
					continue
				}
				f.state[key] = want
				c.flapToggles.Inc()
				if want {
					c.cutPair(s, d)
				} else {
					c.healPair(s, d)
				}
			}
		}
	}
}

// cutPair / healPair apply one directed link transition to every wired
// gray-capable target.
func (c *Controller) cutPair(s, d topology.NodeID) {
	if c.targets.Network != nil {
		c.targets.Network.CutLink(s, d)
	}
	if c.targets.Consensus != nil {
		c.targets.Consensus.CutLink(int(s), int(d))
	}
}

func (c *Controller) healPair(s, d topology.NodeID) {
	if c.targets.Network != nil {
		c.targets.Network.HealLink(s, d)
	}
	if c.targets.Consensus != nil {
		c.targets.Consensus.HealLink(int(s), int(d))
	}
}

func (c *Controller) cutPairs(srcs, dsts []topology.NodeID) {
	for _, s := range srcs {
		for _, d := range dsts {
			if s != d {
				c.cutPair(s, d)
			}
		}
	}
}

func (c *Controller) healPairs(srcs, dsts []topology.NodeID) {
	for _, s := range srcs {
		for _, d := range dsts {
			if s != d {
				c.healPair(s, d)
			}
		}
	}
}

// Now returns the current virtual time.
func (c *Controller) Now() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Applied returns how many events have fired.
func (c *Controller) Applied() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx
}

// Done reports whether every scheduled event has fired.
func (c *Controller) Done() bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx >= len(c.sched)
}

// apply fires one event against every wired target.
func (c *Controller) apply(e Event) {
	t := c.targets
	switch e.Kind {
	case Crash:
		if t.Compute != nil {
			_ = t.Compute.Kill(e.Node)
		}
		if t.Storage != nil {
			_ = t.Storage.KillNode(e.Node)
		}
		if t.Membership != nil {
			t.Membership.Crash(int(e.Node))
		}
		if t.Consensus != nil {
			t.Consensus.Crash(int(e.Node))
		}
		if t.KV != nil {
			_ = t.KV.FailNode(e.Node)
		}
	case Revive:
		if t.Compute != nil {
			_ = t.Compute.Revive(e.Node)
		}
		if t.Storage != nil {
			_ = t.Storage.ReviveNode(e.Node)
		}
		if t.Membership != nil {
			t.Membership.Revive(int(e.Node))
		}
		if t.Consensus != nil {
			t.Consensus.Restart(int(e.Node))
		}
		if t.KV != nil {
			_ = t.KV.RecoverNode(e.Node)
		}
	case Partition:
		if t.Network != nil {
			_ = t.Network.SetPartition(e.Group...)
		}
		if t.Consensus != nil {
			groups := make([][]int, len(e.Group))
			for i, g := range e.Group {
				groups[i] = make([]int, len(g))
				for j, n := range g {
					groups[i][j] = int(n)
				}
			}
			t.Consensus.Partition(groups...)
		}
	case PartialPartition:
		// Non-transitive partial partition: every cross-group link is cut
		// (both directions) but, unlike Partition, nodes OUTSIDE the listed
		// groups still reach everyone — connectivity stops being transitive.
		for i := range e.Group {
			for j := i + 1; j < len(e.Group); j++ {
				c.cutPairs(e.Group[i], e.Group[j])
				c.cutPairs(e.Group[j], e.Group[i])
			}
		}
	case LinkCut:
		c.cutPairs(e.Group[0], e.Group[1])
	case LinkHeal:
		c.healPairs(e.Group[0], e.Group[1])
	case Flap:
		c.flaps = append(c.flaps, &flapState{
			srcs:  e.Group[0],
			dsts:  e.Group[1],
			p:     e.Value,
			r:     rng.New(c.seed ^ (uint64(c.idx)+1)*0x9e3779b97f4a7c15),
			state: map[[2]int]bool{},
		})
	case Unflap:
		kept := c.flaps[:0]
		for _, f := range c.flaps {
			if nodesEqual(f.srcs, e.Group[0]) && nodesEqual(f.dsts, e.Group[1]) {
				// Heal whatever the coin currently holds cut, in roll order
				// (srcs x dsts): ranging over the state map would make the
				// transition log follow Go's map order, not the seed.
				for _, src := range f.srcs {
					for _, dst := range f.dsts {
						if f.state[[2]int{int(src), int(dst)}] {
							c.healPair(src, dst)
						}
					}
				}
				continue
			}
			kept = append(kept, f)
		}
		c.flaps = kept
	case Heal:
		if t.Network != nil {
			t.Network.Heal()
		}
		if t.Consensus != nil {
			t.Consensus.Heal()
		}
		// Heal is total: drop any active flap coins too, so a trailing
		// "T heal" leaves the run with a fully clean fabric.
		c.flaps = nil
		c.heals.Inc()
	case Slow:
		if t.Compute != nil {
			_ = t.Compute.SetSlowdown(e.Node, e.Delay)
		}
	case Unslow:
		if t.Compute != nil {
			_ = t.Compute.SetSlowdown(e.Node, 0)
		}
	case Flaky:
		if t.Faults != nil {
			t.Faults.SetNodeFailProb(e.Node, e.Value)
		}
	case Unflaky:
		if t.Faults != nil {
			t.Faults.SetNodeFailProb(e.Node, 0)
		}
	case Drop:
		if t.Membership != nil {
			t.Membership.SetLossProb(e.Value)
		}
	case Undrop:
		if t.Membership != nil {
			t.Membership.SetLossProb(0)
		}
	case Degrade:
		if t.Network != nil {
			t.Network.SetNodeDegrade(e.Node, e.Value)
		}
	case Undegrade:
		if t.Network != nil {
			t.Network.SetNodeDegrade(e.Node, 1)
		}
	case StreamCrash:
		if t.Stream != nil {
			_ = t.Stream.CrashWorker(int(e.Node))
		}
	case StreamRestore:
		if t.Stream != nil {
			_ = t.Stream.RestoreWorker(int(e.Node))
		}
	case NNCrash:
		if t.Namenode != nil {
			_ = t.Namenode.CrashMember(memberID(e.Node))
		}
	case NNRevive:
		if t.Namenode != nil {
			_ = t.Namenode.ReviveMember(memberID(e.Node))
		}
	case CoordCrash:
		if t.Coordinator != nil {
			t.Coordinator.CrashCoordinator()
		}
	case CorruptBlock:
		if t.Corrupt != nil {
			_ = t.Corrupt.CorruptBlock(e.Node)
		}
	case Burst:
		if t.Overload != nil {
			t.Overload.SetBurst(e.Value)
		}
	case Unburst:
		if t.Overload != nil {
			t.Overload.SetBurst(1)
		}
	case TenantFlood:
		if t.Overload != nil {
			t.Overload.SetTenantFlood(int(e.Node), e.Value)
		}
	case Unflood:
		if t.Overload != nil {
			t.Overload.SetTenantFlood(int(e.Node), 1)
		}
	case TxnCrash:
		if t.Txn != nil {
			_ = t.Txn.OrphanNext(e.Point)
		}
	case TxnRecover:
		if t.Txn != nil {
			_ = t.Txn.Recover()
		}
	}
	c.applied.With(string(e.Kind)).Inc()
	c.tracer.Instant(fmt.Sprintf("chaos %s", e.Kind), "chaos", trackOf(e), map[string]string{
		"kind":  string(e.Kind),
		"vtime": fmt.Sprint(e.At),
	})
}

// nodesEqual reports whether two node lists are identical (order matters:
// Unflap must name the same src/dst lists its Flap used).
func nodesEqual(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// memberID translates a schedule member token into the ha.Group call
// convention: "leader" becomes -1 (crash the leader / revive the most
// recently crashed member).
func memberID(n topology.NodeID) int {
	if n == LeaderNode {
		return -1
	}
	return int(n)
}
