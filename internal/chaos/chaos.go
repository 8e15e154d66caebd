// Package chaos is a deterministic, seed-driven fault scheduler. A
// declarative Schedule of fault events (crashes, partitions, stragglers,
// gray link faults, control-plane, stream, overload and transaction
// faults) is applied against a set of Targets as virtual time advances.
// Each fault kind is one entry of the kinds table.
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
	"cmp"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ComputeTarget is the executor-cluster surface chaos drives
// (implemented by *cluster.Cluster). Kill and Revive refuse only an
// unknown node: killing a dead node or reviving a live one is a no-op.
type ComputeTarget interface {
	Kill(topology.NodeID) error
	Revive(topology.NodeID) error
	SetSlowdown(topology.NodeID, time.Duration) error
}

// StorageTarget is the DFS surface (implemented by *dfs.DFS): a crashed
// machine loses its replicas until revival or re-replication, and
// CorruptBlock flips bits in one stored replica, exercising checksum
// verification and read-repair; a node that stores no block refuses it,
// and the controller counts the event refused.
type StorageTarget interface {
	KillNode(topology.NodeID) error
	ReviveNode(topology.NodeID) error
	CorruptBlock(topology.NodeID) error
}

// NetworkTarget is the fabric surface (implemented by *netsim.Fabric).
// CutLink/HealLink act on the directed reachability layer (gray faults);
// SetPartition rejects overlapping groups with an error: the controller
// counts the event refused and leaves the consensus target unpartitioned.
// Parse refuses such groups, so only a hand-built Event can reach that
// error.
type NetworkTarget interface {
	SetPartition(groups ...[]topology.NodeID) error
	Heal()
	SetNodeDegrade(topology.NodeID, float64)
	CutLink(src, dst topology.NodeID)
	HealLink(src, dst topology.NodeID)
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

// EngineTarget is the batch-engine surface (implemented by
// *core.Engine): per-node transient task fault probabilities, and
// CrashCoordinator, which discards the driver's volatile state at its
// next recovery point so the progress journal takes over.
type EngineTarget interface {
	SetNodeFailProb(topology.NodeID, float64)
	CrashCoordinator()
}

// NamenodeTarget is the replicated control-plane surface (implemented
// by *ha.Group). Member ids are consensus replica indices, not cluster
// nodes; a negative id means "the current leader" for CrashMember and
// "the most recently crashed member" for ReviveMember.
type NamenodeTarget interface {
	CrashMember(id int) error
	ReviveMember(id int) error
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
// the hints held for it. FailNode and RecoverNode refuse only an unknown
// node: failing a failed node or recovering a live one is not a refusal.
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
// split, split-copy, split-commit, merge, merge-copy, merge-commit), and
// Recover drives every orphaned transaction and half-done topology change
// to its deterministic resolution from replicated state.
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
	Nodes     int
	Compute   ComputeTarget
	Storage   StorageTarget
	Network   NetworkTarget
	Consensus ConsensusTarget
	Engine    EngineTarget
	Stream    StreamTarget
	KV        KVTarget
	Namenode  NamenodeTarget
	Overload  OverloadTarget
	Txn       TxnTarget
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
	refused     *metrics.CounterVec // chaos_events_refused{kind}
	err         error               // the first refusal, for Err
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

// New builds a controller over a schedule. Wildcard event nodes are
// resolved immediately from seed (see WildcardNode), so two controllers
// built from the same (schedule, seed) apply identical events. reg
// receives chaos_events_applied{kind}, chaos_events_refused{kind},
// partition_heals and chaos_vtime; nil disables counting.
func New(sched Schedule, seed uint64, targets Targets, reg *metrics.Registry) *Controller {
	c := &Controller{
		sched:   resolveWildcards(sched.sorted(), seed, targets.Nodes),
		seed:    seed,
		targets: targets,
	}
	if reg != nil {
		c.applied = reg.CounterVec("chaos_events_applied", "kind")
		c.refused = reg.CounterVec("chaos_events_refused", "kind")
		c.heals = reg.Counter("partition_heals")
		c.flapToggles = reg.Counter("chaos_flap_toggles")
		c.vtime = reg.Gauge("chaos_vtime")
	}
	return c
}

// resolveWildcards replaces WildcardNode targets with seeded picks. A
// wildcard of a kind that undoes another (revive, unslow, ...) reuses the
// node of the most recent resolved wildcard of that kind, so crash/revive
// pairs stay paired.
func resolveWildcards(sched Schedule, seed uint64, nodes int) Schedule {
	r := rng.New(seed)
	last := map[Kind]topology.NodeID{}
	out := append(Schedule(nil), sched...)
	for i := range out {
		if out[i].Node != WildcardNode {
			continue
		}
		if start := kinds[out[i].Kind].undoes; start != "" {
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
				c.setLink(want, s, d)
			}
		}
	}
}

// setLink cuts (cut) or heals one directed link on every wired
// gray-capable target.
func (c *Controller) setLink(cut bool, s, d topology.NodeID) {
	if n := c.targets.Network; n != nil {
		if cut {
			n.CutLink(s, d)
		} else {
			n.HealLink(s, d)
		}
	}
	if r := c.targets.Consensus; r != nil {
		if cut {
			r.CutLink(int(s), int(d))
		} else {
			r.HealLink(int(s), int(d))
		}
	}
}

// setLinks applies setLink to every src->dst pair but self-links.
func (c *Controller) setLinks(cut bool, srcs, dsts []topology.NodeID) {
	for _, s := range srcs {
		for _, d := range dsts {
			if s != d {
				c.setLink(cut, s, d)
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

// Err returns the first event a target refused, or nil.
func (c *Controller) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// apply fires one event against every wired target, counts it and marks
// it on its timeline track; an event a target refused is counted refused
// and kept for Err if it is the first.
func (c *Controller) apply(e Event) {
	k := kinds[e.Kind]
	if k.fire != nil {
		if err := k.fire(c, c.targets, e); err != nil {
			c.refused.With(string(e.Kind)).Inc()
			if c.err == nil {
				c.err = fmt.Errorf("chaos: %s refused: %w", strings.TrimSpace(Schedule{e}.String()), err)
			}
			return
		}
	}
	track := cmp.Or(k.track, "node-")
	if strings.HasSuffix(track, "-") {
		track = fmt.Sprintf("%s%02d", track, int(e.Node))
	}
	c.applied.With(string(e.Kind)).Inc()
	c.tracer.Instant(fmt.Sprintf("chaos %s", e.Kind), "chaos", track, map[string]string{
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
