// Package ha turns the tested Raft in internal/consensus into a usable
// replicated control plane: a Group runs one state-machine replica per
// consensus member, feeds every committed log entry through a
// deterministic Apply, snapshots replicas for log compaction and
// crash rebuild, and gives clients a Propose/Query API with leader
// discovery, retry-and-redirect and exactly-once command application
// (a sequence-numbered envelope deduplicates re-proposals that race a
// leader failover).
//
// The framework hosts two control-plane machines on one group: the DFS
// namenode metadata (package dfs) and the batch coordinator's job
// journal (package core via the Journal client) — both named machines
// multiplexed over the same command log, so a single 3-member group is
// the whole control plane. Chaos drives member crashes through
// CrashMember/ReviveMember (the nn-crash/nn-revive fault kinds) and the
// E-HA experiment reads the failover counters recorded here.
package ha

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/consensus"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// StateMachine is a deterministic state machine replicated by a Group.
// Apply must be a pure function of the machine's state and cmd (no wall
// clock, no unseeded randomness): every replica applies the same command
// sequence and must land in the same state. Snapshot serializes the full
// state; Restore replaces the state from a snapshot. Apply's return
// value is the client response, computed identically on every replica.
//
// cmd and snap are views of a log entry and of a snapshot that every
// replica shares and nothing ever writes: a machine may keep views of
// them (and answer with one) but must not modify them. The response is
// read-only too, for the group and for the client.
//
// A machine that also implements SnapshotAppender (every one in this
// module does) is appended straight into the group's compaction buffer,
// so each byte of state is copied once; one with only Snapshot is copied
// once more. That buffer is reserved at the last build's length plus
// slack, and the log it compacts keeps its array size (Node.Compact).
type StateMachine interface {
	Apply(cmd []byte) []byte
	Snapshot() []byte
	Restore(snap []byte)
}

// SnapshotAppender is the copy-free Snapshot: AppendSnapshot appends
// exactly Snapshot's bytes to dst, never writing dst[:len(dst)].
type SnapshotAppender interface {
	AppendSnapshot(dst []byte) []byte
}

// Config configures a replicated group.
type Config struct {
	// Members is the consensus group size. Default 3.
	Members int
	// Seed drives the members' election timers.
	Seed uint64
	// Machines maps machine names to replica factories. Every member
	// instantiates each machine once; commands are routed by name.
	// Required unless Dynamic is set.
	Machines map[string]func() StateMachine
	// Dynamic, when non-nil, is the fallback factory for machine names
	// absent from Machines: the first committed command (or restored
	// snapshot chunk) naming an unknown machine instantiates it through
	// Dynamic on every replica, at the same log position, so dynamically
	// created machines stay replica-identical without pre-registration.
	// This is what lets a sharded data plane mint per-range state
	// machines ("range-7") on demand over a fixed set of Raft groups.
	Dynamic func(name string) StateMachine
	// CompactEvery is the entry floor of log compaction: a member
	// compacts its log (recording a state-machine snapshot) once its live
	// length exceeds this and the entry bytes it applied since its last
	// compaction reach the length of the snapshot it stores. Default 128.
	CompactEvery int
	// MaxOpTicks bounds how many virtual ticks one Propose or Query may
	// spend waiting out elections before giving up. Default 500.
	MaxOpTicks int
	// DisableHardening runs the group on consensus.NewCluster instead of
	// NewHardenedCluster, turning off the Raft liveness hardening. Only
	// the gray-failure experiments set this, to measure the undefended
	// control.
	DisableHardening bool
	// Metrics, when non-nil, receives the group's counters: ha_proposals,
	// ha_queries, ha_redirects, ha_failovers, the ha_failover_ticks
	// histogram (ticks from leader loss to the next leader), member
	// crash/restart counts, snapshot restores, and compaction's cost:
	// ha_compactions, ha_snapshots_built, ha_snapshot_bytes. Optional.
	Metrics *metrics.Registry
}

type groupMetrics struct {
	proposals     *metrics.Counter
	queries       *metrics.Counter
	redirects     *metrics.Counter
	failovers     *metrics.Counter
	failoverTicks *metrics.Histogram
	stepdowns     *metrics.Counter
	crashes       *metrics.Counter
	restarts      *metrics.Counter
	snapRestores  *metrics.Counter
	compactions   *metrics.Counter
	snapsBuilt    *metrics.Counter
	snapBytes     *metrics.Counter
}

// replica is one member's set of state machines plus the command-dedup
// session state that makes re-proposed commands apply exactly once.
type replica struct {
	machines map[string]StateMachine
	names    []string                       // machine names, sorted (snapshot order)
	dynamic  func(name string) StateMachine // fallback factory (may be nil)
	applied  uint64                         // log index of the last applied entry
	lastSeq  uint64                         // highest command sequence applied
	lastResp []byte                         // response of lastSeq
	logBytes int                            // entry bytes applied since the stored snapshot
}

// Group is a replicated-state-machine group. Safe for concurrent use:
// every operation runs under one mutex, so commands are linearized and
// virtual time advances deterministically relative to the operation
// order.
type Group struct {
	mu  sync.Mutex
	cfg Config

	// net carries the members' messages: crashes, partitions and directed
	// link cuts are its state. reps[id] is nil while member id is crashed.
	net  *consensus.Cluster
	reps []*replica

	// The last compaction snapshot built and the applied index it is of.
	snapAt uint64
	snap   []byte

	// seenStepDowns mirrors the sum of member StepDowns() already counted
	// into the ha_leader_stepdowns metric.
	seenStepDowns uint64

	seq         uint64
	ticks       int64
	lastCrashed int

	// Failover accounting: once the group has had a leader, losing it
	// starts the clock; the next elected leader stops it.
	hadLeader    bool
	failingSince int64
	endFailSpan  func(map[string]string)
	tracer       *trace.Recorder

	m groupMetrics
}

// NewGroup builds a group with Members replicas of every configured
// machine and runs the boot election before returning, so the group is
// serving (and a chaos nn-crash targeting "the leader" has a real
// victim) from the first client operation. The boot election is not
// counted as a failover.
func NewGroup(cfg Config) *Group {
	if cfg.Members <= 0 {
		cfg.Members = 3
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 128
	}
	if cfg.MaxOpTicks <= 0 {
		cfg.MaxOpTicks = 500
	}
	if len(cfg.Machines) == 0 && cfg.Dynamic == nil {
		panic("ha: Config.Machines or Config.Dynamic is required")
	}
	g := &Group{
		cfg:          cfg,
		reps:         make([]*replica, cfg.Members),
		lastCrashed:  -1,
		failingSince: -1,
	}
	// Gray-failure liveness hardening is on by default: every ha consumer
	// (sharded KV, DFS namenode, coordinator journal) inherits it for free.
	if cfg.DisableHardening {
		g.net = consensus.NewCluster(cfg.Members, cfg.Seed)
	} else {
		g.net = consensus.NewHardenedCluster(cfg.Members, cfg.Seed)
	}
	g.net.AfterRound = g.applyCommittedLocked
	for i := range g.reps {
		g.reps[i] = g.newReplica()
	}
	if reg := cfg.Metrics; reg != nil {
		g.m = groupMetrics{
			proposals:     reg.Counter("ha_proposals"),
			queries:       reg.Counter("ha_queries"),
			redirects:     reg.Counter("ha_redirects"),
			failovers:     reg.Counter("ha_failovers"),
			failoverTicks: reg.Histogram("ha_failover_ticks"),
			stepdowns:     reg.Counter("ha_leader_stepdowns"),
			crashes:       reg.Counter("ha_member_crashes"),
			restarts:      reg.Counter("ha_member_restarts"),
			snapRestores:  reg.Counter("ha_snapshot_restores"),
			compactions:   reg.Counter("ha_compactions"),
			snapsBuilt:    reg.Counter("ha_snapshots_built"),
			snapBytes:     reg.Counter("ha_snapshot_bytes"),
		}
	}
	for t := 0; t < cfg.MaxOpTicks && g.net.Leader() < 0; t++ {
		g.tickLocked()
	}
	return g
}

func (g *Group) newReplica() *replica {
	r := &replica{
		machines: make(map[string]StateMachine, len(g.cfg.Machines)),
		dynamic:  g.cfg.Dynamic,
	}
	for name, factory := range g.cfg.Machines {
		r.machines[name] = factory()
		r.names = append(r.names, name)
	}
	slices.Sort(r.names)
	return r
}

// SetTracer attaches a span recorder: each failover records one span on
// the "ha" track from leader loss to the next election. Pass nil to
// disable.
func (g *Group) SetTracer(r *trace.Recorder) {
	g.mu.Lock()
	g.tracer = r
	g.mu.Unlock()
}

// Members returns the group size.
func (g *Group) Members() int { return len(g.reps) }

// Leader returns the current leader's member id, or -1.
func (g *Group) Leader() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.net.Leader()
}

// Ticks returns the virtual time the group has consumed.
func (g *Group) Ticks() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ticks
}

// tickLocked advances virtual time one unit on every live member, lets
// the network drain, and updates failover accounting.
func (g *Group) tickLocked() {
	g.ticks++
	g.net.Tick()
	g.trackFailoverLocked()
}

// applyCommittedLocked is the network's AfterRound: it feeds live member
// id's newly committed entries (or an installed snapshot) into its
// replica, then compacts a long log. A member compacts once it has
// applied as many entry bytes as its stored snapshot holds (the Raft
// dissertation's §5.1.3 rule), so building snapshots costs about one
// byte per log byte however large the state is; CompactEvery is the
// entry floor, and a member that applied nothing new keeps its snapshot.
func (g *Group) applyCommittedLocked(id int) {
	n, rep := g.net.Node(id), g.reps[id]
	if off, snap := n.Snapshot(); off > rep.applied {
		// The log below off was compacted away and a snapshot installed:
		// replace the replica state wholesale.
		rep.restore(snap)
		rep.applied, rep.logBytes = off, 0
		g.m.snapRestores.Inc()
	}
	for _, e := range n.CommittedEntries() {
		if e.Index <= rep.applied {
			continue
		}
		rep.apply(e.Data)
		rep.applied = e.Index
		rep.logBytes += len(e.Data)
	}
	off, snap := n.Snapshot()
	if n.LogLen() > g.cfg.CompactEvery && rep.applied > off && rep.logBytes >= len(snap) &&
		n.Compact(rep.applied, g.snapshotLocked(rep)) == nil {
		rep.logBytes = 0
		g.m.compactions.Inc()
	}
}

// snapshotLocked returns rep's serialized state, building it only if the
// last one built was of another applied index: replicas that applied the
// same log prefix hold the same state, so members compacting at one index
// share one never-written buffer. A lagging, partitioned or revived
// member just misses and builds its own.
func (g *Group) snapshotLocked(rep *replica) []byte {
	if g.snap == nil || g.snapAt != rep.applied {
		hint := len(g.snap) + len(g.snap)/16 + 64
		g.snapAt, g.snap = rep.applied, slices.Clip(rep.snapshot(make([]byte, 0, hint)))
		g.m.snapsBuilt.Inc()
		g.m.snapBytes.Add(int64(len(g.snap)))
	}
	return g.snap
}

// trackFailoverLocked records leader-loss -> next-leader intervals and
// rolls member CheckQuorum abdications into the ha_leader_stepdowns
// counter.
func (g *Group) trackFailoverLocked() {
	total := g.net.StepDowns()
	if d := total - g.seenStepDowns; d > 0 {
		g.m.stepdowns.Add(int64(d))
		g.seenStepDowns = total
	}
	l := g.net.Leader()
	if l >= 0 {
		if g.failingSince >= 0 {
			ticks := g.ticks - g.failingSince
			g.m.failovers.Inc()
			g.m.failoverTicks.Observe(ticks)
			if g.endFailSpan != nil {
				g.endFailSpan(map[string]string{
					"ticks":  strconv.FormatInt(ticks, 10),
					"leader": strconv.Itoa(l),
				})
				g.endFailSpan = nil
			}
			g.failingSince = -1
		}
		g.hadLeader = true
		return
	}
	if g.hadLeader && g.failingSince < 0 {
		g.failingSince = g.ticks
		if g.tracer != nil {
			g.endFailSpan = g.tracer.Begin("ha failover", "failover", "ha")
		}
	}
}

// responseLocked reports whether command seq has been applied by any
// live replica, returning its response. Commands are serialized under
// the group mutex, so a replica whose lastSeq matches holds the answer.
func (g *Group) responseLocked(seq uint64) ([]byte, bool) {
	for _, rep := range g.reps {
		if rep != nil && rep.lastSeq == seq {
			return rep.lastResp, true
		}
	}
	return nil, false
}

// Propose submits one command to the named machine and blocks until it
// is committed and applied, surviving leader crashes by re-proposing
// through each newly discovered leader (the sequence envelope makes the
// retries idempotent). It returns the machine's Apply response.
//
// Propose copies payload into the command's envelope before it proposes
// anything, and every replica, re-proposal and snapshot works from that
// copy: once Propose returns, the caller may reuse or overwrite payload.
//
// An error means the command did not observably commit within the tick
// budget — typically a lost quorum. The command may still commit later
// if the quorum returns; callers treat the operation's outcome as
// unknown, exactly as with a real lost client connection.
func (g *Group) Propose(machine string, payload []byte) ([]byte, error) {
	return g.ProposeCtx(machine, payload, trace.TraceContext{})
}

// ProposeCtx is Propose with causal linkage: when a tracer is attached
// and parent carries a live trace, the consensus round is recorded as a
// "propose <machine>" span on the "ha" track parented under the caller
// (e.g. the engine stage whose journal record rides this proposal), so
// control-plane commits appear in the job's cross-node timeline.
func (g *Group) ProposeCtx(machine string, payload []byte, parent trace.TraceContext) ([]byte, error) {
	g.mu.Lock()
	tr := g.tracer
	g.mu.Unlock()
	var end func(map[string]string)
	if tr != nil && parent.Valid() {
		end, _ = tr.BeginCtx("propose "+machine, "consensus", "ha", parent)
	}
	resp, err := g.propose(machine, payload)
	if end != nil {
		outcome := "committed"
		if err != nil {
			outcome = err.Error()
		}
		end(map[string]string{"outcome": outcome, "bytes": fmt.Sprintf("%d", len(payload))})
	}
	return resp, err
}

func (g *Group) propose(machine string, payload []byte) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.cfg.Machines[machine]; !ok && g.cfg.Dynamic == nil {
		return nil, fmt.Errorf("ha: unknown machine %q", machine)
	}
	g.seq++
	seq := g.seq
	cmd := encodeEnvelope(seq, machine, payload)
	proposedTo := -1
	var proposedTerm uint64
	for t := 0; t < g.cfg.MaxOpTicks; t++ {
		if resp, ok := g.responseLocked(seq); ok {
			g.m.proposals.Inc()
			return resp, nil
		}
		if l := g.net.Leader(); l >= 0 {
			if term := g.net.Node(l).Term(); (proposedTo != l || proposedTerm != term) && g.net.Propose(cmd) {
				if proposedTo >= 0 && proposedTo != l {
					g.m.redirects.Inc()
				}
				proposedTo, proposedTerm = l, term
				g.trackFailoverLocked()
				continue
			}
		}
		g.tickLocked()
	}
	return nil, fmt.Errorf("ha: command %d for %q not committed within %d ticks (quorum lost?)",
		seq, machine, g.cfg.MaxOpTicks)
}

// Query runs fn against the current leader's replica of the named
// machine, waiting out an election first when there is no leader. fn
// must not retain the machine past the call (the group mutex is held).
func (g *Group) Query(machine string, fn func(StateMachine) error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for t := 0; t < g.cfg.MaxOpTicks; t++ {
		if l := g.net.Leader(); l >= 0 {
			sm, ok := g.reps[l].machines[machine]
			if !ok {
				if g.cfg.Dynamic == nil {
					return fmt.Errorf("ha: unknown machine %q", machine)
				}
				// A dynamic machine no command has reached yet: query a
				// fresh, unstored instance so the read sees the empty
				// state without perturbing replica snapshots.
				sm = g.cfg.Dynamic(machine)
			}
			g.m.queries.Inc()
			return fn(sm)
		}
		g.tickLocked()
	}
	return fmt.Errorf("ha: no leader for query of %q within %d ticks", machine, g.cfg.MaxOpTicks)
}

// CrashMember stops a member: it drops out of elections and replication
// and its replica's volatile state is discarded (the durable Raft log
// and compaction snapshot survive, per the consensus crash model). id <
// 0 crashes the current leader — the worst case chaos aims for — or the
// lowest live member when there is no leader.
func (g *Group) CrashMember(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 {
		if id = g.net.Leader(); id < 0 {
			id = slices.IndexFunc(g.reps, func(r *replica) bool { return r != nil })
		}
	}
	if id < 0 || id >= len(g.reps) {
		return fmt.Errorf("ha: unknown member %d", id)
	}
	if g.reps[id] == nil {
		return nil
	}
	g.net.Crash(id)
	g.lastCrashed = id
	// Volatile state dies with the process; ReviveMember rebuilds it
	// from the durable snapshot + log.
	g.reps[id] = nil
	g.m.crashes.Inc()
	g.trackFailoverLocked()
	return nil
}

// ReviveMember restarts a crashed member, rebuilding its state-machine
// replica from its durable compaction snapshot plus the committed tail
// of its log. id < 0 revives the most recently crashed member.
func (g *Group) ReviveMember(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 {
		id = g.lastCrashed
	}
	if id < 0 || id >= len(g.reps) {
		return fmt.Errorf("ha: unknown member %d", id)
	}
	if g.reps[id] != nil {
		return nil
	}
	rep := g.newReplica()
	n := g.net.Node(id)
	if off, snap := n.Snapshot(); off > 0 {
		rep.restore(snap)
		rep.applied = off
	}
	for _, e := range n.CommittedSince(rep.applied) {
		rep.apply(e.Data)
		rep.applied = e.Index
		rep.logBytes += len(e.Data)
	}
	g.reps[id] = rep
	g.net.Restart(id)
	g.m.restarts.Inc()
	return nil
}

// Partition splits the members into groups (members not listed are
// isolated). It and the hooks below forward to the network under the
// group lock, for tests, chaos and the gray-failure experiments;
// out-of-range member ids are ignored.
func (g *Group) Partition(groups ...[]int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.net.Partition(groups...)
}

// Heal removes all partitions and directed member-link cuts.
func (g *Group) Heal() { g.mu.Lock(); defer g.mu.Unlock(); g.net.Heal() }

// CutLink blocks consensus traffic in the from -> to direction only.
func (g *Group) CutLink(from, to int) { g.mu.Lock(); defer g.mu.Unlock(); g.net.CutLink(from, to) }

// HealLink removes a directed from -> to member-link cut.
func (g *Group) HealLink(from, to int) { g.mu.Lock(); defer g.mu.Unlock(); g.net.HealLink(from, to) }

// MaxTerm returns the highest consensus term across live members — the
// gray-failure livelock telltale.
func (g *Group) MaxTerm() uint64 { g.mu.Lock(); defer g.mu.Unlock(); return g.net.MaxTerm() }

// StepDowns sums CheckQuorum leader abdications across all members.
func (g *Group) StepDowns() uint64 { g.mu.Lock(); defer g.mu.Unlock(); return g.net.StepDowns() }

// apply decodes one committed envelope and applies it to the named
// machine, deduplicating by sequence number: a command re-proposed
// around a failover commits twice in the log but applies once.
func (r *replica) apply(cmd []byte) {
	seq, name, payload, err := decodeEnvelope(cmd)
	if err != nil {
		// A corrupt envelope would mean the log itself is corrupt;
		// applying nothing keeps replicas consistent (they all see the
		// same bytes).
		return
	}
	if seq <= r.lastSeq {
		return
	}
	// A lookup by the name's bytes makes no string; only a miss does.
	sm := r.machines[string(name)]
	if sm == nil {
		sm = r.machine(string(name))
	}
	var resp []byte
	if sm != nil {
		resp = sm.Apply(payload)
	}
	r.lastSeq = seq
	r.lastResp = resp
}

// machine resolves a machine name, minting it through the dynamic
// factory on first reference. Minting happens while applying a
// committed log entry (or restoring a snapshot), so every replica
// creates the same machine at the same log position.
func (r *replica) machine(name string) StateMachine {
	if sm, ok := r.machines[name]; ok {
		return sm
	}
	if r.dynamic == nil {
		return nil
	}
	sm := r.dynamic(name)
	r.machines[name] = sm
	i, _ := slices.BinarySearch(r.names, name)
	r.names = slices.Insert(r.names, i, name)
	return sm
}

// snapshot appends the replica's serialization to buf: dedup session
// state plus every machine's snapshot in sorted-name order, each machine
// appended in place behind a length prefix filled in once it is known.
func (r *replica) snapshot(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.lastSeq)
	buf = AppendBytes(buf, r.lastResp)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.names)))
	for _, name := range r.names {
		buf = append(AppendString(buf, name), 0, 0, 0, 0)
		at, sm := len(buf), r.machines[name]
		if a, ok := sm.(SnapshotAppender); ok {
			buf = a.AppendSnapshot(buf)
		} else {
			buf = append(buf, sm.Snapshot()...)
		}
		binary.BigEndian.PutUint32(buf[at-4:], uint32(len(buf)-at))
	}
	return buf
}

// restore replaces the replica's state from a snapshot.
func (r *replica) restore(snap []byte) {
	d := NewDecoder(snap)
	r.lastSeq = d.U64()
	r.lastResp = d.Bytes()
	n := d.Count(8) // a machine is at least two length prefixes
	for i := 0; i < n && d.Err() == nil; i++ {
		if name, smSnap := d.String(), d.Bytes(); d.Err() == nil {
			if sm := r.machine(name); sm != nil {
				sm.Restore(smSnap)
			}
		}
	}
}

// Command envelope: sequence number, machine name, payload.

func encodeEnvelope(seq uint64, machine string, payload []byte) []byte {
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 8+4+len(machine)+len(payload)), seq)
	return append(AppendString(buf, machine), payload...)
}

// decodeEnvelope splits an envelope into views of cmd.
func decodeEnvelope(cmd []byte) (seq uint64, machine, payload []byte, err error) {
	d := NewDecoder(cmd)
	if seq, machine = d.U64(), d.Bytes(); d.Err() != nil {
		return 0, nil, nil, d.Err()
	}
	return seq, machine, d.Rest(), nil
}

// ErrTruncated is a Decoder's one error: input shorter than it claims.
var ErrTruncated = errors.New("ha: truncated encoding")

// AppendBytes appends b behind its u32 length.
func AppendBytes(buf, b []byte) []byte {
	return append(binary.BigEndian.AppendUint32(buf, uint32(len(b))), b...)
}

// AppendString appends s behind its u32 length.
func AppendString(buf []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(buf, uint32(len(s))), s...)
}

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Decoder reads the one wire format of every snapshot and record the
// program persists (the replicated machines, stream checkpoints, the
// coordinator journal): big-endian fixed-width integers, a bool as one
// byte, byte strings behind a u32 length. Its error is sticky: after the
// first short read every accessor returns a zero value and consumes
// nothing, so callers check Err once. A copy of a Decoder reads on from
// the same place, on its own.
type Decoder struct {
	buf []byte
	err error
}

func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

func (d *Decoder) Err() error     { return d.err }
func (d *Decoder) Rest() []byte   { return d.buf } // the bytes not read yet
func (d *Decoder) Bool() bool     { return d.U8() == 1 }
func (d *Decoder) String() string { return string(d.Bytes()) }

func (d *Decoder) U8() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.err = ErrTruncated
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *Decoder) U32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *Decoder) U64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.err = ErrTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// Count reads an element count and fails (returning 0) when the bytes left
// cannot hold that many elements of size bytes: it never sizes an allocation.
func (d *Decoder) Count(size int) int {
	n := int(d.U32())
	if d.err == nil && n > len(d.buf)/size {
		d.err = ErrTruncated
		return 0
	}
	return n
}

// Bytes reads a byte string as a view, capped so appends cannot overwrite.
func (d *Decoder) Bytes() []byte {
	n := int(d.U32())
	if d.err != nil || len(d.buf) < n {
		d.err = ErrTruncated
		return nil
	}
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v
}
