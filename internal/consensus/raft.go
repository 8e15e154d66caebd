// Package consensus implements Raft — leader election, log replication,
// commitment and snapshot-based log compaction — as a deterministic,
// tick-driven state machine. Nodes exchange messages through a harness (see
// cluster.go) that can delay, drop and partition traffic, so every safety
// and liveness test is reproducible. The framework uses Raft for cloud
// control-plane metadata, and experiment E12 measures commit latency versus
// cluster size and transport model.
package consensus

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/rng"
)

// StateType is a node's role.
type StateType int

// Raft roles.
const (
	Follower StateType = iota
	Candidate
	Leader
)

func (s StateType) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	default:
		return "leader"
	}
}

// Entry is one log slot.
type Entry struct {
	Term  uint64
	Index uint64
	Data  []byte
}

// MsgType discriminates protocol messages.
type MsgType int

// Protocol message kinds.
const (
	MsgVoteReq MsgType = iota
	MsgVoteResp
	MsgApp // AppendEntries (also heartbeat when Entries is empty)
	MsgAppResp
	MsgSnap       // InstallSnapshot
	MsgTimeoutNow // leadership transfer: recipient campaigns immediately
	// PreVote (§9.6): a would-be candidate probes for term+1 support
	// without incrementing any term, so a node cut off from the cluster
	// (one-way link, minority side of a partial partition) cannot inflate
	// terms and depose a healthy leader when its messages get through.
	MsgPreVote
	MsgPreVoteResp
)

// Message is a Raft RPC. One struct covers all kinds; unused fields are
// zero.
type Message struct {
	Type     MsgType
	From, To int
	Term     uint64

	// Vote fields.
	LastLogIndex, LastLogTerm uint64
	Granted                   bool
	// Force marks a vote request from a deliberate leadership transfer
	// (TimeoutNow): receivers skip PreVote/CheckQuorum lease checks that
	// would otherwise protect the current leader.
	Force bool

	// Append fields.
	PrevIndex, PrevTerm uint64
	Entries             []Entry
	Commit              uint64
	Index               uint64 // resp: match index on success, retry hint on reject
	Success             bool

	// Snapshot fields.
	SnapIndex, SnapTerm uint64
	SnapData            []byte
}

// Protocol timing, in ticks, and the replication batch size.
const (
	// electionTicks is the base election timeout E. A node times out
	// after E plus a random draw below E·(1+b), where b counts its
	// consecutive failed campaigns (at most 5, and always 0 unless
	// hardened): timeouts fall in [E, 2E) for vanilla Raft and in
	// [E, 7E) with backoff.
	electionTicks = 10
	// heartbeatTicks is the leader heartbeat interval.
	heartbeatTicks = 1
	// maxEntriesPerApp bounds the entries one AppendEntries carries.
	maxEntriesPerApp = 64
)

// Config configures a node.
type Config struct {
	// ID is this node's identity; Peers lists every member including self.
	ID    int
	Peers []int
	// Seed drives election timeout randomization.
	Seed uint64
	// Hardened enables the liveness hardening (§9.6). PreVote: campaign
	// for real only after a quorum signals it would grant the vote, which
	// stops partially-isolated nodes from inflating terms. CheckQuorum: a
	// leader steps down after a full election timeout without contact
	// from a quorum (it may be serving stale reads on the minority side of
	// a partial partition), and followers ignore vote requests while they
	// have a live leader (the lease), so a rejoining node cannot depose a
	// healthy leader. Failed campaigns also widen the election timeout.
	// Default off to keep vanilla Raft available as the experimental
	// control.
	Hardened bool
	// Metrics, when non-nil, receives protocol counters (elections,
	// leaderships won, entries committed, snapshots, compactions) and a
	// raft_term gauge. Counters are per-node; give each node its own
	// registry or accept cluster-wide aggregation. Optional.
	Metrics *metrics.Registry
}

// nodeMetrics holds the optional counters; nil fields are no-ops.
type nodeMetrics struct {
	elections          *metrics.Counter
	leaderships        *metrics.Counter
	stepdowns          *metrics.Counter
	entriesCommitted   *metrics.Counter
	snapshotsInstalled *metrics.Counter
	compactions        *metrics.Counter
	term               *metrics.Gauge
}

// Node is a single Raft participant. Not safe for concurrent use: drive it
// from one goroutine (the cluster harness does).
type Node struct {
	cfg   Config
	state StateType

	term     uint64
	votedFor int // -1 = none
	leader   int // -1 = unknown

	// Log with snapshot-based compaction: entries[0] has index offset+1.
	// A slot, once written, is never rewritten: appends fill fresh slots,
	// Compact and snapshot install start a new array, and the one place
	// that replaces entries (conflict truncation in handleApp) reallocates
	// first. So entriesFrom hands out views of the log, not copies.
	entries  []Entry
	offset   uint64 // index of the last compacted entry (0 = nothing compacted)
	snapTerm uint64
	snapData []byte
	commit   uint64
	applied  uint64

	// Leader state.
	nextIndex  map[int]uint64
	matchIndex map[int]uint64

	// Candidate state.
	votes map[int]bool

	// Liveness-hardening state.
	preVotes      map[int]bool // outstanding PreVote grants (nil = no probe)
	recentActive  map[int]bool // peers heard from in the current CheckQuorum window
	leaderElapsed int          // ticks of leadership since the last quorum check
	backoff       int          // consecutive failed campaigns (widens election timeout)
	stepDowns     uint64       // CheckQuorum abdications

	elapsed         int
	electionTimeout int
	rand            *rng.RNG
	m               nodeMetrics
}

// NewNode builds a follower with an empty log.
func NewNode(cfg Config) *Node {
	n := &Node{
		cfg:      cfg,
		votedFor: -1,
		leader:   -1,
		rand:     rng.New(cfg.Seed + uint64(cfg.ID)*0x9e37),
	}
	if reg := cfg.Metrics; reg != nil {
		n.m = nodeMetrics{
			elections:          reg.Counter("raft_elections_started"),
			leaderships:        reg.Counter("raft_leaderships_won"),
			stepdowns:          reg.Counter("raft_stepdowns"),
			entriesCommitted:   reg.Counter("raft_entries_committed"),
			snapshotsInstalled: reg.Counter("raft_snapshots_installed"),
			compactions:        reg.Counter("raft_compactions"),
			term:               reg.Gauge("raft_term"),
		}
	}
	n.resetElectionTimeout()
	return n
}

// State returns the node's role.
func (n *Node) State() StateType { return n.state }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.term }

// Leader returns the known leader's ID, or -1.
func (n *Node) Leader() int { return n.leader }

// StepDowns returns how many times this node abdicated leadership after a
// CheckQuorum window passed without contact from a quorum.
func (n *Node) StepDowns() uint64 { return n.stepDowns }

// lastIndex returns the index of the final log entry (compacted or live).
func (n *Node) lastIndex() uint64 {
	if len(n.entries) == 0 {
		return n.offset
	}
	return n.entries[len(n.entries)-1].Index
}

func (n *Node) termAt(index uint64) (uint64, bool) {
	if index == 0 {
		return 0, true
	}
	if index == n.offset {
		return n.snapTerm, true
	}
	if index < n.offset || index > n.lastIndex() {
		return 0, false
	}
	return n.entries[index-n.offset-1].Term, true
}

// entriesFrom returns up to max entries starting at index as a view of
// the log, capacity cut to length so an append by the holder reallocates.
// Slots are write-once (see Node.entries): the view never changes.
func (n *Node) entriesFrom(index uint64, max int) []Entry {
	if index <= n.offset || index > n.lastIndex() {
		return nil
	}
	out := n.entries[index-n.offset-1:]
	k := min(len(out), max)
	return out[:k:k]
}

// dropNoops returns raw without leader-change no-ops: raw itself when it
// holds none, else a filtered copy (raw may be a view of the log).
func dropNoops(raw []Entry) []Entry {
	noop := func(e Entry) bool { return e.Data == nil }
	if !slices.ContainsFunc(raw, noop) {
		return raw
	}
	return slices.Clip(slices.DeleteFunc(slices.Clone(raw), noop))
}

func (n *Node) resetElectionTimeout() {
	n.elapsed = 0
	// Randomized exponential backoff: each consecutive failed campaign
	// widens the timeout spread, de-synchronizing dueling candidates under
	// flapping links. backoff stays 0 unless hardening is enabled, so the
	// vanilla control keeps the classic [E, 2E) window.
	spread := electionTicks * (1 + n.backoff)
	if max := 6 * electionTicks; spread > max {
		spread = max
	}
	n.electionTimeout = electionTicks + n.rand.Intn(spread)
}

// Tick advances logical time by one unit and appends the messages to send
// to out: election timeouts fire for followers/candidates; heartbeats for
// leaders. Like Step, Propose and TransferLeadership it returns the
// extended slice; the caller owns the buffer, the node keeps no reference.
func (n *Node) Tick(out []Message) []Message {
	n.elapsed++
	switch n.state {
	case Leader:
		n.leaderElapsed++
		if n.cfg.Hardened && n.leaderElapsed >= electionTicks {
			n.leaderElapsed = 0
			if !n.quorumActive() {
				// Cut off from the majority: stop serving (possibly stale)
				// leader reads and let the connected side elect freely.
				n.stepDowns++
				n.m.stepdowns.Inc()
				n.becomeFollower(n.term, -1)
				return out
			}
		}
		if n.elapsed >= heartbeatTicks {
			n.elapsed = 0
			return n.broadcastAppend(out)
		}
	default:
		if n.elapsed >= n.electionTimeout {
			return n.campaign(out)
		}
	}
	return out
}

// quorumActive reports whether a quorum (counting self) sent us anything
// during the closing CheckQuorum window, and opens the next window.
func (n *Node) quorumActive() bool {
	active := 1
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID && n.recentActive[p] {
			active++
		}
	}
	n.recentActive = map[int]bool{}
	return n.quorum(active)
}

// campaign is the election-timeout path: grow the backoff window, then
// either probe via PreVote or (vanilla) campaign for real immediately.
func (n *Node) campaign(out []Message) []Message {
	if n.cfg.Hardened {
		if n.backoff < 5 {
			n.backoff++
		}
		return n.startPreVote(out)
	}
	return n.startElection(false, out)
}

// startPreVote asks every peer whether a campaign at term+1 would win,
// without touching term, votedFor, or role.
func (n *Node) startPreVote(out []Message) []Message {
	n.preVotes = map[int]bool{n.cfg.ID: true}
	n.resetElectionTimeout()
	if n.quorum(len(n.preVotes)) {
		// Single-node cluster: no probe needed.
		n.preVotes = nil
		return n.startElection(false, out)
	}
	lastTerm, _ := n.termAt(n.lastIndex())
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		out = append(out, Message{
			Type: MsgPreVote, From: n.cfg.ID, To: p, Term: n.term + 1,
			LastLogIndex: n.lastIndex(), LastLogTerm: lastTerm,
		})
	}
	return out
}

func (n *Node) startElection(force bool, out []Message) []Message {
	n.state = Candidate
	n.term++
	n.m.elections.Inc()
	n.m.term.Set(int64(n.term))
	n.votedFor = n.cfg.ID
	n.leader = -1
	n.votes = map[int]bool{n.cfg.ID: true}
	n.preVotes = nil
	n.resetElectionTimeout()
	lastTerm, _ := n.termAt(n.lastIndex())
	for _, p := range n.cfg.Peers {
		if p == n.cfg.ID {
			continue
		}
		out = append(out, Message{
			Type: MsgVoteReq, From: n.cfg.ID, To: p, Term: n.term,
			LastLogIndex: n.lastIndex(), LastLogTerm: lastTerm, Force: force,
		})
	}
	if n.quorum(len(n.votes)) {
		// Single-node cluster: win immediately.
		return n.becomeLeader(out)
	}
	return out
}

func (n *Node) quorum(count int) bool { return count*2 > len(n.cfg.Peers) }

func (n *Node) becomeLeader(out []Message) []Message {
	n.state = Leader
	n.leader = n.cfg.ID
	n.m.leaderships.Inc()
	n.elapsed = 0
	n.leaderElapsed = 0
	n.recentActive = map[int]bool{}
	n.backoff = 0
	n.nextIndex = map[int]uint64{}
	n.matchIndex = map[int]uint64{}
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = n.lastIndex() + 1
		n.matchIndex[p] = 0
	}
	// Append a no-op entry so prior-term entries (and the commit index)
	// become committable in the new term immediately (§5.4.2 / the
	// dissertation's leadership-change liveness fix). CommittedEntries
	// filters no-ops out of what the state machine sees.
	noop := Entry{Term: n.term, Index: n.lastIndex() + 1}
	n.entries = append(n.entries, noop)
	n.matchIndex[n.cfg.ID] = n.lastIndex()
	n.maybeCommit()
	return n.broadcastAppend(out)
}

func (n *Node) becomeFollower(term uint64, leader int) {
	n.state = Follower
	n.term = term
	n.m.term.Set(int64(n.term))
	n.leader = leader
	n.votedFor = -1
	n.votes = nil
	n.preVotes = nil
	n.resetElectionTimeout()
}

// Propose appends data to the leader's log, returning its index and out
// extended by the appends to send. ok is false when this node is not the
// leader. The log keeps data itself, not a copy, and every replica's
// state machine is handed that same slice: nobody may write it again.
func (n *Node) Propose(data []byte, out []Message) (index uint64, msgs []Message, ok bool) {
	if n.state != Leader {
		return 0, out, false
	}
	e := Entry{Term: n.term, Index: n.lastIndex() + 1, Data: data}
	n.entries = append(n.entries, e)
	n.matchIndex[n.cfg.ID] = e.Index
	n.maybeCommit()
	return e.Index, n.broadcastAppend(out), true
}

func (n *Node) broadcastAppend(out []Message) []Message {
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			out = append(out, n.appendTo(p))
		}
	}
	return out
}

// appendTo builds the AppendEntries (or InstallSnapshot) for one follower.
func (n *Node) appendTo(p int) Message {
	next := n.nextIndex[p]
	if next <= n.offset {
		// Follower needs entries we compacted away: ship the snapshot.
		return Message{
			Type: MsgSnap, From: n.cfg.ID, To: p, Term: n.term,
			SnapIndex: n.offset, SnapTerm: n.snapTerm, SnapData: n.snapData,
		}
	}
	prev := next - 1
	prevTerm, _ := n.termAt(prev)
	return Message{
		Type: MsgApp, From: n.cfg.ID, To: p, Term: n.term,
		PrevIndex: prev, PrevTerm: prevTerm,
		Entries: n.entriesFrom(next, maxEntriesPerApp),
		Commit:  n.commit,
	}
}

// leaseActive reports whether this node should ignore campaigns because it
// has a live leader: it IS the leader (CheckQuorum guarantees it abdicates
// when cut off), or it heard from one within the last election timeout.
// Force (deliberate leadership transfer) always pierces the lease.
func (n *Node) leaseActive(force bool) bool {
	if force || !n.cfg.Hardened {
		return false
	}
	if n.state == Leader {
		return true
	}
	return n.state == Follower && n.leader >= 0 && n.elapsed < electionTicks
}

// Step processes one inbound message and appends the messages to send to
// out, which must not be the buffer m lives in. It reads m only during the
// call; what it keeps of it (entries, snapshot data) is immutable by the
// rules on Node.entries and Propose.
func (n *Node) Step(m *Message, out []Message) []Message {
	// Any inbound traffic proves the peer->us link for CheckQuorum.
	if n.state == Leader && m.From != n.cfg.ID {
		if n.recentActive == nil {
			n.recentActive = map[int]bool{}
		}
		n.recentActive[m.From] = true
	}
	// Lease check (§9.6) BEFORE term handling: a higher-term vote request
	// must not depose anything while we have a live leader, so drop it
	// before the newer-term conversion below can touch our state.
	if m.Type == MsgVoteReq && n.leaseActive(m.Force) {
		return out
	}
	// Term handling: newer term always converts us to follower first.
	// PreVote traffic is exempt by design — probes carry term+1 without
	// anyone having incremented a real term.
	if m.Term > n.term && m.Type != MsgPreVote && m.Type != MsgPreVoteResp {
		leader := -1
		if m.Type == MsgApp || m.Type == MsgSnap {
			leader = m.From
		}
		n.becomeFollower(m.Term, leader)
	}
	switch m.Type {
	case MsgVoteReq:
		return n.handleVoteReq(m, out)
	case MsgVoteResp:
		return n.handleVoteResp(m, out)
	case MsgApp:
		return n.handleApp(m, out)
	case MsgAppResp:
		return n.handleAppResp(m, out)
	case MsgSnap:
		return n.handleSnap(m, out)
	case MsgPreVote:
		return n.handlePreVote(m, out)
	case MsgPreVoteResp:
		return n.handlePreVoteResp(m, out)
	case MsgTimeoutNow:
		// Leadership transfer: campaign immediately, skipping the election
		// timeout (and, via Force, the peers' leases), provided the request
		// is current.
		if m.Term >= n.term && n.state != Leader {
			return n.startElection(true, out)
		}
		return out
	default:
		panic(fmt.Sprintf("consensus: unknown message type %d", m.Type))
	}
}

// handlePreVote answers a PreVote probe without mutating any local state:
// grant only if the probed term beats ours, the candidate's log is
// up-to-date, and we are not under a leader lease.
func (n *Node) handlePreVote(m *Message, out []Message) []Message {
	resp := Message{Type: MsgPreVoteResp, From: n.cfg.ID, To: m.From, Term: n.term}
	lastTerm, _ := n.termAt(n.lastIndex())
	upToDate := m.LastLogTerm > lastTerm ||
		(m.LastLogTerm == lastTerm && m.LastLogIndex >= n.lastIndex())
	if m.Term > n.term && upToDate && !n.leaseActive(m.Force) {
		resp.Granted = true
		resp.Term = m.Term
	}
	return append(out, resp)
}

func (n *Node) handlePreVoteResp(m *Message, out []Message) []Message {
	if !m.Granted {
		// A rejection carrying a newer term means we are behind: catch up
		// now (we provably have connectivity to the rejecting peer).
		if m.Term > n.term {
			n.becomeFollower(m.Term, -1)
		}
		return out
	}
	if n.state == Leader || n.preVotes == nil || m.Term != n.term+1 {
		return out
	}
	n.preVotes[m.From] = true
	if n.quorum(len(n.preVotes)) {
		n.preVotes = nil
		return n.startElection(false, out)
	}
	return out
}

// TransferLeadership begins moving leadership to peer `to`. Per the Raft
// dissertation (§3.10): bring the target's log up to date, then tell it to
// time out immediately so it wins the next election. It returns out
// extended by the message to send (unchanged for an invalid target) and
// whether the TimeoutNow was issued (false means the target still needs
// log entries — the caller delivers that append and calls again).
func (n *Node) TransferLeadership(to int, out []Message) (msgs []Message, issued bool) {
	if n.state != Leader || to == n.cfg.ID || !slices.Contains(n.cfg.Peers, to) {
		return out, false
	}
	if n.matchIndex[to] < n.lastIndex() {
		return append(out, n.appendTo(to)), false
	}
	return append(out, Message{Type: MsgTimeoutNow, From: n.cfg.ID, To: to, Term: n.term}), true
}

func (n *Node) handleVoteReq(m *Message, out []Message) []Message {
	granted := false
	if m.Term >= n.term && (n.votedFor == -1 || n.votedFor == m.From) {
		// Up-to-date check (§5.4.1): candidate's log must not be behind.
		lastTerm, _ := n.termAt(n.lastIndex())
		upToDate := m.LastLogTerm > lastTerm ||
			(m.LastLogTerm == lastTerm && m.LastLogIndex >= n.lastIndex())
		if upToDate {
			granted = true
			n.votedFor = m.From
			n.resetElectionTimeout()
		}
	}
	return append(out, Message{
		Type: MsgVoteResp, From: n.cfg.ID, To: m.From, Term: n.term, Granted: granted,
	})
}

func (n *Node) handleVoteResp(m *Message, out []Message) []Message {
	if n.state != Candidate || m.Term != n.term || !m.Granted {
		return out
	}
	n.votes[m.From] = true
	if n.quorum(len(n.votes)) {
		return n.becomeLeader(out)
	}
	return out
}

func (n *Node) handleApp(m *Message, out []Message) []Message {
	reject := Message{Type: MsgAppResp, From: n.cfg.ID, To: m.From, Term: n.term, Success: false}
	if m.Term < n.term {
		return append(out, reject)
	}
	// Valid leader for our term.
	n.state = Follower
	n.leader = m.From
	n.backoff = 0
	n.resetElectionTimeout()

	prevTerm, ok := n.termAt(m.PrevIndex)
	if !ok || prevTerm != m.PrevTerm {
		// Log mismatch: hint the leader to back off to our log end (the
		// "fast backoff" optimization).
		hint := n.lastIndex()
		if m.PrevIndex < hint {
			hint = m.PrevIndex
		}
		if hint > 0 {
			hint--
		}
		reject.Index = hint
		return append(out, reject)
	}
	// Append, truncating conflicts.
	for _, e := range m.Entries {
		if t, ok := n.termAt(e.Index); ok && t == e.Term {
			continue // already have it
		}
		if e.Index <= n.offset {
			continue // covered by snapshot
		}
		if k := e.Index - n.offset - 1; k < uint64(len(n.entries)) {
			// Conflict: drop our entries from e.Index on. The capped
			// capacity makes the append below move the log to a new array,
			// so the dropped slots stay as they are for holders of views.
			n.entries = n.entries[:k:k]
		}
		n.entries = append(n.entries, e)
	}
	if m.Commit > n.commit {
		last := n.lastIndex()
		if m.Commit < last {
			n.commit = m.Commit
		} else {
			n.commit = last
		}
	}
	match := m.PrevIndex + uint64(len(m.Entries))
	return append(out, Message{
		Type: MsgAppResp, From: n.cfg.ID, To: m.From, Term: n.term,
		Success: true, Index: match,
	})
}

func (n *Node) handleAppResp(m *Message, out []Message) []Message {
	if n.state != Leader || m.Term != n.term {
		return out
	}
	if m.Success {
		if m.Index > n.matchIndex[m.From] {
			n.matchIndex[m.From] = m.Index
		}
		if m.Index+1 > n.nextIndex[m.From] {
			n.nextIndex[m.From] = m.Index + 1
		}
		n.maybeCommit()
		// Keep streaming if the follower is still behind.
		if n.nextIndex[m.From] <= n.lastIndex() {
			return append(out, n.appendTo(m.From))
		}
		return out
	}
	// Rejected: back off using the follower's hint and retry.
	next := m.Index + 1
	if next < 1 {
		next = 1
	}
	if next < n.nextIndex[m.From] {
		n.nextIndex[m.From] = next
	} else if n.nextIndex[m.From] > 1 {
		n.nextIndex[m.From]--
	}
	return append(out, n.appendTo(m.From))
}

func (n *Node) handleSnap(m *Message, out []Message) []Message {
	if m.Term < n.term {
		return append(out, Message{Type: MsgAppResp, From: n.cfg.ID, To: m.From, Term: n.term, Success: false})
	}
	n.state = Follower
	n.leader = m.From
	n.backoff = 0
	n.resetElectionTimeout()
	if m.SnapIndex > n.offset {
		// Raft §7: a log holding the snapshot's last entry keeps the suffix
		// after it, in a fresh array; any other log is replaced whole.
		if t, ok := n.termAt(m.SnapIndex); ok && t == m.SnapTerm {
			n.entries = slices.Clone(n.entries[m.SnapIndex-n.offset:])
		} else {
			n.entries = nil
		}
		n.m.snapshotsInstalled.Inc()
		n.offset, n.snapTerm, n.snapData = m.SnapIndex, m.SnapTerm, m.SnapData
		n.commit = max(n.commit, m.SnapIndex)
		n.applied = max(n.applied, m.SnapIndex)
	}
	// Ack the snapshot or our own, committed offset, never a possibly
	// conflicting tail that the leader would count toward a quorum.
	return append(out, Message{
		Type: MsgAppResp, From: n.cfg.ID, To: m.From, Term: n.term,
		Success: true, Index: n.offset,
	})
}

// maybeCommit advances commitIndex to the highest index replicated on a
// quorum whose entry is from the current term (§5.4.2).
func (n *Node) maybeCommit() {
	for idx := n.lastIndex(); idx > n.commit; idx-- {
		t, ok := n.termAt(idx)
		if !ok || t != n.term {
			continue
		}
		count := 0
		for _, p := range n.cfg.Peers {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if n.quorum(count) {
			n.commit = idx
			return
		}
	}
}

// CommittedEntries returns entries newly committed since the last call, in
// order, excluding leader-change no-ops. The state machine applies them.
// The result is read-only and may be a view of the log (see entriesFrom).
func (n *Node) CommittedEntries() []Entry {
	if n.applied >= n.commit {
		return nil
	}
	out := dropNoops(n.entriesFrom(n.applied+1, int(n.commit-n.applied)))
	n.applied = n.commit
	n.m.entriesCommitted.Add(int64(len(out)))
	return out
}

// CommittedSince returns the committed entries with index > from (capped
// at the compaction offset — entries compacted away are only available
// through Snapshot), excluding leader-change no-ops. Unlike
// CommittedEntries it does not advance the applied cursor: hosts use it to
// rebuild a state-machine replica from the durable log after a restart.
func (n *Node) CommittedSince(from uint64) []Entry {
	if from < n.offset {
		from = n.offset
	}
	if n.commit <= from {
		return nil
	}
	return dropNoops(n.entriesFrom(from+1, int(n.commit-from)))
}

// Compact discards log entries up to and including index, recording the
// state machine snapshot. Index must be applied already.
func (n *Node) Compact(index uint64, snapshot []byte) error {
	if index > n.applied {
		return fmt.Errorf("consensus: cannot compact unapplied index %d (applied %d)", index, n.applied)
	}
	if index <= n.offset {
		return nil // already compacted
	}
	t, _ := n.termAt(index)
	// A fresh array, so views already handed out stay valid, sized to the
	// log before compaction: the next cycle refills it without regrowing.
	n.entries = append(make([]Entry, 0, len(n.entries)), n.entries[index-n.offset:]...)
	n.offset = index
	n.snapTerm = t
	n.snapData = snapshot
	n.m.compactions.Inc()
	return nil
}

// LogLen returns the number of live (uncompacted) log entries.
func (n *Node) LogLen() int { return len(n.entries) }

// Snapshot returns the latest compaction state: last included index and data.
func (n *Node) Snapshot() (uint64, []byte) { return n.offset, n.snapData }
