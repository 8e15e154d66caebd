package consensus

import (
	"sort"
)

// Cluster is a deterministic in-process test/measurement harness: it owns a
// set of nodes, carries their messages, and can crash nodes or partition
// the network. Message delivery happens in "rounds": each round every
// in-flight message is handed to its destination and the responses join the
// next round. Rounds map directly onto network round trips, which is how
// experiment E12 converts protocol behaviour into commit latency under a
// transport model.
type Cluster struct {
	nodes   map[int]*Node
	crashed map[int]bool
	mail    Mailbox
	applied map[int][]Entry

	// partition: nil means fully connected; otherwise group index per node,
	// and messages cross groups only if allowed.
	group map[int]int

	// cut holds directed {from, to} link cuts — the gray-failure layer:
	// one-way cuts and non-transitive partial partitions that the group
	// partition above cannot express.
	cut map[[2]int]bool

	// Rounds counts delivery rounds executed (for latency accounting).
	Rounds int
	// MessagesDelivered counts total messages handed to nodes.
	MessagesDelivered int
}

// NewCluster builds n nodes with IDs 0..n-1 running vanilla Raft (no
// PreVote/CheckQuorum) — the experimental control for gray-failure runs.
func NewCluster(n int, seed uint64) *Cluster {
	return newCluster(n, seed, false)
}

// NewHardenedCluster builds n nodes with the liveness hardening enabled:
// PreVote, CheckQuorum leases and randomized election backoff.
func NewHardenedCluster(n int, seed uint64) *Cluster {
	return newCluster(n, seed, true)
}

func newCluster(n int, seed uint64, hardened bool) *Cluster {
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}
	c := &Cluster{
		nodes:   map[int]*Node{},
		crashed: map[int]bool{},
		applied: map[int][]Entry{},
	}
	for i := 0; i < n; i++ {
		c.nodes[i] = NewNode(Config{
			ID: i, Peers: peers, Seed: seed,
			PreVote: hardened, CheckQuorum: hardened,
		})
	}
	return c
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// Applied returns the entries node id has applied, in order.
func (c *Cluster) Applied(id int) []Entry { return c.applied[id] }

// ids returns node IDs in deterministic order.
func (c *Cluster) ids() []int {
	out := make([]int, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// blocked reports whether a message from -> to is currently undeliverable.
// Directed cuts and group partitions compose: either layer blocks.
func (c *Cluster) blocked(from, to int) bool {
	if c.crashed[from] || c.crashed[to] {
		return true
	}
	if c.cut != nil && c.cut[[2]int{from, to}] {
		return true
	}
	if c.group == nil {
		return false
	}
	return c.group[from] != c.group[to]
}

// Tick advances logical time one unit on every live node, then runs
// delivery rounds until the network is quiet.
func (c *Cluster) Tick() {
	for _, id := range c.ids() {
		if c.crashed[id] {
			continue
		}
		c.mail.Out = c.nodes[id].Tick(c.mail.Out)
	}
	c.drain()
}

// drain delivers message rounds until no messages remain in flight.
func (c *Cluster) drain() {
	for c.DeliverRound() {
	}
}

// DeliverRound delivers every currently in-flight message (one network
// round trip), collects the responses for the next round, and reports
// whether there was anything to deliver.
func (c *Cluster) DeliverRound() bool {
	batch := c.mail.Swap()
	if len(batch) == 0 {
		return false
	}
	c.Rounds++
	for i := range batch {
		m := &batch[i]
		if c.blocked(m.From, m.To) {
			continue
		}
		c.MessagesDelivered++
		c.mail.Out = c.nodes[m.To].Step(m, c.mail.Out)
	}
	c.collectApplied()
	return true
}

func (c *Cluster) collectApplied() {
	for _, id := range c.ids() {
		if c.crashed[id] {
			continue
		}
		if ents := c.nodes[id].CommittedEntries(); len(ents) > 0 {
			c.applied[id] = append(c.applied[id], ents...)
		}
	}
}

// Leader returns the unique live leader at the highest term, or -1 when
// there is none (or more than one at that term, which would be a bug that
// tests assert against separately).
func (c *Cluster) Leader() int {
	leader := -1
	var topTerm uint64
	for _, id := range c.ids() {
		if c.crashed[id] {
			continue
		}
		n := c.nodes[id]
		if n.State() == Leader && n.Term() >= topTerm {
			topTerm = n.Term()
			leader = id
		}
	}
	return leader
}

// RunUntilLeader ticks until a leader emerges, up to maxTicks. It returns
// the leader ID, or -1 on timeout.
func (c *Cluster) RunUntilLeader(maxTicks int) int {
	for i := 0; i < maxTicks; i++ {
		if l := c.Leader(); l >= 0 {
			return l
		}
		c.Tick()
	}
	return c.Leader()
}

// Propose submits data through the current leader. It returns false when no
// leader is available. Messages are drained, so on return the entry is
// usually committed cluster-wide (absent partitions).
func (c *Cluster) Propose(data []byte) bool {
	l := c.Leader()
	if l < 0 {
		return false
	}
	var ok bool
	if _, c.mail.Out, ok = c.nodes[l].Propose(data, c.mail.Out); !ok {
		return false
	}
	c.drain()
	return true
}

// ProposeAndCountRounds proposes through the leader and returns the number
// of delivery rounds until the leader's commit index covers the entry —
// the protocol-level commit latency in round trips. ok is false without a
// leader.
func (c *Cluster) ProposeAndCountRounds(data []byte) (rounds int, ok bool) {
	l := c.Leader()
	if l < 0 {
		return 0, false
	}
	var idx uint64
	if idx, c.mail.Out, ok = c.nodes[l].Propose(data, c.mail.Out); !ok {
		return 0, false
	}
	for rounds = 0; c.DeliverRound(); {
		rounds++
		if c.nodes[l].commit >= idx {
			c.drain()
			return rounds, true
		}
	}
	return rounds, c.nodes[l].commit >= idx
}

// TransferLeadership moves leadership from the current leader to `to`,
// catching the target up first if needed. It reports success within
// maxRounds attempts.
func (c *Cluster) TransferLeadership(to, maxRounds int) bool {
	for i := 0; i < maxRounds; i++ {
		l := c.Leader()
		if l == to {
			return true
		}
		if l < 0 {
			c.Tick()
			continue
		}
		sent := len(c.mail.Out)
		if c.mail.Out, _ = c.nodes[l].TransferLeadership(to, c.mail.Out); len(c.mail.Out) == sent {
			return false // invalid target
		}
		c.drain()
		c.Tick()
	}
	return c.Leader() == to
}

// Crash stops a node: it receives nothing and sends nothing until Restart.
// Its durable state (term, vote, log) survives, per Raft's persistence
// assumption.
func (c *Cluster) Crash(id int) { c.crashed[id] = true }

// Restart revives a crashed node with its durable state intact.
func (c *Cluster) Restart(id int) { delete(c.crashed, id) }

// Partition splits the cluster into the given groups; nodes not mentioned
// are isolated in their own group.
func (c *Cluster) Partition(groups ...[]int) {
	c.group = map[int]int{}
	next := 0
	for gi, g := range groups {
		for _, id := range g {
			c.group[id] = gi
		}
		next = gi + 1
	}
	for id := range c.nodes {
		if _, ok := c.group[id]; !ok {
			c.group[id] = next
			next++
		}
	}
}

// Heal removes all partitions and directed link cuts.
func (c *Cluster) Heal() {
	c.group = nil
	c.cut = nil
}

// CutLink blocks messages in the from -> to direction only; to -> from
// keeps flowing. Idempotent.
func (c *Cluster) CutLink(from, to int) {
	if from == to {
		return
	}
	if c.cut == nil {
		c.cut = map[[2]int]bool{}
	}
	c.cut[[2]int{from, to}] = true
}

// HealLink removes a directed from -> to cut; a no-op when not cut.
func (c *Cluster) HealLink(from, to int) {
	delete(c.cut, [2]int{from, to})
	if len(c.cut) == 0 {
		c.cut = nil
	}
}

// HasConnectedMajority reports whether some live node has bidirectional
// links to a quorum of the cluster (counting itself) — i.e. whether the
// current fault pattern still admits a functioning leader. Availability
// accounting uses this to separate excusable unavailability (no quorum
// exists) from liveness failures (a quorum exists but the protocol cannot
// use it).
func (c *Cluster) HasConnectedMajority() bool {
	n := len(c.nodes)
	for _, l := range c.ids() {
		if c.crashed[l] {
			continue
		}
		count := 1
		for _, f := range c.ids() {
			if f == l || c.crashed[f] {
				continue
			}
			if !c.blocked(l, f) && !c.blocked(f, l) {
				count++
			}
		}
		if count*2 > n {
			return true
		}
	}
	return false
}

// StaleLeaders returns the IDs of live nodes that believe they are leader
// but lack bidirectional connectivity to a quorum — leaders that would
// serve stale reads. CheckQuorum exists to drive this to zero within an
// election timeout.
func (c *Cluster) StaleLeaders() []int {
	n := len(c.nodes)
	var out []int
	for _, l := range c.ids() {
		if c.crashed[l] || c.nodes[l].State() != Leader {
			continue
		}
		count := 1
		for _, f := range c.ids() {
			if f == l || c.crashed[f] {
				continue
			}
			if !c.blocked(l, f) && !c.blocked(f, l) {
				count++
			}
		}
		if count*2 <= n {
			out = append(out, l)
		}
	}
	return out
}

// MaxTerm returns the highest term across live nodes — the livelock
// telltale: unbounded growth means dueling candidates or a partially
// isolated node inflating terms.
func (c *Cluster) MaxTerm() uint64 {
	var top uint64
	for _, id := range c.ids() {
		if c.crashed[id] {
			continue
		}
		if t := c.nodes[id].Term(); t > top {
			top = t
		}
	}
	return top
}

// StepDowns sums CheckQuorum abdications across all nodes.
func (c *Cluster) StepDowns() uint64 {
	var total uint64
	for _, id := range c.ids() {
		total += c.nodes[id].StepDowns()
	}
	return total
}
