package consensus

// Cluster is a deterministic in-process Raft harness: it owns nodes 0..n-1,
// carries their messages, and can crash nodes, partition the network or
// cut single directed links. It is the only transport in the module: the
// tests and probes drive it directly and ha.Group hosts its members on it.
// Message delivery happens in "rounds": each round every in-flight message
// is handed to its destination and the responses join the next round.
// Rounds map directly onto network round trips, which is how experiment
// E12 converts protocol behaviour into commit latency under a transport
// model.
type Cluster struct {
	nodes   []*Node
	crashed []bool
	mail    Mailbox
	applied [][]Entry

	// group is the partition: nil means fully connected; otherwise the
	// group of each node, and messages cross groups only if allowed.
	group []int

	// cut holds directed {from, to} link cuts — the gray-failure layer:
	// one-way cuts and non-transitive partial partitions that the group
	// partition above cannot express.
	cut map[[2]int]bool

	// AfterRound runs after every delivery round once per live node, in id
	// order: the host's hook for consuming newly committed entries. The
	// constructors install the recorder behind Applied; ha.Group installs
	// its replicas' apply and compaction instead.
	AfterRound func(id int)

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
		nodes:   make([]*Node, n),
		crashed: make([]bool, n),
		applied: make([][]Entry, n),
	}
	for i := range c.nodes {
		c.nodes[i] = NewNode(Config{
			ID: i, Peers: peers, Seed: seed,
			PreVote: hardened, CheckQuorum: hardened,
		})
	}
	c.AfterRound = c.record
	return c
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) *Node { return c.nodes[id] }

// Applied returns the entries node id has applied, in order, while the
// default AfterRound is installed.
func (c *Cluster) Applied(id int) []Entry { return c.applied[id] }

// record is the default AfterRound.
func (c *Cluster) record(id int) {
	c.applied[id] = append(c.applied[id], c.nodes[id].CommittedEntries()...)
}

// has reports whether id names a node; fault hooks ignore ids that do not.
func (c *Cluster) has(id int) bool { return id >= 0 && id < len(c.nodes) }

// blocked reports whether a message from -> to is currently undeliverable.
// Directed cuts and group partitions compose: either layer blocks.
func (c *Cluster) blocked(from, to int) bool {
	if c.crashed[from] || c.crashed[to] {
		return true
	}
	if c.cut != nil && c.cut[[2]int{from, to}] {
		return true
	}
	return c.group != nil && c.group[from] != c.group[to]
}

// Tick advances logical time one unit on every live node, then runs
// delivery rounds until the network is quiet.
func (c *Cluster) Tick() {
	for id, n := range c.nodes {
		if !c.crashed[id] {
			c.mail.Out = n.Tick(c.mail.Out)
		}
	}
	c.drain()
}

// drain delivers message rounds until no messages remain in flight.
func (c *Cluster) drain() {
	for c.DeliverRound() {
	}
}

// DeliverRound delivers every currently in-flight message (one network
// round trip), collects the responses for the next round, runs AfterRound
// and reports whether there was anything to deliver.
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
	for id := range c.nodes {
		if !c.crashed[id] {
			c.AfterRound(id)
		}
	}
	return true
}

// Leader returns the live leader at the highest term (the highest id on a
// tie, which would be a bug that tests assert against separately), or -1.
func (c *Cluster) Leader() int {
	leader := -1
	var topTerm uint64
	for id, n := range c.nodes {
		if !c.crashed[id] && n.State() == Leader && n.Term() >= topTerm {
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
func (c *Cluster) Crash(id int) {
	if c.has(id) {
		c.crashed[id] = true
	}
}

// Restart revives a crashed node with its durable state intact.
func (c *Cluster) Restart(id int) {
	if c.has(id) {
		c.crashed[id] = false
	}
}

// Partition splits the cluster into the given groups; nodes not mentioned
// are isolated in their own group.
func (c *Cluster) Partition(groups ...[]int) {
	c.group = make([]int, len(c.nodes))
	for id := range c.group {
		c.group[id] = -1
	}
	for gi, g := range groups {
		for _, id := range g {
			if c.has(id) {
				c.group[id] = gi
			}
		}
	}
	next := len(groups)
	for id, gi := range c.group {
		if gi < 0 {
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
	if from == to || !c.has(from) || !c.has(to) {
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

// quorumLinked reports whether live node l has bidirectional links to a
// quorum of the cluster, counting itself.
func (c *Cluster) quorumLinked(l int) bool {
	count := 1
	for f := range c.nodes {
		if f != l && !c.blocked(l, f) && !c.blocked(f, l) {
			count++
		}
	}
	return count*2 > len(c.nodes)
}

// HasConnectedMajority reports whether some live node has bidirectional
// links to a quorum of the cluster (counting itself) — i.e. whether the
// current fault pattern still admits a functioning leader. Availability
// accounting uses this to separate excusable unavailability (no quorum
// exists) from liveness failures (a quorum exists but the protocol cannot
// use it).
func (c *Cluster) HasConnectedMajority() bool {
	for l := range c.nodes {
		if !c.crashed[l] && c.quorumLinked(l) {
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
	var out []int
	for l, n := range c.nodes {
		if !c.crashed[l] && n.State() == Leader && !c.quorumLinked(l) {
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
	for id, n := range c.nodes {
		if !c.crashed[id] && n.Term() > top {
			top = n.Term()
		}
	}
	return top
}

// StepDowns sums CheckQuorum abdications across all nodes.
func (c *Cluster) StepDowns() uint64 {
	var total uint64
	for _, n := range c.nodes {
		total += n.StepDowns()
	}
	return total
}
