// Package cluster is the compute substrate the engines run on: a set of
// simulated machines, each backed by a real goroutine executor pool with a
// fixed slot count. Tasks are real Go closures operating on real data; the
// cluster contributes placement (which node a task runs on), capacity
// (slots), and failures (a killed node loses its in-flight and future
// tasks until revived). Network cost between nodes is the fabric's
// business; see internal/netsim.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Errors surfaced through task futures.
var (
	ErrNodeDead    = errors.New("cluster: node is dead")
	ErrNodeUnknown = errors.New("cluster: unknown node")
)

// Config configures a Cluster.
type Config struct {
	// Fabric supplies the topology and transfer cost model; required.
	Fabric *netsim.Fabric
	// SlotsPerNode is each node's concurrent task capacity. Default 2.
	SlotsPerNode int
}

// Cluster owns all nodes. Safe for concurrent use.
type Cluster struct {
	fabric *netsim.Fabric
	nodes  []*Node
	// Reg collects per-cluster execution metrics.
	Reg *metrics.Registry
}

// Node is one machine: a slot-limited executor with an epoch that advances
// when the node is killed, invalidating in-flight work, and an optional
// straggler slowdown every task on the node pays.
type Node struct {
	id    topology.NodeID
	slots chan struct{}

	mu    sync.Mutex
	alive bool
	epoch uint64

	tasksRun atomic.Int64
	slowNs   atomic.Int64
}

// New builds a cluster with one node per topology member.
func New(cfg Config) *Cluster {
	if cfg.Fabric == nil {
		panic("cluster: Config.Fabric is required")
	}
	if cfg.SlotsPerNode <= 0 {
		cfg.SlotsPerNode = 2
	}
	c := &Cluster{
		fabric: cfg.Fabric,
		nodes:  make([]*Node, cfg.Fabric.Topology().Size()),
		Reg:    metrics.NewRegistry(),
	}
	for i := range c.nodes {
		c.nodes[i] = &Node{
			id:    topology.NodeID(i),
			slots: make(chan struct{}, cfg.SlotsPerNode),
			alive: true,
		}
	}
	return c
}

// Fabric returns the cluster's network fabric.
func (c *Cluster) Fabric() *netsim.Fabric { return c.fabric }

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// SlotsPerNode returns the per-node concurrency.
func (c *Cluster) SlotsPerNode() int { return cap(c.nodes[0].slots) }

// TotalSlots returns cluster-wide task capacity.
func (c *Cluster) TotalSlots() int { return c.Size() * c.SlotsPerNode() }

// Node returns the node with the given ID, or an error.
func (c *Cluster) Node(id topology.NodeID) (*Node, error) {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return nil, fmt.Errorf("%w: %d", ErrNodeUnknown, id)
	}
	return c.nodes[id], nil
}

// Alive reports whether the node is up.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// TasksRun returns how many tasks completed successfully on this node.
func (n *Node) TasksRun() int64 { return n.tasksRun.Load() }

// Kill marks the node dead and advances its epoch: tasks currently running
// there complete their computation but their results are discarded (the
// future reports ErrNodeDead), exactly as a real executor loss would lose
// task output. Killing a dead node changes nothing; only an unknown node
// is an error.
func (c *Cluster) Kill(id topology.NodeID) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return nil
	}
	n.alive = false
	n.epoch++
	c.Reg.Counter("nodes_killed").Inc()
	return nil
}

// Revive brings a dead node back (fresh epoch, empty slots). Reviving a
// live node changes nothing; only an unknown node is an error.
func (c *Cluster) Revive(id topology.NodeID) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = true
	return nil
}

// SetSlowdown makes every task on the node take at least d longer — the
// straggler injection the chaos engine and speculative-execution tests
// use. Pass 0 to restore full speed.
func (c *Cluster) SetSlowdown(id topology.NodeID, d time.Duration) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	if d < 0 {
		d = 0
	}
	n.slowNs.Store(int64(d))
	return nil
}

// LiveNodes returns the IDs of nodes currently up.
func (c *Cluster) LiveNodes() []topology.NodeID {
	var out []topology.NodeID
	for _, n := range c.nodes {
		if n.Alive() {
			out = append(out, n.id)
		}
	}
	return out
}

// Future is a handle on a submitted task.
type Future struct {
	done chan struct{}
	err  error
}

// Wait blocks until the task finishes and returns its error.
func (f *Future) Wait() error {
	<-f.done
	return f.err
}

// Submit schedules f on the given node. The returned future yields f's
// error, ErrNodeDead if the node was dead at submission or died while the
// task ran, or ErrNodeUnknown. f runs on its own goroutine once a slot
// frees up.
func (c *Cluster) Submit(id topology.NodeID, f func() error) *Future {
	fut := &Future{done: make(chan struct{})}
	n, err := c.Node(id)
	if err != nil {
		fut.err = err
		close(fut.done)
		return fut
	}
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		fut.err = fmt.Errorf("%w: node %d", ErrNodeDead, id)
		close(fut.done)
		return fut
	}
	startEpoch := n.epoch
	n.mu.Unlock()

	go func() {
		defer close(fut.done)
		n.slots <- struct{}{} // acquire a slot
		defer func() { <-n.slots }()

		// Re-check: the node may have died while the task queued.
		n.mu.Lock()
		deadBeforeStart := !n.alive || n.epoch != startEpoch
		n.mu.Unlock()
		if deadBeforeStart {
			fut.err = fmt.Errorf("%w: node %d", ErrNodeDead, id)
			return
		}

		err := f()

		// A straggler node drags out every task; the sleep sits before the
		// epoch re-check so a kill during the stall loses the output, just
		// like a kill during the computation.
		if slow := n.slowNs.Load(); slow > 0 {
			c.Reg.Counter("tasks_slowed").Inc()
			time.Sleep(time.Duration(slow))
		}

		n.mu.Lock()
		lostOutput := !n.alive || n.epoch != startEpoch
		n.mu.Unlock()
		switch {
		case lostOutput:
			fut.err = fmt.Errorf("%w: node %d died mid-task", ErrNodeDead, id)
		case err != nil:
			fut.err = err
		default:
			n.tasksRun.Add(1)
			c.Reg.Counter("tasks_completed").Inc()
		}
	}()
	return fut
}
