package netsim

import (
	"fmt"
	"time"

	"repro/internal/topology"
)

// linkKey packs a directed src->dst pair into one map key.
type linkKey struct{ src, dst topology.NodeID }

// conditions is the mutable fault layer over a fabric's immutable cost
// model: a network partition (nodes in different groups cannot reach each
// other), a set of directed link cuts (src->dst blocked while dst->src may
// still flow — the gray-failure shapes: one-way cuts, non-transitive
// partial partitions, flapping links), and per-node link degradation
// factors (a factor f > 1 slows every transfer touching that node by f).
// The struct is immutable once built; Fabric swaps whole snapshots through
// an atomic pointer, so condition changes are safe against concurrent Cost
// queries without locking the query path.
type conditions struct {
	// groupOf maps node -> partition group; nil means no partition.
	groupOf []int
	// cut holds directed src->dst blocks; nil means no cuts.
	cut map[linkKey]bool
	// degrade maps node -> slowdown factor; nil or factor <= 1 means clean.
	degrade map[topology.NodeID]float64
}

func (c *conditions) clone() *conditions {
	out := &conditions{}
	if c != nil && c.groupOf != nil {
		out.groupOf = append([]int(nil), c.groupOf...)
	}
	if c != nil && len(c.cut) > 0 {
		out.cut = make(map[linkKey]bool, len(c.cut))
		for k := range c.cut {
			out.cut[k] = true
		}
	}
	if c != nil && len(c.degrade) > 0 {
		out.degrade = make(map[topology.NodeID]float64, len(c.degrade))
		for k, v := range c.degrade {
			out.degrade[k] = v
		}
	}
	return out
}

// SetPartition splits the fabric into the given groups: transfers between
// nodes in different groups are blocked (Reachable reports false) until
// Heal. Nodes not mentioned in any group are isolated in their own
// singleton group, mirroring consensus.Cluster.Partition semantics. A node
// listed in more than one group is a schedule bug — the call rejects it
// with an error and leaves the previous conditions untouched.
func (f *Fabric) SetPartition(groups ...[]topology.NodeID) error {
	size := f.top.Size()
	seen := make(map[topology.NodeID]int)
	for gi, g := range groups {
		for _, n := range g {
			if int(n) < 0 || int(n) >= size {
				continue
			}
			if prev, ok := seen[n]; ok && prev != gi {
				return fmt.Errorf("netsim: SetPartition: node %d appears in groups %d and %d (groups must be disjoint)", n, prev, gi)
			}
			seen[n] = gi
		}
	}
	c := f.cond.Load().clone()
	c.groupOf = make([]int, size)
	for i := range c.groupOf {
		c.groupOf[i] = -1
	}
	for n, gi := range seen {
		c.groupOf[n] = gi
	}
	next := len(groups)
	for i, g := range c.groupOf {
		if g < 0 {
			c.groupOf[i] = next
			next++
		}
	}
	f.cond.Store(c)
	if im := f.m.Load(); im != nil {
		im.partitionsSet.Inc()
	}
	return nil
}

// CutLink blocks transfers in the src->dst direction only; dst->src keeps
// flowing. Directed cuts compose with (and are independent of) group
// partitions: a transfer is blocked if either layer blocks it. Cutting the
// same link twice is idempotent.
func (f *Fabric) CutLink(src, dst topology.NodeID) {
	if src == dst {
		return
	}
	c := f.cond.Load().clone()
	if c.cut == nil {
		c.cut = map[linkKey]bool{}
	}
	c.cut[linkKey{src, dst}] = true
	f.cond.Store(c)
	if im := f.m.Load(); im != nil {
		im.linkCuts.Inc()
	}
}

// HealLink removes a directed src->dst cut. Healing a link that is not cut
// is a no-op.
func (f *Fabric) HealLink(src, dst topology.NodeID) {
	c := f.cond.Load()
	if c == nil || !c.cut[linkKey{src, dst}] {
		return
	}
	n := c.clone()
	delete(n.cut, linkKey{src, dst})
	if len(n.cut) == 0 {
		n.cut = nil
	}
	f.cond.Store(n)
	if im := f.m.Load(); im != nil {
		im.linkHeals.Inc()
	}
}

// Heal removes any partition and every directed link cut, leaving
// degradation factors in place.
func (f *Fabric) Heal() {
	c := f.cond.Load().clone()
	if c.groupOf == nil && c.cut == nil {
		return // nothing to heal; keep the heal counter honest
	}
	c.groupOf = nil
	c.cut = nil
	f.cond.Store(c)
	if im := f.m.Load(); im != nil {
		im.partitionHeals.Inc()
	}
}

// Reachable reports whether src can currently transfer to dst. Same-node
// transfers are always reachable (local memory never partitions away).
// Reachability is directed: a one-way cut blocks src->dst while dst->src
// still succeeds.
func (f *Fabric) Reachable(src, dst topology.NodeID) bool {
	if src == dst {
		return true
	}
	c := f.cond.Load()
	if c == nil {
		return true
	}
	if c.cut != nil && c.cut[linkKey{src, dst}] {
		return false
	}
	if c.groupOf == nil {
		return true
	}
	if int(src) < 0 || int(src) >= len(c.groupOf) ||
		int(dst) < 0 || int(dst) >= len(c.groupOf) {
		return true
	}
	return c.groupOf[src] == c.groupOf[dst]
}

// SetNodeDegrade multiplies the cost of every transfer touching node n by
// factor (a straggler link, a flapping NIC, an overloaded ToR port).
// factor <= 1 clears the degradation.
func (f *Fabric) SetNodeDegrade(n topology.NodeID, factor float64) {
	c := f.cond.Load().clone()
	if factor <= 1 {
		delete(c.degrade, n)
		if len(c.degrade) == 0 {
			c.degrade = nil
		}
	} else {
		if c.degrade == nil {
			c.degrade = map[topology.NodeID]float64{}
		}
		c.degrade[n] = factor
	}
	f.cond.Store(c)
}

// degradeFactor returns the slowdown multiplier for a src->dst transfer:
// the worst factor of the two endpoints, at least 1.
func (f *Fabric) degradeFactor(src, dst topology.NodeID) float64 {
	c := f.cond.Load()
	if c == nil || c.degrade == nil {
		return 1
	}
	factor := 1.0
	if v, ok := c.degrade[src]; ok && v > factor {
		factor = v
	}
	if v, ok := c.degrade[dst]; ok && v > factor {
		factor = v
	}
	return factor
}

// nodeDegrade returns node n's own degradation factor, at least 1; the
// flow simulator divides NIC capacity by it.
func (f *Fabric) nodeDegrade(n topology.NodeID) float64 {
	c := f.cond.Load()
	if c == nil || c.degrade == nil {
		return 1
	}
	if v, ok := c.degrade[n]; ok && v > 1 {
		return v
	}
	return 1
}

// applyConditions scales a computed transfer duration by the current link
// degradation and counts degraded queries.
func (f *Fabric) applyConditions(src, dst topology.NodeID, d time.Duration) time.Duration {
	factor := f.degradeFactor(src, dst)
	if factor <= 1 {
		return d
	}
	if im := f.m.Load(); im != nil {
		im.degradedQueries.Inc()
	}
	return time.Duration(float64(d) * factor)
}
