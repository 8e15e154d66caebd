// Package kvstore is a Dynamo-style distributed key-value store: keys are
// placed on a consistent-hash ring with virtual nodes, replicated to N
// physical nodes, and read/written under (R, W) quorums with read repair
// and hinted handoff. Operation latency is charged against the cluster's
// network fabric so the quorum-vs-latency trade-off (experiment E5) is
// measurable without a testbed.
package kvstore

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/topology"
)

// ErrNoReplicas reports that a ring walk found no eligible physical node:
// every candidate was excluded. Callers must treat this as a hard routing
// failure rather than silently proceeding with a shrunken replica set.
var ErrNoReplicas = errors.New("kvstore: no eligible replicas on ring")

// ring is a consistent-hash ring with virtual nodes. Immutable after build.
type ring struct {
	hashes []uint64          // point hashes, ascending
	owner  []topology.NodeID // physical node of each point
	width  int               // preference-list length
	// walk[i*width:(i+1)*width] is the first width distinct physical
	// nodes clockwise from point i: a preference list is one binary
	// search and a subslice.
	walk []topology.NodeID
}

type ringPoint struct {
	hash uint64
	node topology.NodeID
}

// newRing places vnodes virtual points per physical node and precomputes
// each point's preference list of n replicas (at most nodes).
func newRing(nodes, vnodes, n int) *ring {
	var points []ringPoint
	for node := 0; node < nodes; node++ {
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{
				hash: hashString(fmt.Sprintf("node-%d-vnode-%d", node, v)),
				node: topology.NodeID(node),
			})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	w := min(n, nodes)
	r := &ring{width: w, walk: make([]topology.NodeID, 0, len(points)*w)}
	for _, p := range points {
		r.hashes, r.owner = append(r.hashes, p.hash), append(r.owner, p.node)
	}
	for i := range points {
		for j := i; len(r.walk) < (i+1)*r.width; j++ {
			if node := r.owner[j%len(points)]; !slices.Contains(r.walk[i*r.width:], node) {
				r.walk = append(r.walk, node)
			}
		}
	}
	return r
}

// hashString is FNV-1a over s followed by the SplitMix64 finalizer; FNV
// alone clusters badly on the short, similar strings vnode labels are
// made of.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return mix(h)
}

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// start returns the first point at or clockwise after key's hash.
func (r *ring) start(key string) int {
	i, _ := slices.BinarySearch(r.hashes, hashString(key))
	if i == len(r.hashes) {
		return 0
	}
	return i
}

// preferenceList returns the first width distinct physical nodes clockwise
// from key's hash — the replica set in ring order. The slice is the ring's
// own: callers must not modify it.
func (r *ring) preferenceList(key string) []topology.NodeID {
	i := r.start(key) * r.width
	return r.walk[i : i+r.width : i+r.width]
}

// successors returns up to n distinct physical nodes clockwise from key's
// hash for which skip is false — the hinted-handoff targets. It walks the
// points one by one, which only a write with a dead replica pays for.
// When n > 0 and every physical node is skipped it returns ErrNoReplicas
// so the caller can surface the exhausted ring instead of quietly
// operating on fewer replicas than requested.
func (r *ring) successors(key string, n int, skip func(topology.NodeID) bool) ([]topology.NodeID, error) {
	var out []topology.NodeID
	for i, start := 0, r.start(key); len(out) < n && i < len(r.owner); i++ {
		if node := r.owner[(start+i)%len(r.owner)]; !skip(node) && !slices.Contains(out, node) {
			out = append(out, node)
		}
	}
	if n > 0 && len(out) == 0 {
		return nil, ErrNoReplicas
	}
	return out, nil
}
