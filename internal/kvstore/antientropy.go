package kvstore

import (
	"slices"
	"sort"

	"repro/internal/topology"
)

// AntiEntropy is the background repair pass that complements read repair:
// for every key on any replica, push the newest version to the other
// nodes in the key's current preference list, and drop copies from nodes
// no longer responsible (e.g. sloppy-quorum leftovers after recovery). It
// returns the number of replica copies written and removed.
//
// Real Dynamo-style stores drive this with Merkle-tree diffs per key
// range; with in-process replicas a full sweep is the honest equivalent
// and keeps the invariant the tests check: after AntiEntropy, every key
// is present and newest on exactly its N preference nodes.
func (s *Store) AntiEntropy() (written, removed int) {
	// Gather the newest version of every key across all replicas.
	newest := map[string]versioned{}
	for _, rp := range s.replica {
		rp.mu.RLock()
		for k, v := range rp.data {
			if cur, ok := newest[k]; !ok || v.version > cur.version {
				newest[k] = v
			}
		}
		rp.mu.RUnlock()
	}
	keys := make([]string, 0, len(newest))
	for k := range newest {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic repair order

	for _, k := range keys {
		v := newest[k]
		prefs := s.ring.preferenceList(k)
		for id, rp := range s.replica {
			node := topology.NodeID(id)
			want := slices.Contains(prefs, node)
			rp.mu.Lock()
			cur, has := rp.data[k]
			switch {
			case want && (!has || cur.version < v.version):
				if s.alive[node].Load() {
					rp.data[k] = v
					written++
				}
			case !want && has:
				delete(rp.data, k)
				removed++
			}
			rp.mu.Unlock()
		}
	}
	if written > 0 {
		s.Reg.Counter("anti_entropy_writes").Add(int64(written))
	}
	if removed > 0 {
		s.Reg.Counter("anti_entropy_removals").Add(int64(removed))
	}
	return written, removed
}
