package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

func antiEntropyStore(t *testing.T) *Store {
	t.Helper()
	fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.RDMA40G)
	s, err := New(Config{Fabric: fab, N: 3, R: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAntiEntropyRestoresFullReplication(t *testing.T) {
	s := antiEntropyStore(t)
	// Write while one preference-list node is down: the key lands on a
	// sloppy successor instead.
	prefs := s.ring.preferenceList("k1")
	victim := prefs[1]
	_ = s.FailNode(victim)
	if _, err := s.Put(0, "k1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	_ = s.RecoverNode(victim) // hints deliver the value back
	// Drop the sloppy copy and any stragglers via anti-entropy.
	s.AntiEntropy()

	// Now the key must live on exactly its 3 preference nodes.
	holders := 0
	for id, rp := range s.replica {
		if _, ok := rp.get("k1", false); ok {
			holders++
			found := false
			for _, p := range prefs {
				if topology.NodeID(id) == p {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d holds k1 but is not in preference list %v", id, prefs)
			}
		}
	}
	if holders != 3 {
		t.Fatalf("k1 on %d nodes after anti-entropy, want 3", holders)
	}
}

func TestAntiEntropyPushesNewestVersion(t *testing.T) {
	s := antiEntropyStore(t)
	if _, err := s.Put(0, "k2", []byte("new")); err != nil {
		t.Fatal(err)
	}
	prefs := s.ring.preferenceList("k2")
	// Manually roll one replica back.
	stale := prefs[2]
	s.replica[stale].mu.Lock()
	s.replica[stale].data["k2"] = versioned{value: []byte("old"), version: 0}
	s.replica[stale].mu.Unlock()

	written, _ := s.AntiEntropy()
	if written == 0 {
		t.Fatal("anti-entropy repaired nothing")
	}
	got, ok := s.replica[stale].get("k2", false)
	if !ok || string(got.value) != "new" {
		t.Fatalf("stale replica holds %q after anti-entropy", got.value)
	}
}

func TestAntiEntropyIdempotent(t *testing.T) {
	s := antiEntropyStore(t)
	for i := 0; i < 50; i++ {
		if _, err := s.Put(topology.NodeID(i%8), fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.AntiEntropy()
	w, r := s.AntiEntropy()
	if w != 0 || r != 0 {
		t.Fatalf("second anti-entropy pass did work: wrote %d removed %d", w, r)
	}
}

func TestAntiEntropySkipsDeadTargets(t *testing.T) {
	s := antiEntropyStore(t)
	if _, err := s.Put(0, "k3", []byte("v")); err != nil {
		t.Fatal(err)
	}
	prefs := s.ring.preferenceList("k3")
	victim := prefs[0]
	_ = s.FailNode(victim)
	// Remove the dead node's copy to create a gap it cannot fill.
	s.replica[victim].mu.Lock()
	delete(s.replica[victim].data, "k3")
	s.replica[victim].mu.Unlock()
	s.AntiEntropy()
	if _, ok := s.replica[victim].get("k3", false); ok {
		t.Fatal("anti-entropy wrote to a dead node")
	}
	// After recovery, another pass completes the repair.
	_ = s.RecoverNode(victim)
	s.AntiEntropy()
	if _, ok := s.replica[victim].get("k3", false); !ok {
		t.Fatal("anti-entropy did not repair recovered node")
	}
}
