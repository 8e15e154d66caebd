package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestSuccessorsSkipsExcluded(t *testing.T) {
	r := newRing(5, 16, 3)
	prefs := r.preferenceList("some-key")
	exclude := map[topology.NodeID]bool{}
	for _, n := range prefs {
		exclude[n] = true
	}
	succ, err := r.successors("some-key", 2, func(n topology.NodeID) bool { return exclude[n] })
	if err != nil {
		t.Fatalf("successors: %v", err)
	}
	if len(succ) != 2 {
		t.Fatalf("successors = %v, want 2 nodes", succ)
	}
	for _, n := range succ {
		if exclude[n] {
			t.Fatalf("successors returned excluded node %d", n)
		}
	}
}

func TestSuccessorsExhaustedRingIsTypedError(t *testing.T) {
	r := newRing(3, 8, 3)
	exclude := map[topology.NodeID]bool{0: true, 1: true, 2: true}
	succ, err := r.successors("k", 1, func(n topology.NodeID) bool { return exclude[n] })
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("successors with all nodes excluded = (%v, %v), want ErrNoReplicas", succ, err)
	}
	if len(succ) != 0 {
		t.Fatalf("successors returned nodes alongside error: %v", succ)
	}
	// n == 0 asks for nothing and is not an error.
	if _, err := r.successors("k", 0, func(n topology.NodeID) bool { return exclude[n] }); err != nil {
		t.Fatalf("successors(n=0) = %v, want nil", err)
	}
}

func TestWriteSurfacesNoReplicasCause(t *testing.T) {
	// 4 nodes, N=4: the preference list covers the whole ring, so with
	// dead replicas there is no handoff target left and the quorum
	// failure must carry ErrNoReplicas as its cause.
	fab := netsim.NewFabric(topology.TwoTier(1, 4, 1), netsim.RDMA40G)
	s, err := New(Config{Fabric: fab, N: 4, R: 2, W: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FailNode(2); err != nil {
		t.Fatal(err)
	}
	if err := s.FailNode(3); err != nil {
		t.Fatal(err)
	}
	_, err = s.Put(0, "k", []byte("v"))
	if !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("Put = %v, want ErrQuorumFailed", err)
	}
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("Put = %v, want ErrNoReplicas cause attached", err)
	}
}

// TestHandoffSkipsDeadSuccessors: on 8 nodes with N=3 and W=3, key "k"
// has preference list [0 4 1] and ring successors [2 3]. With 1 and 2
// down, 5 of 8 nodes are alive, and the write must hand off to 3, the
// first live successor. It used to pick 2, find it dead and fail with
// 2/3 write acks.
func TestHandoffSkipsDeadSuccessors(t *testing.T) {
	s := newStore(t, 3, 2, 3)
	if got := s.ring.preferenceList("k"); !slices.Equal(got, []topology.NodeID{0, 4, 1}) {
		t.Fatalf("preference list of k = %v, want [0 4 1]", got)
	}
	_ = s.FailNode(1)
	_ = s.FailNode(2)
	if _, err := s.Put(0, "k", []byte("v")); err != nil {
		t.Fatalf("Put with 5 of 8 nodes alive: %v", err)
	}
	if _, ok := s.replica[2].get("k", false); ok {
		t.Fatal("dead successor 2 holds a copy")
	}
	if _, ok := s.replica[3].get("k", false); !ok || s.PendingHints() != 1 {
		t.Fatalf("live successor 3: copy %v, pending hints %d; want the hinted copy", ok, s.PendingHints())
	}
	_ = s.RecoverNode(1)
	if v, ok := s.replica[1].get("k", false); !ok || string(v.value) != "v" {
		t.Fatal("hint not delivered to recovered node 1")
	}
}

// TestRingPlacementMatchesParent pins what BENCH_kv.json does not cover:
// the preference list and the successor walk of 10 000 keys on three
// ring shapes, and the simulated latencies and value sizes of a seeded
// healthy Get/Put sequence. The constants were recorded with the ring
// that built each preference list with a seen-map walk.
func TestRingPlacementMatchesParent(t *testing.T) {
	for _, c := range []struct {
		top    *topology.Topology
		vnodes int
		want   uint64
	}{
		{topology.Single(5), 16, 0xb054abbe7688d12},
		{topology.TwoTier(2, 4, 2), 64, 0xd2f7df2fcff58f64},
		{topology.TwoTier(4, 8, 2), 64, 0x87f948ca9e0292fb},
	} {
		if got := placementDigest(t, c.top, c.vnodes); got != c.want {
			t.Errorf("%d nodes, %d vnodes: digest %#x, want %#x", c.top.Size(), c.vnodes, got, c.want)
		}
	}
}

func placementDigest(t *testing.T, top *topology.Topology, vnodes int) uint64 {
	s, err := New(Config{Fabric: netsim.NewFabric(top, netsim.RDMA40G), N: 3, R: 2, W: 2, VNodes: vnodes})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	word := func(v uint64) { _, _ = h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		prefs := s.ring.preferenceList(k)
		for _, n := range prefs {
			word(uint64(n))
		}
		succ, err := s.ring.successors(k, 2, func(n topology.NodeID) bool { return slices.Contains(prefs, n) })
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range succ {
			word(uint64(n) + 100)
		}
	}
	r := rng.New(uint64(top.Size()*1000 + vnodes))
	val := make([]byte, 512)
	r.Bytes(val)
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%d", r.Intn(300))
		coord := topology.NodeID(r.Intn(top.Size()))
		if r.Intn(4) == 0 {
			lat, err := s.Put(coord, k, val[:r.Intn(len(val))])
			if err != nil {
				t.Fatal(err)
			}
			word(uint64(lat))
			continue
		}
		v, lat, err := s.Get(coord, k)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		word(uint64(lat))
		word(uint64(len(v)))
	}
	return h.Sum64()
}

// TestStaleReadInjectionServesOverwrittenVersion pins the quorum
// store's planted fault: under SetStaleReads, replicas serve their
// displaced version and skip read write-back — the behaviour the
// linearizability checker's self-test must catch.
func TestStaleReadInjectionServesOverwrittenVersion(t *testing.T) {
	fab := netsim.NewFabric(topology.TwoTier(1, 4, 1), netsim.RDMA40G)
	s, err := New(Config{Fabric: fab, N: 3, R: 2, W: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config(); got.N != 3 || got.R != 2 || got.W != 2 {
		t.Fatalf("Config = %+v, want N3 R2 W2", got)
	}
	if _, err := s.Put(0, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(0, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	s.SetStaleReads(true)
	v, _, err := s.Get(0, "k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("stale Get = (%q, %v), want overwritten v1", v, err)
	}
	s.SetStaleReads(false)
	v, _, err = s.Get(0, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get after disabling injection = (%q, %v), want v2", v, err)
	}
}
