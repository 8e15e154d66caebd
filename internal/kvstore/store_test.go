package kvstore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
)

func newStore(t *testing.T, n, r, w int) *Store {
	t.Helper()
	fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.RDMA40G)
	s, err := New(Config{Fabric: fab, N: n, R: r, W: w})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	if _, err := s.Put(0, "user:1", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, lat, err := s.Get(1, "user:1")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "alice" {
		t.Fatalf("got %q", v)
	}
	if lat <= 0 {
		t.Fatal("zero read latency")
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	if _, _, err := s.Get(0, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverwriteNewestWins(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	for i := 0; i < 10; i++ {
		if _, err := s.Put(topology.NodeID(i%8), "k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, _, err := s.Get(3, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v9" {
		t.Fatalf("got %q, want v9", v)
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	_, _ = s.Put(0, "k", []byte("v"))
	if _, err := s.Delete(0, "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(0, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key readable: %v", err)
	}
}

func TestReplicationPlacesNReplicas(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	_, _ = s.Put(0, "replicated", []byte("x"))
	if got := s.ReplicaCount("replicated"); got != 3 {
		t.Fatalf("replicas = %d, want 3", got)
	}
}

func TestReadYourWritesWithQuorumOverlap(t *testing.T) {
	// R+W > N guarantees the read quorum intersects the write quorum even
	// when a replica is down.
	s := newStore(t, 3, 2, 2)
	prefs := s.ring.preferenceList("key-under-test")
	if err := s.FailNode(prefs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(0, "key-under-test", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Get(5, "key-under-test")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v1" {
		t.Fatalf("read-your-writes violated: got %q", v)
	}
}

func TestQuorumFailure(t *testing.T) {
	fab := netsim.NewFabric(topology.Single(3), netsim.RDMA40G)
	s, err := New(Config{Fabric: fab, N: 3, R: 2, W: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.FailNode(0)
	if _, err := s.Put(1, "k", []byte("v")); !errors.Is(err, ErrQuorumFailed) {
		// W=3 needs all three; with hinted handoff impossible (no spare
		// nodes in a 3-node cluster), the write must fail.
		t.Fatalf("err = %v, want quorum failure", err)
	}
}

func TestHintedHandoffAndDelivery(t *testing.T) {
	s := newStore(t, 3, 1, 2) // 8 nodes, so a successor exists for handoff
	prefs := s.ring.preferenceList("hh-key")
	victim := prefs[0]
	_ = s.FailNode(victim)
	if _, err := s.Put(0, "hh-key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if s.PendingHints() == 0 {
		t.Fatal("no hint recorded for dead replica")
	}
	if err := s.RecoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if s.PendingHints() != 0 {
		t.Fatal("hints not delivered on recovery")
	}
	// The recovered node must now hold the value.
	v, ok := s.replica[victim].get("hh-key", false)
	if !ok || string(v.value) != "v" {
		t.Fatal("recovered node missing hinted write")
	}
	if s.Reg.Counter("hints_delivered").Value() == 0 {
		t.Fatal("hints_delivered not counted")
	}
}

func TestReadRepair(t *testing.T) {
	s := newStore(t, 3, 3, 2)
	prefs := s.ring.preferenceList("rr-key")
	// Write v1 everywhere, then manually roll one replica back to simulate
	// a stale copy.
	if _, err := s.Put(0, "rr-key", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	stale := prefs[2]
	s.replica[stale].mu.Lock()
	s.replica[stale].data["rr-key"] = versioned{value: []byte("v1"), version: 0}
	s.replica[stale].mu.Unlock()

	v, _, err := s.Get(0, "rr-key") // R=3 touches all replicas
	if err != nil || string(v) != "v2" {
		t.Fatalf("got %q, %v", v, err)
	}
	if s.Reg.Counter("read_repairs").Value() == 0 {
		t.Fatal("read repair not performed")
	}
	got, _ := s.replica[stale].get("rr-key", false)
	if string(got.value) != "v2" {
		t.Fatal("stale replica not repaired")
	}
}

func TestQuorumLatencyOrdering(t *testing.T) {
	// Larger write quorums cannot be faster: latency(W=1) <= latency(W=3).
	fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.TCP40G)
	lat := map[int]int64{}
	for _, w := range []int{1, 3} {
		s, err := New(Config{Fabric: fab, N: 3, R: 1, W: w})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for i := 0; i < 200; i++ {
			d, err := s.Put(topology.NodeID(i%8), fmt.Sprintf("k%d", i), []byte("value"))
			if err != nil {
				t.Fatal(err)
			}
			sum += int64(d)
		}
		lat[w] = sum
	}
	if lat[1] >= lat[3] {
		t.Fatalf("W=1 total latency %d not below W=3 latency %d", lat[1], lat[3])
	}
}

func TestInvalidQuorumRejected(t *testing.T) {
	fab := netsim.NewFabric(topology.Single(4), netsim.RDMA40G)
	if _, err := New(Config{Fabric: fab, N: 3, R: 4, W: 1}); !errors.Is(err, ErrBadQuorum) {
		t.Fatalf("err = %v", err)
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil fabric accepted")
	}
}

func TestPreferenceListProperties(t *testing.T) {
	r := newRing(10, 64, 3)
	f := func(key string) bool {
		prefs := r.preferenceList(key)
		if len(prefs) != 3 {
			return false
		}
		seen := map[topology.NodeID]bool{}
		for _, n := range prefs {
			if n < 0 || n >= 10 || seen[n] {
				return false
			}
			seen[n] = true
		}
		// Deterministic.
		again := r.preferenceList(key)
		for i := range prefs {
			if prefs[i] != again[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingBalance(t *testing.T) {
	r := newRing(8, 128, 1)
	counts := make([]int, 8)
	gen := rng.New(5)
	const keys = 20000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d-%d", i, gen.Uint64())
		counts[r.preferenceList(k)[0]]++
	}
	for n, c := range counts {
		frac := float64(c) / keys
		if frac < 0.05 || frac > 0.25 {
			t.Fatalf("node %d owns %.1f%% of keys; ring unbalanced", n, frac*100)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("c%d-k%d", c, i)
				if _, err := s.Put(topology.NodeID(c), key, []byte(key)); err != nil {
					errs <- err
					return
				}
				v, _, err := s.Get(topology.NodeID(c), key)
				if err != nil {
					errs <- err
					return
				}
				if string(v) != key {
					errs <- fmt.Errorf("got %q want %q", v, key)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFailUnknownNode(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	if err := s.FailNode(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
	if err := s.RecoverNode(-1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

// TestConcurrentFaultToggles runs clients against a store whose liveness
// and stale-read flags flip underneath them: only quorum failures and
// misses may surface, every read returns a value some put wrote, and
// once every node is back, one anti-entropy pass leaves each key on
// exactly N replicas.
func TestConcurrentFaultToggles(t *testing.T) {
	s := newStore(t, 3, 2, 2)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("toggle-%d", i)
		if _, err := s.Put(0, keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		r := rng.New(99)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := topology.NodeID(r.Intn(8))
			switch r.Intn(3) {
			case 0:
				_ = s.FailNode(n)
			case 1:
				_ = s.RecoverNode(n)
			default:
				s.SetStaleReads(r.Intn(2) == 0)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c))
			for i := 0; i < 2000; i++ {
				key := keys[r.Intn(len(keys))]
				var v []byte
				var err error
				if r.Intn(2) == 0 {
					_, err = s.Put(topology.NodeID(c), key, []byte(key))
				} else if v, _, err = s.Get(topology.NodeID(c), key); err == nil && string(v) != key {
					err = fmt.Errorf("get %s = %q", key, v)
				}
				if err != nil && !errors.Is(err, ErrQuorumFailed) && !errors.Is(err, ErrNotFound) {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	toggler.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for n := 0; n < 8; n++ {
		_ = s.RecoverNode(topology.NodeID(n))
	}
	s.SetStaleReads(false)
	s.AntiEntropy()
	for _, k := range keys {
		if got := s.ReplicaCount(k); got != 3 {
			t.Errorf("%s on %d replicas after recovery and anti-entropy, want 3", k, got)
		}
	}
}

// benchStore is an 8-node RDMA store preloaded with 10 000 keys of 256 B,
// the kv_mix value size; the keys are built once so that the benchmarks
// time Get and Put, not fmt.
func benchStore(b *testing.B) (*Store, []string, []byte) {
	fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.RDMA40G)
	s, err := New(Config{Fabric: fab, N: 3, R: 2, W: 2})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 10000)
	val := make([]byte, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d", i)
		if _, err := s.Put(0, keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	return s, keys, val
}

func BenchmarkPut(b *testing.B) {
	s, keys, val := benchStore(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Put(topology.NodeID(i%8), keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s, keys, _ := benchStore(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get(topology.NodeID(i%8), keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
