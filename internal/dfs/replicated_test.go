package dfs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/ha"
	"repro/internal/topology"
)

func replicatedFS(t *testing.T, seed uint64) (*DFS, *ha.Group) {
	t.Helper()
	cfg := Config{
		Topology:    topology.TwoTier(2, 3, 4),
		BlockSize:   1 << 10,
		Replication: 3,
		Seed:        seed,
	}
	g := ha.NewGroup(ha.Config{
		Seed:     seed,
		Machines: map[string]func() ha.StateMachine{MachineName: NameMachine(cfg)},
	})
	return NewReplicated(cfg, g), g
}

func TestReplicatedRoundTrip(t *testing.T) {
	d, _ := replicatedFS(t, 3)
	payload := bytes.Repeat([]byte("replicated namenode "), 200)
	writeFile(t, d, "/a", payload)
	r, err := d.Open("/a", -1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("replicated round trip corrupted data")
	}
	if _, err := d.Create("/a"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Create = %v, want ErrExists", err)
	}
	if _, err := d.Stat("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat(missing) = %v, want ErrNotFound", err)
	}
}

func TestReplicatedMatchesLocalPlacement(t *testing.T) {
	// The same seed and operation sequence must place blocks identically
	// whether the namenode is embedded or replicated: the placement RNG
	// lives in the state machine.
	cfg := Config{Topology: topology.TwoTier(2, 3, 4), BlockSize: 1 << 10, Replication: 3, Seed: 77}
	local := New(cfg)
	repl, _ := replicatedFS(t, 77)
	payload := bytes.Repeat([]byte("x"), 5<<10)
	writeFile(t, local, "/f", payload)
	writeFile(t, repl, "/f", payload)
	a, err := local.BlockLocations("/f")
	if err != nil {
		t.Fatalf("local BlockLocations: %v", err)
	}
	b, err := repl.BlockLocations("/f")
	if err != nil {
		t.Fatalf("replicated BlockLocations: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("block counts differ: local %d, replicated %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Length != b[i].Length {
			t.Errorf("block %d identity differs: %+v vs %+v", i, a[i], b[i])
		}
		if len(a[i].Replicas) != len(b[i].Replicas) {
			t.Fatalf("block %d replica counts differ: %v vs %v", i, a[i].Replicas, b[i].Replicas)
		}
		for j := range a[i].Replicas {
			if a[i].Replicas[j] != b[i].Replicas[j] {
				t.Errorf("block %d replica %d differs: %v vs %v", i, j, a[i].Replicas, b[i].Replicas)
			}
		}
	}
}

func TestLeaderCrashMidWriteDoesNotLoseBlockMap(t *testing.T) {
	d, g := replicatedFS(t, 5)
	payload := bytes.Repeat([]byte("failover "), 500) // several blocks
	w, err := d.Create("/journal")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	half := len(payload) / 2
	if _, err := w.Write(payload[:half]); err != nil {
		t.Fatalf("Write first half: %v", err)
	}
	// Kill the namenode leader mid-write. The remaining members elect a
	// new leader and the write continues against it.
	if err := g.CrashMember(-1); err != nil {
		t.Fatalf("CrashMember: %v", err)
	}
	if _, err := w.Write(payload[half:]); err != nil {
		t.Fatalf("Write after leader crash: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := d.Open("/journal", -1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("post-failover contents differ: got %d bytes, want %d", len(got), len(payload))
	}
	// The crashed member rejoins and catches up without disturbing reads.
	if err := g.ReviveMember(-1); err != nil {
		t.Fatalf("ReviveMember: %v", err)
	}
	info, err := d.Stat("/journal")
	if err != nil {
		t.Fatalf("Stat after revive: %v", err)
	}
	if info.Size != int64(len(payload)) {
		t.Fatalf("Stat size = %d, want %d", info.Size, len(payload))
	}
}

func TestReplicatedRecoveryOps(t *testing.T) {
	d, g := replicatedFS(t, 9)
	payload := bytes.Repeat([]byte("y"), 4<<10)
	writeFile(t, d, "/data", payload)
	locs, err := d.BlockLocations("/data")
	if err != nil {
		t.Fatalf("BlockLocations: %v", err)
	}
	if err := d.KillNode(locs[0].Replicas[0]); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if n := len(d.UnderReplicated()); n == 0 {
		t.Fatal("no under-replicated blocks after node kill")
	}
	// Crash the namenode leader, then drive recovery through the new one.
	if err := g.CrashMember(-1); err != nil {
		t.Fatalf("CrashMember: %v", err)
	}
	added, _ := d.Rereplicate()
	if added == 0 {
		t.Fatal("Rereplicate created no replicas after namenode failover")
	}
	if n := len(d.UnderReplicated()); n != 0 {
		t.Fatalf("%d blocks still under-replicated after recovery", n)
	}
	r, err := d.Open("/data", -1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("contents differ after kill + failover + rereplicate")
	}
}

// TestReplicatedErrorsMatchLocal: every namenode error path returns the
// same text, and the same sentinel, whether the namenode is embedded or
// replicated.
func TestReplicatedErrorsMatchLocal(t *testing.T) {
	cfg := Config{Topology: topology.TwoTier(2, 3, 4), BlockSize: 1 << 10, Replication: 3, Seed: 77}
	for _, tc := range []struct {
		name     string
		sentinel error // nil: the error has no sentinel
		op       func(d *DFS) error
	}{
		{"duplicate create", ErrExists, func(d *DFS) error {
			if _, err := d.Create("/a"); err != nil {
				return nil
			}
			_, err := d.Create("/a")
			return err
		}},
		{"missing delete", ErrNotFound, func(d *DFS) error { return d.Delete("/missing") }},
		{"all nodes dead", ErrNoLiveNode, func(d *DFS) error {
			for n := 0; n < cfg.Topology.Size(); n++ {
				if err := d.KillNode(topology.NodeID(n)); err != nil {
					return nil
				}
			}
			w, err := d.Create("/dead")
			if err != nil {
				return nil
			}
			if _, err := w.Write([]byte("x")); err != nil {
				return nil
			}
			return w.Close()
		}},
		{"unknown node", ErrNodeUnknown, func(d *DFS) error { return d.KillNode(99) }},
		{"decommission twice", nil, func(d *DFS) error {
			if _, err := d.Decommission(1); err != nil {
				return nil
			}
			_, err := d.Decommission(1)
			return err
		}},
	} {
		repl, _ := replicatedFS(t, 77)
		local, replicated := tc.op(New(cfg)), tc.op(repl)
		if local == nil || replicated == nil {
			t.Errorf("%s: local %v, replicated %v; want both to fail", tc.name, local, replicated)
			continue
		}
		if local.Error() != replicated.Error() {
			t.Errorf("%s: local %q, replicated %q", tc.name, local, replicated)
		}
		if tc.sentinel != nil && (!errors.Is(local, tc.sentinel) || !errors.Is(replicated, tc.sentinel)) {
			t.Errorf("%s: local %v, replicated %v; want both to wrap %v", tc.name, local, replicated, tc.sentinel)
		}
	}
}
