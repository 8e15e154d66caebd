package ha

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// Log compaction: members that compact at the same applied index store
// one shared snapshot. These tests pin that the shared bytes are exactly
// what each member would have built itself, and that nobody writes them.

// blobSM keeps the last command as its state. Restore keeps a view into
// the snapshot it is handed, as kvstore's range machine does for values:
// the aliasing a shared snapshot has to survive.
type blobSM struct{ val []byte }

func (s *blobSM) Apply(cmd []byte) []byte { s.val = cmd; return nil }
func (s *blobSM) Snapshot() []byte        { return append([]byte(nil), s.val...) }
func (s *blobSM) Restore(snap []byte)     { s.val = snap }

func blobGroup(reg *metrics.Registry) *Group {
	return NewGroup(Config{
		Seed: 42, CompactEvery: 8, Metrics: reg,
		Dynamic: func(string) StateMachine { return &blobSM{} },
	})
}

// stored returns copies of every member's compaction offset and payload.
func stored(g *Group) (offs []uint64, snaps [][]byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for id := range g.reps {
		off, snap := g.net.Node(id).Snapshot()
		offs = append(offs, off)
		snaps = append(snaps, append([]byte(nil), snap...))
	}
	return offs, snaps
}

func TestCompactionStoresWhatTheMemberWouldBuild(t *testing.T) {
	reg := metrics.NewRegistry()
	g := blobGroup(reg)
	lastOff := make([]uint64, g.Members())
	verified := make([]int, g.Members())
	// own[i][x] is member i's own serialization when it had applied x,
	// taken between operations. The leader compacts at x and applies
	// x+1 inside one Propose, so its x is from the operation before.
	own := make([]map[uint64][]byte, g.Members())
	for i := range own {
		own[i] = map[uint64][]byte{}
	}
	check := func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		for i, rep := range g.reps {
			own[i][rep.applied] = rep.snapshot(nil)
			off, snap := g.net.Node(i).Snapshot()
			if want, ok := own[i][off]; ok && off != lastOff[i] {
				if !bytes.Equal(snap, want) {
					t.Fatalf("member %d at index %d stores a snapshot that is not its own state", i, off)
				}
				verified[i]++
			}
			lastOff[i] = off
			for j := 0; j < i; j++ {
				if o, s := g.net.Node(j).Snapshot(); o == off && !bytes.Equal(s, snap) {
					t.Fatalf("members %d and %d both compacted at %d with different payloads", j, i, off)
				}
			}
		}
	}
	for v := 0; v < 200; v++ {
		name := fmt.Sprintf("m-%d", v%5)
		if _, err := g.Propose(name, []byte(fmt.Sprintf("value %d of %s", v, name))); err != nil {
			t.Fatalf("Propose: %v", err)
		}
		check()
		if v%7 == 0 {
			settle(g, 3)
			check()
		}
	}
	for i, n := range verified {
		if n < 20 {
			t.Errorf("member %d: only %d compactions verified against its own snapshot", i, n)
		}
	}
	compactions := reg.Counter("ha_compactions").Value()
	built := reg.Counter("ha_snapshots_built").Value()
	if compactions < 3*20 || built < 1 || 2*built > compactions {
		t.Errorf("ha_compactions = %d, ha_snapshots_built = %d; want every member compacting and a healthy group mostly sharing", compactions, built)
	}
	if reg.Counter("ha_snapshot_bytes").Value() < built {
		t.Errorf("ha_snapshot_bytes = %d with %d snapshots built", reg.Counter("ha_snapshot_bytes").Value(), built)
	}
}

func TestCompactionSharedSnapshotIsNeverWritten(t *testing.T) {
	g := blobGroup(nil)
	propose := func(from, to int) {
		t.Helper()
		for v := from; v < to; v++ {
			if _, err := g.Propose(fmt.Sprintf("m-%d", v%3), []byte(fmt.Sprintf("payload-%04d", v))); err != nil {
				t.Fatalf("Propose: %v", err)
			}
		}
	}
	propose(0, 40)
	settle(g, 20)
	victim := (g.Leader() + 1) % g.Members()
	if err := g.CrashMember(victim); err != nil {
		t.Fatal(err)
	}
	if err := g.ReviveMember(victim); err != nil { // machines now alias the stored snapshot
		t.Fatal(err)
	}
	offs, snaps := stored(g)
	shared := 0
	for i := range offs {
		if i != victim && offs[i] == offs[victim] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("offsets %v: the revived member shares a compaction point with nobody; test needs retuning", offs)
	}
	// Mutate the revived member (and everyone else) one command at a
	// time; a payload may be replaced by a later compaction but a stored
	// one must never change under its offset.
	for v := 40; v < 80; v++ {
		propose(v, v+1)
		nowOffs, nowSnaps := stored(g)
		for i := range offs {
			if nowOffs[i] == offs[i] && !bytes.Equal(nowSnaps[i], snaps[i]) {
				t.Fatalf("member %d: snapshot at index %d changed in place after command %d", i, offs[i], v)
			}
		}
		offs, snaps = nowOffs, nowSnaps
	}
	settle(g, 20)
	g.mu.Lock()
	defer g.mu.Unlock()
	want := g.reps[g.net.Leader()].snapshot(nil)
	for i, rep := range g.reps {
		if !bytes.Equal(rep.snapshot(nil), want) {
			t.Errorf("member %d diverged from the leader after revival from a shared snapshot", i)
		}
	}
}
