package ha

import (
	"bytes"
	"fmt"
	"slices"
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

// bigSM holds a fixed 64 KB of state; each command overwrites the 1 KB
// slot its first byte names. Its snapshot is always the whole state.
type bigSM struct{ state []byte }

func newBigSM() StateMachine { return &bigSM{state: make([]byte, 64<<10)} }

func (s *bigSM) Apply(cmd []byte) []byte { copy(s.state[int(cmd[0]%64)<<10:], cmd); return nil }
func (s *bigSM) Snapshot() []byte        { return slices.Clone(s.state) }
func (s *bigSM) Restore(snap []byte)     { copy(s.state, snap) }

// A member snapshots once the entry bytes it applied since its last
// compaction reach its stored snapshot's size: a group whose state is far
// larger than its commands builds at most about one snapshot byte per
// log byte, not one snapshot per CompactEvery entries.
func TestCompactionBuildsAtMostASnapshotBytePerLogByte(t *testing.T) {
	reg := metrics.NewRegistry()
	g := NewGroup(Config{Seed: 42, Metrics: reg, Machines: map[string]func() StateMachine{"big": newBigSM}})
	proposed := 0
	cmd := make([]byte, 100)
	for v := range 3000 {
		cmd[0] = byte(v)
		if _, err := g.Propose("big", cmd); err != nil {
			t.Fatalf("Propose: %v", err)
		}
		proposed += len(cmd)
	}
	built, snapBytes := reg.Counter("ha_snapshots_built").Value(), reg.Counter("ha_snapshot_bytes").Value()
	if limit := 2*int64(proposed) + 64<<10 + 64; built < 2 || snapBytes > limit {
		t.Errorf("%d snapshots, %d bytes built for %d command bytes; want at least 2 and at most %d bytes",
			built, snapBytes, proposed, limit)
	}
}

// A machine whose snapshot is smaller than a few commands compacts on the
// entry floor alone: after every CompactEvery+1 applied entries.
func TestCompactionKeepsTheEntryFloorForTinyState(t *testing.T) {
	reg := metrics.NewRegistry()
	g := addGroup(t, Config{CompactEvery: 8, Metrics: reg})
	const n = 90
	for range n {
		if _, err := g.Propose("add", encAdd(1)); err != nil {
			t.Fatalf("Propose: %v", err)
		}
	}
	settle(g, 20)
	g.mu.Lock()
	for id, rep := range g.reps {
		if l := g.net.Node(id).LogLen(); l > 8 {
			t.Errorf("member %d (applied %d) keeps %d live entries, more than CompactEvery", id, rep.applied, l)
		}
	}
	g.mu.Unlock()
	if got, want := reg.Counter("ha_compactions").Value(), int64(g.Members()*(n/9)); got < want {
		t.Errorf("ha_compactions = %d after %d commands, want at least %d", got, n, want)
	}
}

// A vanilla leader cut off from every peer keeps its leadership and takes
// proposals it can never commit. Its live log outgrows CompactEvery while
// it applies nothing new, so there is nothing to compact: the compaction
// counters may move only in a round that moves some member's offset.
func TestCompactionCountsOnlyCompactionsThatHappen(t *testing.T) {
	reg := metrics.NewRegistry()
	g := addGroup(t, Config{CompactEvery: 8, DisableHardening: true, Metrics: reg})
	for range 20 {
		if _, err := g.Propose("add", encAdd(1)); err != nil {
			t.Fatalf("Propose: %v", err)
		}
	}
	settle(g, 20)
	g.mu.Lock()
	lead := g.net.Leader()
	g.net.Partition([]int{lead})
	for v := range 12 {
		if !g.net.Propose(encodeEnvelope(1000+uint64(v), "add", encAdd(1))) {
			t.Fatalf("proposal %d to the cut-off leader %d was refused", v, lead)
		}
	}
	held := g.net.Node(lead).LogLen()
	g.mu.Unlock()
	if held <= 8 {
		t.Fatalf("the cut-off leader holds %d live entries; test needs retuning", held)
	}
	compactions, built := reg.Counter("ha_compactions"), reg.Counter("ha_snapshots_built")
	for tick := range 50 {
		offs, _ := stored(g)
		c, b := compactions.Value(), built.Value()
		settle(g, 1)
		if now, _ := stored(g); slices.Equal(offs, now) && (compactions.Value() != c || built.Value() != b) {
			t.Fatalf("tick %d: offsets stay %v, but ha_compactions %d -> %d and ha_snapshots_built %d -> %d",
				tick, offs, c, compactions.Value(), b, built.Value())
		}
	}
	if g.Leader() != lead {
		t.Fatalf("leader %d lost its leadership; the test needs it to keep proposing", lead)
	}
}
