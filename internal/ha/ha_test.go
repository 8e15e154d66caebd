package ha

import (
	"encoding/binary"
	"testing"

	"repro/internal/metrics"
)

// addSM is a deterministic accumulator: each command adds a u64 and the
// response is the running total. applies counts Apply calls so tests
// can assert exactly-once application under re-proposal and restart.
type addSM struct {
	total   uint64
	applies int
}

func newAddSM() StateMachine { return &addSM{} }

func (s *addSM) Apply(cmd []byte) []byte {
	s.total += binary.BigEndian.Uint64(cmd)
	s.applies++
	return binary.BigEndian.AppendUint64(nil, s.total)
}

func (s *addSM) Snapshot() []byte {
	buf := binary.BigEndian.AppendUint64(nil, s.total)
	return binary.BigEndian.AppendUint32(buf, uint32(s.applies))
}

func (s *addSM) Restore(snap []byte) {
	s.total = binary.BigEndian.Uint64(snap)
	s.applies = int(binary.BigEndian.Uint32(snap[8:]))
}

func encAdd(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

func addGroup(t *testing.T, cfg Config) *Group {
	t.Helper()
	if cfg.Machines == nil {
		cfg.Machines = map[string]func() StateMachine{"add": newAddSM}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return NewGroup(cfg)
}

// settle advances virtual time so followers learn the commit index and
// apply the tail.
func settle(g *Group, ticks int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < ticks; i++ {
		g.tickLocked()
	}
}

// addState returns (total, applies) of member id's add machine.
func addState(t *testing.T, g *Group, id int) (uint64, int) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	rep := g.reps[id]
	if rep == nil {
		t.Fatalf("member %d has no replica (crashed?)", id)
	}
	sm := rep.machines["add"].(*addSM)
	return sm.total, sm.applies
}

func TestProposeAppliesOnAllReplicas(t *testing.T) {
	g := addGroup(t, Config{})
	var want uint64
	for v := uint64(1); v <= 5; v++ {
		want += v
		resp, err := g.Propose("add", encAdd(v))
		if err != nil {
			t.Fatalf("Propose(%d): %v", v, err)
		}
		if got := binary.BigEndian.Uint64(resp); got != want {
			t.Fatalf("Propose(%d) resp = %d, want %d", v, got, want)
		}
	}
	settle(g, 20)
	for id := 0; id < g.Members(); id++ {
		total, applies := addState(t, g, id)
		if total != want || applies != 5 {
			t.Errorf("member %d: total=%d applies=%d, want total=%d applies=5",
				id, total, applies, want)
		}
	}
}

func TestLeaderCrashFailsOver(t *testing.T) {
	reg := metrics.NewRegistry()
	g := addGroup(t, Config{Metrics: reg})
	for v := uint64(1); v <= 3; v++ {
		if _, err := g.Propose("add", encAdd(v)); err != nil {
			t.Fatalf("Propose(%d): %v", v, err)
		}
	}
	lead := g.Leader()
	if lead < 0 {
		t.Fatal("no leader after proposals")
	}
	if err := g.CrashMember(-1); err != nil { // -1 = current leader
		t.Fatalf("CrashMember: %v", err)
	}
	for v := uint64(4); v <= 5; v++ {
		if _, err := g.Propose("add", encAdd(v)); err != nil {
			t.Fatalf("Propose(%d) after leader crash: %v", v, err)
		}
	}
	if got := g.Leader(); got < 0 || got == lead {
		t.Fatalf("leader after crash = %d, want a new live leader (crashed %d)", got, lead)
	}
	if n := reg.Counter("ha_failovers").Value(); n < 1 {
		t.Errorf("ha_failovers = %d, want >= 1", n)
	}
	if reg.Histogram("ha_failover_ticks").Count() < 1 {
		t.Error("ha_failover_ticks recorded no observations")
	}
	settle(g, 20)
	for id := 0; id < g.Members(); id++ {
		if id == lead {
			continue
		}
		total, applies := addState(t, g, id)
		if total != 15 || applies != 5 {
			t.Errorf("member %d: total=%d applies=%d, want total=15 applies=5",
				id, total, applies)
		}
	}
}

func TestReviveRebuildsFromDurableState(t *testing.T) {
	reg := metrics.NewRegistry()
	g := addGroup(t, Config{CompactEvery: 8, Metrics: reg})
	for v := 0; v < 20; v++ {
		if _, err := g.Propose("add", encAdd(1)); err != nil {
			t.Fatalf("Propose: %v", err)
		}
	}
	settle(g, 20)
	victim := (g.Leader() + 1) % g.Members() // a follower
	if err := g.CrashMember(victim); err != nil {
		t.Fatalf("CrashMember(%d): %v", victim, err)
	}
	// Enough traffic while the follower is down that the leader compacts
	// past the follower's log tail, forcing a snapshot install on rejoin.
	for v := 0; v < 20; v++ {
		if _, err := g.Propose("add", encAdd(1)); err != nil {
			t.Fatalf("Propose with member down: %v", err)
		}
	}
	if err := g.ReviveMember(-1); err != nil { // -1 = last crashed
		t.Fatalf("ReviveMember: %v", err)
	}
	settle(g, 60)
	for id := 0; id < g.Members(); id++ {
		total, applies := addState(t, g, id)
		if total != 40 || applies != 40 {
			t.Errorf("member %d: total=%d applies=%d, want total=40 applies=40",
				id, total, applies)
		}
	}
	if reg.Counter("ha_member_restarts").Value() != 1 {
		t.Errorf("ha_member_restarts = %d, want 1",
			reg.Counter("ha_member_restarts").Value())
	}
	// While the follower was down the other two still shared snapshots.
	if c, b := reg.Counter("ha_compactions").Value(), reg.Counter("ha_snapshots_built").Value(); c < 4 || b >= c {
		t.Errorf("ha_compactions = %d, ha_snapshots_built = %d; want compactions, fewer built", c, b)
	}
}

func TestPartitionedLeaderReproposesExactlyOnce(t *testing.T) {
	g := addGroup(t, Config{})
	if err := g.Query("add", func(StateMachine) error { return nil }); err != nil {
		t.Fatalf("initial election: %v", err)
	}
	lead := g.Leader()
	var rest []int
	for id := 0; id < g.Members(); id++ {
		if id != lead {
			rest = append(rest, id)
		}
	}
	g.Partition([]int{lead}, rest) // isolate the leader; majority elects a new one
	resp, err := g.Propose("add", encAdd(7))
	if err != nil {
		t.Fatalf("Propose during leader partition: %v", err)
	}
	if got := binary.BigEndian.Uint64(resp); got != 7 {
		t.Fatalf("resp = %d, want 7", got)
	}
	if got := g.Leader(); got == lead {
		t.Fatalf("leader still %d after partition, expected a new leader", lead)
	}
	g.Heal()
	settle(g, 40)
	for id := 0; id < g.Members(); id++ {
		total, applies := addState(t, g, id)
		if total != 7 || applies != 1 {
			t.Errorf("member %d: total=%d applies=%d, want total=7 applies=1 (dedup)",
				id, total, applies)
		}
	}
}

func TestReplicaDeduplicatesBySequence(t *testing.T) {
	g := addGroup(t, Config{})
	rep := g.newReplica()
	cmd := encodeEnvelope(1, "add", encAdd(9))
	rep.apply(cmd)
	rep.apply(cmd) // duplicate commit of the same command
	sm := rep.machines["add"].(*addSM)
	if sm.total != 9 || sm.applies != 1 {
		t.Fatalf("total=%d applies=%d after duplicate apply, want total=9 applies=1",
			sm.total, sm.applies)
	}
	if got := binary.BigEndian.Uint64(rep.lastResp); got != 9 {
		t.Fatalf("lastResp = %d, want 9", got)
	}
}

func TestMachinesAreIsolated(t *testing.T) {
	g := addGroup(t, Config{Machines: map[string]func() StateMachine{
		"a": newAddSM,
		"b": newAddSM,
	}})
	if _, err := g.Propose("a", encAdd(5)); err != nil {
		t.Fatalf("Propose(a): %v", err)
	}
	if _, err := g.Propose("b", encAdd(7)); err != nil {
		t.Fatalf("Propose(b): %v", err)
	}
	check := func(name string, want uint64) {
		t.Helper()
		err := g.Query(name, func(sm StateMachine) error {
			if got := sm.(*addSM).total; got != want {
				t.Errorf("machine %s total = %d, want %d", name, got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Query(%s): %v", name, err)
		}
	}
	check("a", 5)
	check("b", 7)
}

func TestProposeFailsWithoutQuorum(t *testing.T) {
	g := addGroup(t, Config{MaxOpTicks: 50})
	if _, err := g.Propose("add", encAdd(1)); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	lead := g.Leader()
	for id := 0; id < g.Members(); id++ {
		if id != lead {
			if err := g.CrashMember(id); err != nil {
				t.Fatalf("CrashMember(%d): %v", id, err)
			}
		}
	}
	if _, err := g.Propose("add", encAdd(2)); err == nil {
		t.Fatal("Propose with quorum lost succeeded, want error")
	}
}

func TestUnknownMachineRejected(t *testing.T) {
	g := addGroup(t, Config{})
	if _, err := g.Propose("nope", nil); err == nil {
		t.Fatal("Propose to unknown machine succeeded")
	}
	if err := g.Query("nope", func(StateMachine) error { return nil }); err == nil {
		t.Fatal("Query of unknown machine succeeded")
	}
}

// keepSM keeps a view of every command it applies and answers with it:
// the most a machine may hold on to (StateMachine).
type keepSM struct{ cmds [][]byte }

func (s *keepSM) Apply(cmd []byte) []byte { s.cmds = append(s.cmds, cmd); return cmd }

func (s *keepSM) Snapshot() []byte {
	var b []byte
	for _, c := range s.cmds {
		b = AppendBytes(b, c)
	}
	return b
}

func (s *keepSM) Restore(snap []byte) {
	s.cmds = nil
	for d := NewDecoder(snap); len(d.Rest()) > 0 && d.Err() == nil; {
		s.cmds = append(s.cmds, d.Bytes())
	}
}

// reuseRun proposes 48 commands through one buffer across two leader
// crashes, their revivals and a partition that makes Propose re-propose
// to a new leader, compacting every few entries. With overwrite it fills
// the buffer with garbage after each Propose returns. It returns every
// response, read at the end, then each member's snapshot, and how many
// failovers and redirects the script caused.
func reuseRun(t *testing.T, overwrite bool) (out []byte, failovers, redirects int64) {
	t.Helper()
	reg := metrics.NewRegistry()
	g := addGroup(t, Config{CompactEvery: 4, Metrics: reg, Machines: map[string]func() StateMachine{
		"keep": func() StateMachine { return &keepSM{} },
	}})
	buf := make([]byte, 32)
	var resps [][]byte
	for step := 0; step < 48; step++ {
		switch step {
		case 10, 40:
			if err := g.CrashMember(-1); err != nil {
				t.Fatal(err)
			}
		case 20, 44:
			if err := g.ReviveMember(-1); err != nil {
				t.Fatal(err)
			}
		case 30:
			lead := g.Leader()
			var rest []int
			for id := 0; id < g.Members(); id++ {
				if id != lead {
					rest = append(rest, id)
				}
			}
			g.Partition([]int{lead}, rest)
		case 36:
			g.Heal()
		}
		payload := buf[:8+step%24]
		for i := range payload {
			payload[i] = byte(step + i)
		}
		resp, err := g.Propose("keep", payload)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		resps = append(resps, resp)
		if overwrite {
			for i := range buf {
				buf[i] = 0xff
			}
		}
	}
	settle(g, 40)
	for _, r := range resps {
		out = AppendBytes(out, r)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, rep := range g.reps {
		if rep == nil {
			t.Fatalf("member %d still down", id)
		}
		out = AppendBytes(out, rep.machines["keep"].Snapshot())
	}
	return out, reg.Counter("ha_failovers").Value(), reg.Counter("ha_redirects").Value()
}

// TestProposeDoesNotRetainPayload pins the contract the sharded
// coordinator's reused command buffers rely on: Propose copies the
// payload before it returns, on a re-proposal through a new leader and
// into every replica's log, snapshot and response. Overwriting the buffer
// after each call changes nothing any member or caller sees.
func TestProposeDoesNotRetainPayload(t *testing.T) {
	want, failovers, redirects := reuseRun(t, false)
	got, _, _ := reuseRun(t, true)
	if string(got) != string(want) {
		t.Fatal("overwriting the payload after Propose changed a response or a replica")
	}
	if failovers < 2 || redirects < 1 {
		t.Fatalf("the script caused %d failovers and %d redirects, want >= 2 and >= 1", failovers, redirects)
	}
}
