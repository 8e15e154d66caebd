package chaos

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"
)

func TestParseRoundTrip(t *testing.T) {
	text := `
# warm-up, then carnage
2 crash 3
3 partition 0-3|4-7
5 heal
6 slow 1 40ms
7 flaky 2 0.8
9 degrade 5 4
10 undegrade 5
12 unflaky 2
13 unslow 1
14 revive 3
`
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 10 {
		t.Fatalf("parsed %d events, want 10", len(s))
	}
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", s, s2)
	}
	if s[1].Kind != Partition || len(s[1].Group) != 2 || len(s[1].Group[0]) != 4 {
		t.Fatalf("partition parsed wrong: %+v", s[1])
	}
	if s[3].Delay != 40*time.Millisecond {
		t.Fatalf("slow delay = %v", s[3].Delay)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"x crash 1",         // bad time
		"1 explode 2",       // unknown kind
		"1 crash",           // missing node
		"1 slow 1",          // missing duration
		"1 partition 0-3",   // one group
		"1 flaky 1 -0.5",    // negative prob
		"1 partition a-b|c", // garbage groups
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseRejectsOverlappingGroups: a node named in two groups would cut
// differently on the fabric (which refuses the spec) and on the consensus
// transport (where the last group wins), so Parse refuses it for both
// kinds that take groups. A node repeated inside one group is legal.
func TestParseRejectsOverlappingGroups(t *testing.T) {
	for _, bad := range []string{
		"1 partition 0-2|2-4",
		"1 partition 0,1|2|1",
		"1 partial-partition 0-3|3",
	} {
		if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "disjoint") {
			t.Errorf("Parse(%q) = %v, want a disjoint-groups error", bad, err)
		}
	}
	s, err := Parse("1 partition 0,0,1|2-3\n")
	if err != nil {
		t.Fatalf("repeat within one group refused: %v", err)
	}
	if got := groupsString(s[0].Group, "|"); got != "0,0,1|2,3" {
		t.Fatalf("groups = %s, want 0,0,1|2,3", got)
	}
}

// fakeTargets records the call sequence so tests can compare replays.
type fakeTargets struct{ log []string }

func (f *fakeTargets) Kill(n topology.NodeID) error {
	f.log = append(f.log, "kill", nodeString(n))
	return nil
}
func (f *fakeTargets) Revive(n topology.NodeID) error {
	f.log = append(f.log, "revive", nodeString(n))
	return nil
}
func (f *fakeTargets) SetSlowdown(n topology.NodeID, d time.Duration) error {
	f.log = append(f.log, "slow", nodeString(n), d.String())
	return nil
}
func (f *fakeTargets) KillNode(n topology.NodeID) error {
	f.log = append(f.log, "fskill", nodeString(n))
	return nil
}
func (f *fakeTargets) ReviveNode(n topology.NodeID) error {
	f.log = append(f.log, "fsrevive", nodeString(n))
	return nil
}
func (f *fakeTargets) SetPartition(groups ...[]topology.NodeID) error {
	f.log = append(f.log, "partition")
	return nil
}
func (f *fakeTargets) Heal() { f.log = append(f.log, "heal") }
func (f *fakeTargets) CutLink(src, dst topology.NodeID) {
	f.log = append(f.log, "cut", nodeString(src)+">"+nodeString(dst))
}
func (f *fakeTargets) HealLink(src, dst topology.NodeID) {
	f.log = append(f.log, "healink", nodeString(src)+">"+nodeString(dst))
}
func (f *fakeTargets) SetNodeDegrade(n topology.NodeID, v float64) {
	f.log = append(f.log, "degrade", nodeString(n))
}
func (f *fakeTargets) SetNodeFailProb(n topology.NodeID, p float64) {
	f.log = append(f.log, "flaky", nodeString(n))
}
func (f *fakeTargets) CorruptBlock(n topology.NodeID) error {
	f.log = append(f.log, "corrupt-block", nodeString(n))
	return nil
}
func (f *fakeTargets) CrashCoordinator() { f.log = append(f.log, "coord-crash") }
func (f *fakeTargets) CrashMember(id int) error {
	f.log = append(f.log, "nn-crash", strconv.Itoa(id))
	return nil
}
func (f *fakeTargets) ReviveMember(id int) error {
	f.log = append(f.log, "nn-revive", strconv.Itoa(id))
	return nil
}
func (f *fakeTargets) CrashWorker(id int) error {
	f.log = append(f.log, "stream-crash", nodeString(topology.NodeID(id)))
	return nil
}
func (f *fakeTargets) RestoreWorker(id int) error {
	f.log = append(f.log, "stream-restore", nodeString(topology.NodeID(id)))
	return nil
}

func targetsOf(f *fakeTargets) Targets {
	return Targets{Nodes: 8, Compute: f, Storage: f, Network: f, Engine: f, Stream: f}
}

func run(t *testing.T, sched Schedule, seed uint64, ticks int) ([]string, *metrics.Registry) {
	t.Helper()
	f := &fakeTargets{}
	reg := metrics.NewRegistry()
	c := New(sched, seed, targetsOf(f), reg)
	for i := 0; i < ticks; i++ {
		c.Tick()
	}
	return f.log, reg
}

func TestDeterministicReplay(t *testing.T) {
	sched, err := Parse("1 crash *\n2 slow * 5ms\n3 partition 0-3|4-7\n5 heal\n6 revive *\n7 unslow *\n")
	if err != nil {
		t.Fatal(err)
	}
	log1, reg1 := run(t, sched, 42, 10)
	log2, reg2 := run(t, sched, 42, 10)
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", log1, log2)
	}
	var p1, p2 strings.Builder
	if err := reg1.WritePrometheus(&p1); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WritePrometheus(&p2); err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Fatal("metric snapshots diverged under same seed")
	}
	// A different seed may pick different wildcard nodes, but the event
	// count and kinds are schedule-determined.
	log3, _ := run(t, sched, 7, 10)
	if len(log3) != len(log1) {
		t.Fatalf("event volume changed across seeds: %d vs %d", len(log3), len(log1))
	}
}

func TestWildcardPairing(t *testing.T) {
	sched, err := Parse("1 crash *\n5 revive *\n")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeTargets{}
	c := New(sched, 99, targetsOf(f), nil)
	c.AdvanceTo(10)
	// kill X ... revive X with the same X.
	if len(f.log) != 8 {
		t.Fatalf("log = %v", f.log)
	}
	if f.log[1] != f.log[5] {
		t.Fatalf("crash/revive wildcard unpaired: %v", f.log)
	}
	if !c.Done() {
		t.Fatal("controller not done after final event")
	}
}

func TestControllerCountersAndNilSafety(t *testing.T) {
	sched := Schedule{
		{At: 1, Kind: Partition, Group: [][]topology.NodeID{{0}, {1}}},
		{At: 2, Kind: Heal},
		{At: 3, Kind: Crash, Node: 0},
	}
	reg := metrics.NewRegistry()
	// All-nil targets: events must be skipped without panics.
	c := New(sched, 1, Targets{}, reg)
	c.AdvanceTo(5)
	if got := c.Applied(); got != 3 {
		t.Fatalf("Applied = %d, want 3", got)
	}
	if got := reg.Counter("partition_heals").Value(); got != 1 {
		t.Fatalf("partition_heals = %d", got)
	}
	crashes := reg.CounterVec("chaos_events_applied", "kind").With(string(Crash)).Value()
	if crashes != 1 {
		t.Fatalf("chaos_events_applied{crash} = %d", crashes)
	}
	if got := reg.Gauge("chaos_vtime").Value(); got != 5 {
		t.Fatalf("chaos_vtime = %d", got)
	}
	// A nil controller is a no-op host hook.
	var nc *Controller
	nc.Tick()
	nc.AdvanceTo(3)
	if nc.Now() != 0 || nc.Applied() != 0 || !nc.Done() {
		t.Fatal("nil controller misbehaved")
	}
}

func TestStreamEventKinds(t *testing.T) {
	sched, err := Parse("2 stream-crash 1\n5 stream-restore 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(sched.String()); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	f := &fakeTargets{}
	c := New(sched, 1, targetsOf(f), nil)
	c.AdvanceTo(6)
	want := []string{"stream-crash", "1", "stream-restore", "1"}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("log = %v, want %v", f.log, want)
	}
	// Wildcard restore pairs with the wildcard crash's worker.
	sched, err = Parse("1 stream-crash *\n4 stream-restore *\n")
	if err != nil {
		t.Fatal(err)
	}
	f = &fakeTargets{}
	New(sched, 7, targetsOf(f), nil).AdvanceTo(5)
	if len(f.log) != 4 || f.log[1] != f.log[3] {
		t.Fatalf("wildcard stream crash/restore unpaired: %v", f.log)
	}
	// The stream preset round-trips and stays out of the compute sweep.
	s, err := Preset("stream", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(s.String()); err != nil {
		t.Fatalf("stream preset round trip: %v", err)
	}
	for _, name := range PresetNames() {
		if name == "stream" {
			t.Fatal("stream preset leaked into the compute preset sweep")
		}
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		s, err := Preset(name, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		// Round-trippable through the text format.
		if _, err := Parse(s.String()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Preset("nope", 8); err == nil {
		t.Fatal("unknown preset accepted")
	}
	// Load resolves preset names and schedule text alike.
	if s, err := Load("crash", 8); err != nil || len(s) != 2 {
		t.Fatalf("Load preset: %v %v", s, err)
	}
	if s, err := Load("4 crash 2\n9 revive 2\n", 8); err != nil || len(s) != 2 {
		t.Fatalf("Load text: %v %v", s, err)
	}
}

// pinTargets wires one recording fake into every target surface.
func pinTargets(f *pinCalls) Targets {
	return Targets{
		Nodes: 8, Compute: f, Storage: f, Network: f, Consensus: pinRaft{f},
		Engine: f, Stream: f, KV: f, Namenode: f, Overload: f, Txn: f,
	}
}
