package chaos

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/trace"
)

// pinCalls records every call a controller makes on any target surface,
// in order, as "<surface>.<method> <args>". pinRaft is its consensus
// surface: Heal, CutLink and HealLink would collide with the network's.
type pinCalls struct{ log []string }

type pinRaft struct{ *pinCalls }

func (f *pinCalls) rec(call string, args ...any) {
	if len(args) > 0 {
		call += " " + strings.TrimSuffix(fmt.Sprintln(args...), "\n")
	}
	f.log = append(f.log, call)
}

func (f *pinCalls) Kill(n topology.NodeID) error   { f.rec("compute.Kill", n); return nil }
func (f *pinCalls) Revive(n topology.NodeID) error { f.rec("compute.Revive", n); return nil }
func (f *pinCalls) SetSlowdown(n topology.NodeID, d time.Duration) error {
	f.rec("compute.SetSlowdown", n, d)
	return nil
}
func (f *pinCalls) KillNode(n topology.NodeID) error   { f.rec("storage.KillNode", n); return nil }
func (f *pinCalls) ReviveNode(n topology.NodeID) error { f.rec("storage.ReviveNode", n); return nil }
func (f *pinCalls) CorruptBlock(n topology.NodeID) error {
	f.rec("storage.CorruptBlock", n)
	return nil
}
func (f *pinCalls) SetPartition(groups ...[]topology.NodeID) error {
	f.rec("network.SetPartition", groups)
	return nil
}
func (f *pinCalls) Heal() { f.rec("network.Heal") }
func (f *pinCalls) SetNodeDegrade(n topology.NodeID, v float64) {
	f.rec("network.SetNodeDegrade", n, v)
}
func (f *pinCalls) CutLink(s, d topology.NodeID)  { f.rec("network.CutLink", s, d) }
func (f *pinCalls) HealLink(s, d topology.NodeID) { f.rec("network.HealLink", s, d) }
func (f *pinCalls) SetNodeFailProb(n topology.NodeID, p float64) {
	f.rec("engine.SetNodeFailProb", n, p)
}
func (f *pinCalls) CrashCoordinator()                   { f.rec("engine.CrashCoordinator") }
func (f *pinCalls) CrashWorker(id int) error            { f.rec("stream.CrashWorker", id); return nil }
func (f *pinCalls) RestoreWorker(id int) error          { f.rec("stream.RestoreWorker", id); return nil }
func (f *pinCalls) FailNode(n topology.NodeID) error    { f.rec("kv.FailNode", n); return nil }
func (f *pinCalls) RecoverNode(n topology.NodeID) error { f.rec("kv.RecoverNode", n); return nil }
func (f *pinCalls) CrashMember(id int) error            { f.rec("namenode.CrashMember", id); return nil }
func (f *pinCalls) ReviveMember(id int) error           { f.rec("namenode.ReviveMember", id); return nil }
func (f *pinCalls) SetBurst(v float64)                  { f.rec("overload.SetBurst", v) }
func (f *pinCalls) SetTenantFlood(tenant int, v float64) {
	f.rec("overload.SetTenantFlood", tenant, v)
}
func (f *pinCalls) OrphanNext(point string) error { f.rec("txn.OrphanNext", point); return nil }
func (f *pinCalls) Recover() error                { f.rec("txn.Recover"); return nil }

func (r pinRaft) Crash(id int)              { r.rec("raft.Crash", id) }
func (r pinRaft) Restart(id int)            { r.rec("raft.Restart", id) }
func (r pinRaft) Partition(groups ...[]int) { r.rec("raft.Partition", groups) }
func (r pinRaft) Heal()                     { r.rec("raft.Heal") }
func (r pinRaft) CutLink(from, to int)      { r.rec("raft.CutLink", from, to) }
func (r pinRaft) HealLink(from, to int)     { r.rec("raft.HealLink", from, to) }

// TestKindDispatchPinned fires each kind's canonical text line (and each
// wildcard undo pair) against a fake wired into every target surface and
// pins three things: the target calls in order, the timeline track of
// every instant the controller records, and the chaos_events_applied
// labels it counts.
func TestKindDispatchPinned(t *testing.T) {
	cases := []struct {
		text   string
		calls  []string
		tracks []string // "<kind>@<track>", sorted
		labels []string // chaos_events_applied samples
	}{
		{"1 crash 3",
			[]string{"compute.Kill 3", "storage.KillNode 3", "raft.Crash 3", "kv.FailNode 3"},
			[]string{"crash@node-03"}, []string{`{kind="crash"} 1`}},
		{"1 revive 3",
			[]string{"compute.Revive 3", "storage.ReviveNode 3", "raft.Restart 3", "kv.RecoverNode 3"},
			[]string{"revive@node-03"}, []string{`{kind="revive"} 1`}},
		{"1 partition 0-1|2-3",
			[]string{"network.SetPartition [[0 1] [2 3]]", "raft.Partition [[0 1] [2 3]]"},
			[]string{"partition@network"}, []string{`{kind="partition"} 1`}},
		{"1 heal",
			[]string{"network.Heal", "raft.Heal"},
			[]string{"heal@network"}, []string{`{kind="heal"} 1`}},
		{"1 slow 1 40ms",
			[]string{"compute.SetSlowdown 1 40ms"},
			[]string{"slow@node-01"}, []string{`{kind="slow"} 1`}},
		{"1 unslow 1",
			[]string{"compute.SetSlowdown 1 0s"},
			[]string{"unslow@node-01"}, []string{`{kind="unslow"} 1`}},
		{"1 flaky 2 0.8",
			[]string{"engine.SetNodeFailProb 2 0.8"},
			[]string{"flaky@node-02"}, []string{`{kind="flaky"} 1`}},
		{"1 unflaky 2",
			[]string{"engine.SetNodeFailProb 2 0"},
			[]string{"unflaky@node-02"}, []string{`{kind="unflaky"} 1`}},
		{"1 degrade 5 4",
			[]string{"network.SetNodeDegrade 5 4"},
			[]string{"degrade@node-05"}, []string{`{kind="degrade"} 1`}},
		{"1 undegrade 5",
			[]string{"network.SetNodeDegrade 5 1"},
			[]string{"undegrade@node-05"}, []string{`{kind="undegrade"} 1`}},
		{"1 stream-crash 2",
			[]string{"stream.CrashWorker 2"},
			[]string{"stream-crash@stream-worker-02"}, []string{`{kind="stream-crash"} 1`}},
		{"1 stream-restore 2",
			[]string{"stream.RestoreWorker 2"},
			[]string{"stream-restore@stream-worker-02"}, []string{`{kind="stream-restore"} 1`}},
		{"1 nn-crash leader",
			[]string{"namenode.CrashMember -1"},
			[]string{"nn-crash@ha"}, []string{`{kind="nn-crash"} 1`}},
		{"1 nn-revive 1",
			[]string{"namenode.ReviveMember 1"},
			[]string{"nn-revive@ha"}, []string{`{kind="nn-revive"} 1`}},
		{"1 coord-crash",
			[]string{"engine.CrashCoordinator"},
			[]string{"coord-crash@driver"}, []string{`{kind="coord-crash"} 1`}},
		{"1 corrupt-block 4",
			[]string{"storage.CorruptBlock 4"},
			[]string{"corrupt-block@node-04"}, []string{`{kind="corrupt-block"} 1`}},
		{"1 burst 3",
			[]string{"overload.SetBurst 3"},
			[]string{"burst@clients"}, []string{`{kind="burst"} 1`}},
		{"1 unburst",
			[]string{"overload.SetBurst 1"},
			[]string{"unburst@clients"}, []string{`{kind="unburst"} 1`}},
		{"1 tenant-flood 1 5",
			[]string{"overload.SetTenantFlood 1 5"},
			[]string{"tenant-flood@tenant-01"}, []string{`{kind="tenant-flood"} 1`}},
		{"1 unflood 1",
			[]string{"overload.SetTenantFlood 1 1"},
			[]string{"unflood@tenant-01"}, []string{`{kind="unflood"} 1`}},
		{"1 txn-crash commit",
			[]string{"txn.OrphanNext commit"},
			[]string{"txn-crash@txn"}, []string{`{kind="txn-crash"} 1`}},
		{"1 txn-recover",
			[]string{"txn.Recover"},
			[]string{"txn-recover@txn"}, []string{`{kind="txn-recover"} 1`}},
		{"1 link-cut 0,1 2",
			[]string{"network.CutLink 0 2", "raft.CutLink 0 2", "network.CutLink 1 2", "raft.CutLink 1 2"},
			[]string{"link-cut@network"}, []string{`{kind="link-cut"} 1`}},
		{"1 link-heal 0,1 2",
			[]string{"network.HealLink 0 2", "raft.HealLink 0 2", "network.HealLink 1 2", "raft.HealLink 1 2"},
			[]string{"link-heal@network"}, []string{`{kind="link-heal"} 1`}},
		{"1 partial-partition 0|2-3",
			[]string{
				"network.CutLink 0 2", "raft.CutLink 0 2", "network.CutLink 0 3", "raft.CutLink 0 3",
				"network.CutLink 2 0", "raft.CutLink 2 0", "network.CutLink 3 0", "raft.CutLink 3 0",
			},
			[]string{"partial-partition@network"}, []string{`{kind="partial-partition"} 1`}},
		{"1 flap 0 1 1",
			[]string{"network.CutLink 0 1", "raft.CutLink 0 1"},
			[]string{"flap@network"}, []string{`{kind="flap"} 1`}},
		{"1 flap 0 1 1\n2 unflap 0 1",
			[]string{"network.CutLink 0 1", "raft.CutLink 0 1", "network.HealLink 0 1", "raft.HealLink 0 1"},
			[]string{"flap@network", "unflap@network"}, []string{`{kind="flap"} 1`, `{kind="unflap"} 1`}},
		// Wildcards: each undo kind reuses the node its starting kind drew.
		{"1 crash *\n2 revive *",
			[]string{
				"compute.Kill 5", "storage.KillNode 5", "raft.Crash 5", "kv.FailNode 5",
				"compute.Revive 5", "storage.ReviveNode 5", "raft.Restart 5", "kv.RecoverNode 5",
			},
			[]string{"crash@node-05", "revive@node-05"}, []string{`{kind="crash"} 1`, `{kind="revive"} 1`}},
		{"1 slow * 5ms\n2 unslow *",
			[]string{"compute.SetSlowdown 5 5ms", "compute.SetSlowdown 5 0s"},
			[]string{"slow@node-05", "unslow@node-05"}, []string{`{kind="slow"} 1`, `{kind="unslow"} 1`}},
		{"1 flaky * 0.5\n2 unflaky *",
			[]string{"engine.SetNodeFailProb 5 0.5", "engine.SetNodeFailProb 5 0"},
			[]string{"flaky@node-05", "unflaky@node-05"}, []string{`{kind="flaky"} 1`, `{kind="unflaky"} 1`}},
		{"1 degrade * 2\n2 undegrade *",
			[]string{"network.SetNodeDegrade 5 2", "network.SetNodeDegrade 5 1"},
			[]string{"degrade@node-05", "undegrade@node-05"}, []string{`{kind="degrade"} 1`, `{kind="undegrade"} 1`}},
		{"1 stream-crash *\n2 stream-restore *",
			[]string{"stream.CrashWorker 5", "stream.RestoreWorker 5"},
			[]string{"stream-crash@stream-worker-05", "stream-restore@stream-worker-05"},
			[]string{`{kind="stream-crash"} 1`, `{kind="stream-restore"} 1`}},
		// Interleaved pairs keep one memory per starting kind; a kind with
		// no undo role draws afresh.
		{"1 crash *\n2 slow * 5ms\n3 revive *\n4 unslow *\n5 unflaky *",
			[]string{
				"compute.Kill 5", "storage.KillNode 5", "raft.Crash 5", "kv.FailNode 5",
				"compute.SetSlowdown 2 5ms",
				"compute.Revive 5", "storage.ReviveNode 5", "raft.Restart 5", "kv.RecoverNode 5",
				"compute.SetSlowdown 2 0s",
				"engine.SetNodeFailProb 4 0",
			},
			[]string{"crash@node-05", "revive@node-05", "slow@node-02", "unflaky@node-04", "unslow@node-02"},
			[]string{`{kind="crash"} 1`, `{kind="revive"} 1`, `{kind="slow"} 1`, `{kind="unflaky"} 1`, `{kind="unslow"} 1`}},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.text, "\n", ";"), func(t *testing.T) {
			sched, err := Parse(tc.text)
			if err != nil {
				t.Fatal(err)
			}
			f := &pinCalls{}
			reg := metrics.NewRegistry()
			rec := trace.New()
			c := New(sched, 1, pinTargets(f), reg)
			c.SetTracer(rec)
			c.AdvanceTo(sched[len(sched)-1].At)

			var tracks []string
			for _, s := range rec.Spans() {
				if s.Instant {
					tracks = append(tracks, s.Args["kind"]+"@"+s.Track)
				}
			}
			sort.Strings(tracks)
			var prom strings.Builder
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			var labels []string
			for _, line := range strings.Split(prom.String(), "\n") {
				if l, ok := strings.CutPrefix(line, "chaos_events_applied{"); ok {
					labels = append(labels, "{"+l)
				}
			}
			sort.Strings(labels)

			if !reflect.DeepEqual(f.log, tc.calls) {
				t.Errorf("calls:\n got %q\nwant %q", f.log, tc.calls)
			}
			if !reflect.DeepEqual(tracks, tc.tracks) {
				t.Errorf("tracks:\n got %q\nwant %q", tracks, tc.tracks)
			}
			if !reflect.DeepEqual(labels, tc.labels) {
				t.Errorf("labels:\n got %q\nwant %q", labels, tc.labels)
			}
		})
	}
}

// TestPresetTextPinned pins every preset's schedule, as text, at three
// cluster sizes.
func TestPresetTextPinned(t *testing.T) {
	want := map[string]string{
		"crash/2":       "2 crash 1\n8 revive 1\n",
		"crash/3":       "2 crash 1\n8 revive 1\n",
		"crash/8":       "2 crash 4\n8 revive 4\n",
		"partition/2":   "2 partition 0|1\n6 heal\n",
		"partition/3":   "2 partition 0|1,2\n6 heal\n",
		"partition/8":   "2 partition 0,1,2,3|4,5,6,7\n6 heal\n",
		"straggler/2":   "1 slow 1 25ms\n12 unslow 1\n",
		"straggler/3":   "1 slow 2 25ms\n12 unslow 2\n",
		"straggler/8":   "1 slow 7 25ms\n12 unslow 7\n",
		"flaky/2":       "1 flaky 1 0.8\n10 unflaky 1\n",
		"flaky/3":       "1 flaky 1 0.8\n10 unflaky 1\n",
		"flaky/8":       "1 flaky 4 0.8\n10 unflaky 4\n",
		"mixed/2":       "1 slow 1 20ms\n2 flaky 1 0.9\n3 crash 1\n4 partition 0|1\n6 heal\n8 revive 1\n10 unflaky 1\n14 unslow 1\n",
		"mixed/3":       "1 slow 2 20ms\n2 flaky 1 0.9\n3 crash 1\n4 partition 0|1,2\n6 heal\n8 revive 1\n10 unflaky 1\n14 unslow 2\n",
		"mixed/8":       "1 slow 7 20ms\n2 flaky 4 0.9\n3 crash 1\n4 partition 0,1,2,3|4,5,6,7\n6 heal\n8 revive 1\n10 unflaky 4\n14 unslow 7\n",
		"stream/2":      "4 stream-crash 1\n10 stream-restore 1\n",
		"stream/3":      "4 stream-crash 1\n10 stream-restore 1\n",
		"stream/8":      "4 stream-crash 4\n10 stream-restore 4\n",
		"nn-crash/2":    "2 nn-crash leader\n4 nn-revive leader\n",
		"nn-crash/3":    "2 nn-crash leader\n4 nn-revive leader\n",
		"nn-crash/8":    "2 nn-crash leader\n4 nn-revive leader\n",
		"coord-crash/2": "4 coord-crash\n",
		"coord-crash/3": "4 coord-crash\n",
		"coord-crash/8": "4 coord-crash\n",
		"ha/2":          "2 nn-crash leader\n4 coord-crash\n5 nn-revive leader\n",
		"ha/3":          "2 nn-crash leader\n4 coord-crash\n5 nn-revive leader\n",
		"ha/8":          "2 nn-crash leader\n4 coord-crash\n5 nn-revive leader\n",
		"overload/2":    "2 burst 3\n4 tenant-flood 0 5\n5 degrade 1 4\n8 undegrade 1\n9 unflood 0\n10 unburst\n",
		"overload/3":    "2 burst 3\n4 tenant-flood 0 5\n5 degrade 1 4\n8 undegrade 1\n9 unflood 0\n10 unburst\n",
		"overload/8":    "2 burst 3\n4 tenant-flood 0 5\n5 degrade 4 4\n8 undegrade 4\n9 unflood 0\n10 unburst\n",
		"txn/2":         "2 txn-crash before-commit\n4 txn-recover\n6 txn-crash commit\n8 txn-recover\n",
		"txn/3":         "2 txn-crash before-commit\n4 txn-recover\n6 txn-crash commit\n8 txn-recover\n",
		"txn/8":         "2 txn-crash before-commit\n4 txn-recover\n6 txn-crash commit\n8 txn-recover\n",
		"gray/2":        "2 link-cut 0 1\n8 link-heal 0 1\n10 flap 0 1 0.3\n16 unflap 0 1\n18 partial-partition 0|1\n24 heal\n",
		"gray/3":        "2 link-cut 0,1 2\n8 link-heal 0,1 2\n10 flap 0,1 2 0.3\n16 unflap 0,1 2\n18 partial-partition 0|2\n24 heal\n",
		"gray/8":        "2 link-cut 0,1,2,3,4,5,6 7\n8 link-heal 0,1,2,3,4,5,6 7\n10 flap 0,1,2,3,4,5,6 7 0.3\n16 unflap 0,1,2,3,4,5,6 7\n18 partial-partition 0|7\n24 heal\n",
	}
	for key, text := range want {
		var name string
		var n int
		if _, err := fmt.Sscanf(strings.Replace(key, "/", " ", 1), "%s %d", &name, &n); err != nil {
			t.Fatal(err)
		}
		s, err := Preset(name, n)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got := s.String(); got != text {
			t.Errorf("%s:\n got %q\nwant %q", key, got, text)
		}
	}
}
