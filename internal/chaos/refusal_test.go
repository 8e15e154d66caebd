package chaos

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"
)

// refusingTargets records calls like pinCalls, but its fabric refuses
// every partition, its storage every corruption, its compute every
// slowdown and its stream every worker crash and restore.
type refusingTargets struct{ *pinCalls }

var errRefused = errors.New("refused by the fake target")

func (f refusingTargets) SetPartition(groups ...[]topology.NodeID) error {
	f.rec("network.SetPartition", groups)
	return errRefused
}

func (f refusingTargets) CorruptBlock(n topology.NodeID) error {
	f.rec("storage.CorruptBlock", n)
	return errRefused
}

func (f refusingTargets) SetSlowdown(n topology.NodeID, d time.Duration) error {
	f.rec("compute.SetSlowdown", n, d)
	return errRefused
}

func (f refusingTargets) CrashWorker(id int) error {
	f.rec("stream.CrashWorker", id)
	return errRefused
}

func (f refusingTargets) RestoreWorker(id int) error {
	f.rec("stream.RestoreWorker", id)
	return errRefused
}

// TestTargetRefusalsCounted: a partition the fabric refuses, a corruption
// the storage refuses, a slowdown the compute target refuses and a worker
// crash or restore the stream refuses are counted refused, not applied, and
// Controller.Err keeps the first refusal; a refused partition never
// reaches Raft, so the fabric and the consensus layer cannot disagree.
func TestTargetRefusalsCounted(t *testing.T) {
	for _, tc := range []struct {
		kind  Kind
		text  string
		calls []string
	}{
		{Partition, "1 partition 0,1|2,3", []string{"network.SetPartition [[0 1] [2 3]]"}},
		{CorruptBlock, "1 corrupt-block 4", []string{"storage.CorruptBlock 4"}},
		{Slow, "1 slow 3 5ms", []string{"compute.SetSlowdown 3 5ms"}},
		{Unslow, "1 unslow 3", []string{"compute.SetSlowdown 3 0s"}},
		{StreamCrash, "1 stream-crash 2", []string{"stream.CrashWorker 2"}},
		{StreamRestore, "1 stream-restore 2", []string{"stream.RestoreWorker 2"}},
	} {
		sched, err := Parse(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		f := &pinCalls{}
		targets := pinTargets(f)
		refusing := refusingTargets{f}
		targets.Network, targets.Storage, targets.Compute, targets.Stream = refusing, refusing, refusing, refusing
		reg := metrics.NewRegistry()
		c := New(sched, 1, targets, reg)
		c.AdvanceTo(2)
		count := func(name string) int64 { return reg.CounterVec(name, "kind").With(string(tc.kind)).Value() }
		if applied, refused := count("chaos_events_applied"), count("chaos_events_refused"); applied != 0 || refused != 1 {
			t.Errorf("%q: applied %d, refused %d; want 0 and 1", tc.text, applied, refused)
		}
		if err := c.Err(); !errors.Is(err, errRefused) || !strings.Contains(err.Error(), tc.text+" refused") {
			t.Errorf("%q: Err() = %v, want the target's refusal naming the event", tc.text, err)
		}
		if !reflect.DeepEqual(f.log, tc.calls) {
			t.Errorf("%q: calls %q, want %q", tc.text, f.log, tc.calls)
		}
	}

	// Both refused in one run: each is counted, Err keeps the first, and
	// the events after them still apply.
	sched, err := Parse("1 partition 0,1|2,3\n2 corrupt-block 4\n3 heal\n")
	if err != nil {
		t.Fatal(err)
	}
	f := &pinCalls{}
	targets := pinTargets(f)
	targets.Network, targets.Storage = refusingTargets{f}, refusingTargets{f}
	reg := metrics.NewRegistry()
	c := New(sched, 1, targets, reg)
	c.AdvanceTo(4)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "partition 0,1|2,3 refused") {
		t.Errorf("Err() = %v, want the partition's refusal", err)
	}
	refused := reg.CounterVec("chaos_events_refused", "kind")
	applied := reg.CounterVec("chaos_events_applied", "kind")
	if refused.With(string(Partition)).Value() != 1 || refused.With(string(CorruptBlock)).Value() != 1 || applied.With(string(Heal)).Value() != 1 {
		t.Errorf("refused partition %d, corrupt-block %d; applied heal %d; want 1 each",
			refused.With(string(Partition)).Value(), refused.With(string(CorruptBlock)).Value(), applied.With(string(Heal)).Value())
	}
}
