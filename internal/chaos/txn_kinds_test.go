package chaos

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/metrics"
)

func (f *fakeTargets) OrphanNext(point string) error {
	f.log = append(f.log, "orphan", point)
	return nil
}
func (f *fakeTargets) Recover() error {
	f.log = append(f.log, "recover")
	return nil
}

func TestTxnEventKinds(t *testing.T) {
	sched, err := Parse("2 txn-crash before-commit\n4 txn-recover\n6 txn-crash split-copy\n8 txn-recover\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(sched.String()); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	f := &fakeTargets{}
	targets := targetsOf(f)
	targets.Txn = f
	New(sched, 1, targets, nil).AdvanceTo(10)
	want := []string{"orphan", "before-commit", "recover", "orphan", "split-copy", "recover"}
	if !reflect.DeepEqual(f.log, want) {
		t.Fatalf("log = %v, want %v", f.log, want)
	}

	// Absent target: events are silently skipped, never panic.
	New(sched, 1, targetsOf(&fakeTargets{}), nil).AdvanceTo(10)

	// The strict parser rejects malformed txn lines.
	for _, bad := range []string{
		"1 txn-crash",              // missing point
		"1 txn-crash commit extra", // trailing junk
		"1 txn-recover commit",     // takes no arguments
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestTxnPresetHiddenFromComputeSweeps(t *testing.T) {
	sched, err := Preset("txn", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 4 {
		t.Fatalf("txn preset has %d events, want 4", len(sched))
	}
	for _, name := range PresetNames() {
		if name == "txn" {
			t.Fatal("txn preset leaked into PresetNames")
		}
	}
	// Load resolves it like any named preset.
	if _, err := Load("txn", 8); err != nil {
		t.Fatalf("Load(txn): %v", err)
	}
	if !strings.Contains(sched.String(), "txn-crash before-commit") {
		t.Fatalf("preset text missing crash point:\n%s", sched.String())
	}
}

// TestTxnCrashPointRefusedByStore: the parser takes any point name and
// kvstore.Sharded alone knows the valid ones, so a misspelled point is
// counted refused, with the store's error kept, and a valid one applied.
func TestTxnCrashPointRefusedByStore(t *testing.T) {
	for _, tc := range []struct {
		text    string
		refused bool
	}{
		{"1 txn-crash splt-copy", true},
		{"1 txn-crash split-copy", false},
	} {
		sched, err := Parse(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		c := New(sched, 1, Targets{Txn: kvstore.NewSharded(kvstore.ShardedConfig{Seed: 1})}, reg)
		c.AdvanceTo(2)
		count := func(name string) int64 { return reg.CounterVec(name, "kind").With(string(TxnCrash)).Value() }
		applied, refused := count("chaos_events_applied"), count("chaos_events_refused")
		switch err := c.Err(); {
		case !tc.refused && (err != nil || applied != 1 || refused != 0):
			t.Errorf("%q: applied %d, refused %d, error %v; want applied", tc.text, applied, refused, err)
		case tc.refused && (err == nil || applied != 0 || refused != 1):
			t.Errorf("%q: applied %d, refused %d, error %v; want refused", tc.text, applied, refused, err)
		case tc.refused && !strings.Contains(err.Error(), tc.text+" refused: kvstore: unknown crash point"):
			t.Errorf("%q: error %q names neither the event nor the store's reason", tc.text, err)
		}
	}
}
