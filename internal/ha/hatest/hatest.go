// Package hatest is the snapshot check every replicated machine's fuzz target runs.
package hatest

import (
	"bytes"
	"testing"
)

// Machine is ha.StateMachine with ha.SnapshotAppender, restated so ha's tests can import hatest.
type Machine interface {
	Apply(cmd []byte) []byte
	Snapshot() []byte
	AppendSnapshot(dst []byte) []byte
	Restore(snap []byte)
}

// Check restores snap (unless nil) into two fresh replicas and applies
// cmds to both, none of which may panic; the replicas must answer alike and
// end in the same snapshot. It returns the first. Of the state reached,
// snapshot → restore → snapshot must be a fixed point, and AppendSnapshot
// must append Snapshot's bytes behind an untouched prefix, with or without room.
func Check[M Machine](t testing.TB, fresh func() M, snap []byte, cmds ...[]byte) M {
	t.Helper()
	m, twin, again := fresh(), fresh(), fresh()
	if snap != nil {
		m.Restore(snap)
		twin.Restore(snap)
	}
	for _, cmd := range cmds {
		if resp, got := m.Apply(cmd), twin.Apply(cmd); !bytes.Equal(got, resp) {
			t.Fatalf("Apply(% x): a second replica answered % x, the first % x", cmd, got, resp)
		}
	}
	once := m.Snapshot()
	if other := twin.Snapshot(); !bytes.Equal(other, once) {
		t.Fatalf("replicas of one command sequence snapshot differently:\n% x\n% x", once, other)
	}
	if again.Restore(once); !bytes.Equal(again.Snapshot(), once) {
		t.Fatalf("snapshot → restore → snapshot is not a fixed point:\n% x\n% x", once, again.Snapshot())
	}
	for _, spare := range []int{0, len(once)} {
		prefix := append(make([]byte, 0, 6+spare), "prefix"...)
		if out := m.AppendSnapshot(prefix); string(prefix) != "prefix" || !bytes.Equal(out, append([]byte("prefix"), once...)) {
			t.Fatalf("AppendSnapshot with %d spare bytes = % x, want \"prefix\" and % x", spare, out, once)
		}
	}
	return m
}
