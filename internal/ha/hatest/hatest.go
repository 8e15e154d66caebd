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

// Check restores snap (unless nil) into a fresh machine and applies cmds,
// neither of which may panic, and returns the machine. Of the state reached,
// snapshot → restore → snapshot must be a fixed point, and AppendSnapshot
// must append Snapshot's bytes behind an untouched prefix, with or without room.
func Check[M Machine](t testing.TB, fresh func() M, snap []byte, cmds ...[]byte) M {
	t.Helper()
	m, again := fresh(), fresh()
	if snap != nil {
		m.Restore(snap)
	}
	for _, cmd := range cmds {
		m.Apply(cmd)
	}
	once := m.Snapshot()
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
