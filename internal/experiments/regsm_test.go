package experiments

import (
	"maps"
	"testing"

	"repro/internal/ha/hatest"
)

// FuzzRegSM: E-GRAY's register machine ignores short commands, restores
// any snapshot without panicking, and its own snapshot holds any key and
// value: restoring it gives back the same map. A put of key and value
// through regCmd, then a get of key, reads value back whatever bytes the
// two hold (a NUL in the key once split it into a shorter key and a
// longer value).
func FuzzRegSM(f *testing.F) {
	snap := func(m map[string]string) []byte { return (&regSM{m: m}).Snapshot() }
	bomb := []byte{0xff, 0xff, 0xff, 0xff}
	f.Add([]byte{}, regCmd('p', "k", "v"), regCmd('g', "k"), regCmd('d', "x"), "k", "v")
	f.Add(snap(map[string]string{"k": "v"}), []byte("p"), regCmd('p', "k"), []byte("g"), "", "")
	f.Add(snap(map[string]string{"a\x00b": "\x00\x01", "\x01": ""}), regCmd('p', "k\x01\x00v", "\x00\x01"),
		regCmd('p', "\x00", "\x00"), regCmd('d', "k\x01"), "a\x00b", "c")
	f.Add(bomb, append([]byte{'p'}, bomb...), regCmd('p', "k", "v")[:6], append(regCmd('p', "k"), bomb...), "k", "")
	fresh := func() *regSM { return &regSM{m: map[string]string{}} }
	f.Fuzz(func(t *testing.T, snap, a, b, c []byte, key, value string) {
		m := hatest.Check(t, fresh, snap, a, b, c)
		again := fresh()
		if again.Restore(m.Snapshot()); !maps.Equal(again.m, m.m) {
			t.Fatalf("restored %q from the snapshot of %q", again.m, m.m)
		}
		m.Apply(regCmd('p', key, value))
		if got := m.Apply(regCmd('g', key)); string(got) != "1"+value {
			t.Fatalf("put %q = %q, then get %q answered %q", key, value, key, got)
		}
	})
}
