package experiments

import (
	"maps"
	"testing"

	"repro/internal/ha/hatest"
)

// FuzzRegSM: E-GRAY's register machine ignores short commands, restores
// any snapshot without panicking, and its own snapshot holds keys and
// values with NUL and the escape byte in them: restoring it gives back the
// same map.
func FuzzRegSM(f *testing.F) {
	f.Add([]byte{}, []byte("p\x00k\x00v"), []byte("g\x00k"), []byte("d\x00x"))
	f.Add([]byte("k\x00v\x00"), []byte("p"), []byte("p\x00k"), []byte("g"))
	f.Add([]byte("a\x01\x01b\x00\x01\x02\x00\x01"), []byte("p\x00k\x01\x00v\x00\x01"), []byte("p\x00\x00\x00"), []byte("d\x00k\x01"))
	fresh := func() *regSM { return &regSM{m: map[string]string{}} }
	f.Fuzz(func(t *testing.T, snap, a, b, c []byte) {
		m := hatest.Check(t, fresh, snap, a, b, c)
		again := fresh()
		if again.Restore(m.Snapshot()); !maps.Equal(again.m, m.m) {
			t.Fatalf("restored %q from the snapshot of %q", again.m, m.m)
		}
	})
}
