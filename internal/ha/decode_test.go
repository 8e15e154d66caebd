package ha

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ha/hatest"
)

// Decoders read counts from bytes that arrive in snapshots and log
// entries; a count must be checked against the bytes left before it sizes
// anything. These inputs claim 2^32-1 elements in four bytes (the journal
// one used to die with "fatal error: runtime: out of memory").

var bomb = []byte{0xff, 0xff, 0xff, 0xff}

func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func blobReplica() *replica {
	return &replica{
		machines: map[string]StateMachine{},
		dynamic:  func(string) StateMachine { return &blobSM{} },
	}
}

func TestCountBombsRejectedBeforeAllocating(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decode func() int // what was decoded
	}{
		{"journal restore", func() int {
			j := &JournalMachine{}
			j.Restore(bomb)
			return len(j.recs)
		}},
		{"replica restore", func() int {
			r := blobReplica()
			r.restore(append(make([]byte, 12), bomb...))
			return len(r.machines)
		}},
		{"envelope machine name", func() int {
			_, name, _, _ := decodeEnvelope(append(make([]byte, 8), bomb...))
			return len(name)
		}},
	} {
		// The least of five calls: TotalAlloc is process-wide, so another
		// goroutine's allocations may land in any one of them, while a
		// decoder that sizes the bomb allocates it on every call.
		var n int
		got := uint64(math.MaxUint64)
		for range 5 {
			got = min(got, allocated(func() { n = tc.decode() }))
		}
		if got >= 4<<10 || n != 0 {
			t.Errorf("%s: decoded %d elements, allocated %d bytes", tc.name, n, got)
		}
	}
}

func FuzzDecodeEnvelope(f *testing.F) {
	f.Add(encodeEnvelope(1, "add", encAdd(9)))
	f.Add(encodeEnvelope(1<<40, "range-7", nil))
	f.Add(append(make([]byte, 8), bomb...))
	f.Fuzz(func(t *testing.T, cmd []byte) {
		seq, name, payload, err := decodeEnvelope(cmd)
		if err != nil {
			return
		}
		if again := encodeEnvelope(seq, string(name), payload); !bytes.Equal(again, cmd) {
			t.Fatalf("re-encoding % x gives % x", cmd, again)
		}
	})
}

// FuzzReplicaRestore: whatever a replica restores, its snapshot restores
// to the same snapshot.
func FuzzReplicaRestore(f *testing.F) {
	g := blobGroup(nil)
	for v := 0; v < 5; v++ {
		if _, err := g.Propose(fmt.Sprintf("m-%d", v%3), []byte(fmt.Sprintf("value %d", v))); err != nil {
			f.Fatal(err)
		}
	}
	snap := g.reps[0].snapshot(nil)
	f.Add(snap)
	f.Add(snap[:len(snap)-3])
	f.Add(append(make([]byte, 12), bomb...))
	f.Fuzz(func(t *testing.T, snap []byte) {
		r := blobReplica()
		r.restore(snap)
		once := r.snapshot(nil)
		again := blobReplica()
		again.restore(once)
		if twice := again.snapshot(nil); !bytes.Equal(once, twice) {
			t.Fatalf("restore is not a fixed point:\n% x\n% x", once, twice)
		}
	})
}

func FuzzJournalRestore(f *testing.F) {
	j := &JournalMachine{}
	for i := 0; i < 3; i++ {
		j.Apply([]byte(fmt.Sprintf("stage %d done", i)))
	}
	f.Add(j.Snapshot())
	f.Add(j.Snapshot()[:9])
	f.Add(bomb)
	f.Fuzz(func(t *testing.T, snap []byte) {
		hatest.Check(t, func() *JournalMachine { return &JournalMachine{} }, snap, []byte("one more"))
	})
}
