package dfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ha"
	"repro/internal/ha/hatest"
	"repro/internal/topology"
)

// The namenode decoders read counts from snapshots and command responses;
// a count must be checked against the bytes left before it sizes or
// drives anything. Each input claims 2^32-1 elements where a handful of
// bytes remain (decodeMoves used to die with "fatal error: runtime: out of
// memory", restore to append zero values up to 2^32 times).

var bomb = []byte{0xff, 0xff, 0xff, 0xff}

func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// stateHeader is a snapshot's fixed prefix: next block id, placement RNG.
var stateHeader = make([]byte, 8+4*8)

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func u32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

func emptyState() *nameState { return newNameState(Config{Topology: topology.TwoTier(1, 2, 1)}) }

func restored(snap []byte) int {
	st := emptyState()
	st.restore(snap)
	n := len(st.alive) + len(st.files) + len(st.blocks)
	for _, f := range st.files {
		n += len(f.blocks)
	}
	for _, bm := range st.blocks {
		n += len(bm.replicas)
	}
	return n
}

// rejected is how many elements a decoder returned, or -1 if it took the
// input without an error.
func rejected[T any](out []T, err error) int {
	if err == nil {
		return -1
	}
	return len(out)
}

func TestCountBombsRejectedBeforeAllocating(t *testing.T) {
	noFile, oneBlock := make([]byte, 4+4+8), make([]byte, 8+8)
	for _, tc := range []struct {
		name   string
		decode func() int // elements decoded, -1 for a decoder error missed
	}{
		{"moves", func() int { return rejected(decodeMoves(bomb)) }},
		{"sealed replicas", func() int { _, rs, err := decodeSealed(cat(make([]byte, 8), bomb)); return rejected(rs, err) }},
		{"freed blocks", func() int { return rejected(decodeFreed(bomb)) }},
		{"freed replicas", func() int { return rejected(decodeFreed(cat(u32(1), make([]byte, 8), bomb))) }},
		{"alive", func() int { return restored(cat(stateHeader, bomb)) }},
		{"files", func() int { return restored(cat(stateHeader, u32(0), bomb)) }},
		{"file blocks", func() int { return restored(cat(stateHeader, u32(0), u32(1), noFile, bomb)) }},
		{"blocks", func() int { return restored(cat(stateHeader, u32(0), u32(0), bomb)) }},
		{"block replicas", func() int { return restored(cat(stateHeader, u32(0), u32(0), u32(1), oneBlock, bomb)) }},
	} {
		var n int
		if got := allocated(func() { n = tc.decode() }); got >= 16<<10 || n < 0 || n > 2 {
			t.Errorf("%s: decoded %d elements, allocated %d bytes", tc.name, n, got)
		}
	}
}

func FuzzDecodeMoves(f *testing.F) {
	f.Add(encodeMoves([]moveRef{{id: 3, src: -1, dst: 4, length: 64}, {id: 9, src: 2, dst: 0, length: 1}})[1:])
	f.Add(encodeMoves(nil)[1:])
	f.Add(bomb)
	f.Fuzz(func(t *testing.T, payload []byte) {
		plan, err := decodeMoves(payload)
		if err != nil {
			return
		}
		if again := encodeMoves(plan)[1:]; !bytes.HasPrefix(payload, again) {
			t.Fatalf("re-encoding % x gives % x", payload, again)
		}
	})
}

func emptyMachine() *nameMachine { return &nameMachine{st: emptyState()} }

// FuzzNameStateRestore: whatever the namenode restores, its snapshot
// restores to the same snapshot.
func FuzzNameStateRestore(f *testing.F) {
	d := newTestDFS(16, 2)
	for i := 0; i < 3; i++ {
		writeFile(f, d, fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{byte(i)}, 40))
	}
	snap := d.meta.metaBackend.(*localMeta).m.st.appendSnapshot(nil)
	f.Add(snap)
	f.Add(snap[:len(snap)-5])
	f.Add(cat(stateHeader, bomb))
	f.Add(cat(stateHeader, u32(0), u32(0), bomb))
	f.Fuzz(func(t *testing.T, snap []byte) {
		hatest.Check(t, emptyMachine, snap)
	})
}

// FuzzNameMachineApply: any three commands, on a namenode that starts
// empty. A restored one may name nodes outside its topology, so it gets
// no commands.
func FuzzNameMachineApply(f *testing.F) {
	create := binary.BigEndian.AppendUint32(ha.AppendString([]byte{opCreate}, "/f"), 2)
	seal := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(ha.AppendString([]byte{opSeal}, "/f"), 0), 40)
	node1 := binary.BigEndian.AppendUint64(nil, 1)
	f.Add(create, seal, ha.AppendString([]byte{opDelete}, "/f"))
	f.Add(create, seal, append([]byte{opSetAlive}, append(node1, 0)...))
	f.Add(seal, append([]byte{opDecommission}, node1...), []byte{opRereplicate})
	f.Add(create, seal, binary.BigEndian.AppendUint64([]byte{opBalance}, math.Float64bits(0.05)))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		hatest.Check(t, emptyMachine, nil, a, b, c)
	})
}
