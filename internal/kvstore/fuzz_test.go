package kvstore

import (
	"bytes"
	"testing"

	"repro/internal/ha/hatest"
)

// The replicated machines decode bytes that came out of a Raft log or a
// snapshot: whatever they are, every replica must survive them and land
// in a state that serializes canonically.

// frames packs commands as one fuzz input: a length byte, then the
// command (the seed commands are all shorter than 256 bytes).
func frames(cmds ...[]byte) []byte {
	var out []byte
	for _, c := range cmds {
		out = append(append(out, byte(len(c))), c...)
	}
	return out
}

// eachFrame undoes frames, tolerating any input.
func eachFrame(data []byte, fn func(cmd []byte)) {
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		fn(data[1 : 1+n])
		data = data[1+n:]
	}
}

// checkSizedExactly asserts that m's own snapshot buffer is sized exactly.
func checkSizedExactly(t *testing.T, m *rangeMachine) {
	t.Helper()
	if snap := m.Snapshot(); len(snap) != cap(snap) {
		t.Fatalf("snapshot buffer: len %d, cap %d; want sized exactly", len(snap), cap(snap))
	}
}

// applyOnReplicas applies data's frames to a machine and holds a second
// one to it, frame by frame, that is rebuilt by Restore(Snapshot()) before
// every frame. Both must give the same responses and end in the same
// snapshot. The same commands then go through the snapshot conformance
// check, which holds a fresh twin to the machine too. Replicas answer with
// shared status slices and keep views of their commands and snapshots, and
// none of that may show. It returns the first machine; after, if not nil,
// inspects it following each frame.
func applyOnReplicas[M hatest.Machine](t *testing.T, data []byte, fresh func() M, after func(m M, cmd []byte)) M {
	t.Helper()
	var cmds [][]byte
	m, rebuilt := fresh(), fresh()
	eachFrame(data, func(cmd []byte) {
		cmds = append(cmds, cmd)
		resp := m.Apply(cmd)
		if len(resp) == 0 {
			t.Fatalf("Apply(% x) returned no status", cmd)
		}
		snap := rebuilt.Snapshot()
		rebuilt = fresh()
		rebuilt.Restore(snap)
		if got := rebuilt.Apply(cmd); !bytes.Equal(got, resp) {
			t.Fatalf("Apply(% x): a restored replica answered % x, the first % x", cmd, got, resp)
		}
		if after != nil {
			after(m, cmd)
		}
	})
	snap := m.Snapshot()
	if other := rebuilt.Snapshot(); !bytes.Equal(other, snap) {
		t.Fatalf("a replica restored along the way snapshots differently:\n% x\n% x", snap, other)
	}
	hatest.Check(t, fresh, nil, cmds...)
	for code, resp := range status {
		if len(resp) != 1 || resp[0] != byte(code) {
			t.Fatalf("shared status response %d was written: now % x", code, resp)
		}
	}
	return m
}

func FuzzRangeMachineApply(f *testing.F) {
	pairs := []kvPair{{key: "b", rval: rval{val: []byte("vb"), ver: 3}}, {key: "x", rval: rval{ver: 4, dead: true}}}
	writes := []rmWrite{{Key: "a", Val: []byte("w")}, {Key: "b", Del: true}}
	f.Add(frames(encRmAdopt(nil, "", "", nil), encRmPut(nil, "a", []byte("v"), 1), encRmPut(nil, "a", []byte("v2"), 2),
		encRmGet(nil, "a", false), encRmGet(nil, "a", true), encRmDel(nil, "a", 9)))
	f.Add(frames(encRmAdopt(nil, "a", "m", pairs), encRmPrepare(nil, 7, 7, false, []string{"a", "b"}, []string{"b"}),
		encRmApply(nil, 7, 7, 5, writes), encRmPrepare(nil, 9, 9, true, []string{"c"}, nil), encRmAbort(nil, 9, 9),
		encRmPrepare(nil, 8, 8, false, []string{"d"}, nil), encRmApply(nil, 7, 0, 6, writes)))
	f.Add(frames(encRmAdopt(nil, "", "", pairs), encRmFreeze(nil, "k"), encRmTrim(nil, "k"), retiredMigrate(pairs),
		retiredTrimKeys(pairs), encRmPut(nil, "zz", nil, 2)))
	f.Add([]byte{3, rmOpAbort, 0, 0, 1, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := applyOnReplicas(t, data, newRangeMachine, nil)
		for id := range m.done {
			if id < m.closed {
				t.Fatalf("done remembers txn %d below the watermark %d", id, m.closed)
			}
		}
		checkSizedExactly(t, m)
	})
}

func FuzzRangeMachineRestore(f *testing.F) {
	m := newRangeMachine()
	f.Add(m.Snapshot())
	m.Apply(encRmAdopt(nil, "a", "q", []kvPair{{key: "b", rval: rval{val: []byte("vb"), ver: 3}}}))
	m.Apply(encRmPut(nil, "b", []byte("newer"), 4))
	m.Apply(encRmDel(nil, "c", 5))
	m.Apply(encRmPrepare(nil, 7, 6, false, []string{"d", "e"}, nil))
	m.Apply(encRmAbort(nil, 6, 6))
	m.Apply(encRmFreeze(nil, "k"))
	f.Add(m.Snapshot())
	f.Add(m.Snapshot()[:20])
	f.Fuzz(func(t *testing.T, snap []byte) {
		checkSizedExactly(t, hatest.Check(t, newRangeMachine, snap, encRmGet(nil, "b", true)))
	})
}

func FuzzTxnMachineApply(f *testing.F) {
	writes := []rmWrite{{Key: "a", Val: []byte("w")}, {Key: "b", Del: true}}
	f.Add(frames(encTxBegin(nil, 1, []uint64{0, 1}, writes), encTxCommit(nil, 1, 10), encTxAbort(nil, 1), encTxDone(nil, 1)))
	f.Add(frames(encTxBegin(nil, 5, []uint64{2}, nil), encTxBegin(nil, 3, nil, nil), encTxAbort(nil, 5), encTxCommit(nil, 5, 2),
		encTxBegin(nil, 6, nil, writes), encTxDone(nil, 5), encTxBegin(nil, 5, nil, nil)))
	f.Add([]byte{2, txOpBegin, 0, 9, txOpDone, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var low uint64
		applyOnReplicas(t, data, newTxnMachine, func(m *txnMachine, cmd []byte) {
			now := m.closedBelow()
			if now < low {
				t.Fatalf("closedBelow fell from %d to %d after % x", low, now, cmd)
			}
			low = now
		})
	})
}

func FuzzDirMachineApply(f *testing.F) {
	f.Add(frames(encDirInit(2, []string{"g", "p"}), encDirSplitReserve(1, "k"), encDirU64(dirOpSplitCommit, 3),
		encDirU64(dirOpSplitFinish, 3), encDirU64(dirOpMergeReserve, 0), encDirU64(dirOpMergeCommit, 0),
		encDirU64(dirOpMergeFinish, 0)))
	f.Add(frames(encDirInit(3, nil), encDirSplitReserve(0, "m"), encDirU64(dirOpSplitAbort, 1),
		encDirU64(dirOpMergeReserve, 0), encDirU64(dirOpMergeAbort, 0), encDirInit(1, []string{"a"})))
	f.Fuzz(func(t *testing.T, data []byte) {
		applyOnReplicas(t, data, newDirMachine, nil)
	})
}

func FuzzDirMachineRestore(f *testing.F) {
	m := newDirMachine()
	f.Add(m.Snapshot())
	m.Apply(encDirInit(2, []string{"g", "p"}))
	m.Apply(encDirSplitReserve(1, "k"))
	m.Apply(encDirU64(dirOpMergeReserve, 0))
	f.Add(m.Snapshot())
	f.Add(m.Snapshot()[:30])
	f.Fuzz(func(t *testing.T, snap []byte) {
		hatest.Check(t, newDirMachine, snap, encDirU64(dirOpSplitCommit, 3), encDirSplitReserve(0, "c"))
	})
}

// Every command is one allocation, exactly its size: the single-key
// encoders and all the others.
func TestSingleKeyEncodersSizeExactly(t *testing.T) {
	pairs := []kvPair{{key: "b", rval: rval{val: []byte("vb"), ver: 3}}, {key: "x", rval: rval{ver: 4, dead: true}}}
	writes := []rmWrite{{Key: "a", Val: []byte("w")}, {Key: "bb", Del: true}}
	for _, cmd := range [][]byte{
		encRmPut(nil, "key", []byte("value"), 7), encRmPut(nil, "", nil, 0), encRmGet(nil, "key", true), encRmDel(nil, "key", 9),
		encRmPrepare(nil, 7, 6, true, []string{"a", "bb"}, []string{"bb"}), encRmPrepare(nil, 7, 6, false, nil, nil),
		encRmApply(nil, 7, 6, 5, writes), encRmApply(nil, 7, 6, 5, nil), encRmAbort(nil, 7, 6),
		encRmAdopt(nil, "a", "m", pairs), encRmAdopt(nil, "", "", nil), encRmFreeze(nil, "k"), encRmTrim(nil, "k"),
		encTxBegin(nil, 1, []uint64{0, 1}, writes), encTxBegin(nil, 1, nil, nil), encTxCommit(nil, 1, 10), encTxAbort(nil, 1), encTxDone(nil, 1),
	} {
		if len(cmd) != cap(cmd) {
			t.Errorf("command % x: len %d, cap %d; want sized exactly", cmd, len(cmd), cap(cmd))
		}
	}
}
