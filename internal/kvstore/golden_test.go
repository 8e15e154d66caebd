package kvstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/ha"
	"repro/internal/rng"
)

// The golden streams pin the range and txn machines to the behaviour of
// the commit before they decoded in place: the constants below were
// recorded there, so a response or snapshot byte that differs is a
// behaviour change, whatever the current code thinks is right. The range
// sum was re-recorded once, when opcodes 0x0a and 0x0b were retired: it
// equals the old machine's stream with only those two arms removed. The
// directory sum was recorded on the commit before the replicated machines
// shared one decoder.
const (
	goldenFrames   = 3000
	goldenRangeSum = "b57aa4671e624bb4813aa2c115328b5a0152365896fda8b7a176c474b075695d"
	goldenTxnSum   = "10b9e03859f0ac449ff9a53624ad9f7396404eacf8eb56f513948dd4524f5b9e"
	goldenDirSum   = "ecd1edc51d119737f03f4d52bd72cc36554fc2140eb4423938f2aa8b2bcf88c1"
)

// mangle returns cmd as is, truncated, or with one bit flipped.
func mangle(r *rng.RNG, cmd []byte) []byte {
	switch x := r.Intn(10); {
	case x == 0 && len(cmd) > 1:
		return cmd[:1+r.Intn(len(cmd)-1)]
	case x == 1:
		out := append([]byte(nil), cmd...)
		out[r.Intn(len(out))] ^= 1 << r.Intn(8)
		return out
	}
	return cmd
}

func goldenKey(r *rng.RNG) string { return fmt.Sprintf("k%02d", r.Intn(24)) }

func goldenVal(r *rng.RNG) []byte {
	v := make([]byte, r.Intn(12))
	r.Bytes(v)
	return v
}

func goldenKeys(r *rng.RNG, max int) []string {
	var ks []string
	for n := r.Intn(max + 1); n > 0; n-- {
		ks = append(ks, goldenKey(r))
	}
	return ks
}

func goldenWrites(r *rng.RNG) []rmWrite {
	var ws []rmWrite
	for n := r.Intn(4); n > 0; n-- {
		w := rmWrite{Key: goldenKey(r), Del: r.Intn(4) == 0}
		if !w.Del {
			w.Val = goldenVal(r)
		}
		ws = append(ws, w)
	}
	return ws
}

func goldenPairs(r *rng.RNG) []kvPair {
	var ps []kvPair
	for n := r.Intn(4); n > 0; n-- {
		ps = append(ps, kvPair{key: goldenKey(r), rval: rval{val: goldenVal(r), ver: uint64(r.Intn(400)), dead: r.Intn(5) == 0}})
	}
	return ps
}

// goldenRangeCmd draws one well-formed range command. Bounds keep most
// keys owned (k02..k21 of k00..k23); a txn id stays in play for some 30
// frames and the watermark trails it, so prepares meet live locks,
// finished ids and retired ones.
func goldenRangeCmd(r *rng.RNG, i int) []byte {
	txn, closed, ver := uint64(4+i/5+r.Intn(6)), uint64(i/5), uint64(2*i+r.Intn(12))
	switch x := r.Intn(100); {
	case x < 22:
		return encRmPut(nil, goldenKey(r), goldenVal(r), ver)
	case x < 40:
		return encRmGet(nil, goldenKey(r), r.Intn(4) == 0)
	case x < 47:
		return encRmDel(nil, goldenKey(r), ver)
	case x < 65:
		return encRmPrepare(nil, txn, closed, r.Intn(5) == 0, goldenKeys(r, 3), goldenKeys(r, 3))
	case x < 80:
		return encRmApply(nil, txn, closed, ver, goldenWrites(r))
	case x < 88:
		return encRmAbort(nil, txn, closed)
	case x < 91:
		return encRmAdopt(nil, "k02", "k22", goldenPairs(r))
	case x < 93:
		return encRmFreeze(nil, goldenKey(r))
	case x < 95:
		return encRmTrim(nil, "k22")
	case x < 98:
		return retiredMigrate(goldenPairs(r))
	}
	return retiredTrimKeys(goldenPairs(r))
}

// retiredMigrate and retiredTrimKeys build the frames of the two opcodes
// the sharded repair sweep used to send: 0x0a carried pairs to upsert,
// 0x0b (key, maxVer) pairs to drop. The range machine now refuses both,
// and the streams and seeds that carried them still do, so a refusal
// that starts to mutate state is caught.
func retiredMigrate(pairs []kvPair) []byte { return appendPairs([]byte{0x0a}, pairs) }

func retiredTrimKeys(pairs []kvPair) []byte {
	b := binary.BigEndian.AppendUint32([]byte{0x0b}, uint32(len(pairs)))
	for _, p := range pairs {
		b = binary.BigEndian.AppendUint64(ha.AppendString(b, p.key), p.ver)
	}
	return b
}

// goldenTxnCmd draws one well-formed txn-table command. Ids slide
// upward; every third frame retires the id that just slid out of reach,
// so closedBelow advances and late begins are refused.
func goldenTxnCmd(r *rng.RNG, i int) []byte {
	id := uint64(8 + i/6 + r.Intn(5))
	if i%3 == 0 {
		return encTxDone(nil, uint64(i/6))
	}
	switch x := r.Intn(100); {
	case x < 8:
		return encTxBegin(nil, id-uint64(r.Intn(9)), nil, goldenWrites(r))
	case x < 35:
		var parts []uint64
		for n := r.Intn(4); n > 0; n-- {
			parts = append(parts, uint64(r.Intn(8)))
		}
		return encTxBegin(nil, id, parts, goldenWrites(r))
	case x < 55:
		return encTxCommit(nil, id, uint64(i))
	case x < 70:
		return encTxAbort(nil, id)
	}
	return encTxDone(nil, id)
}

// goldenDirCmd draws one well-formed directory command against m.
// Reserves mostly name a live range and the later phases mostly a pending
// change; the rest name any id up to m's next one, stale or unknown.
func goldenDirCmd(m *dirMachine, r *rng.RNG) []byte {
	id := uint64(r.Intn(int(m.nextID) + 2))
	if len(m.ranges) > 0 && r.Intn(4) != 0 {
		id = m.ranges[r.Intn(len(m.ranges))].ID
	}
	pending := id
	if n := len(m.pend); n > 0 && r.Intn(4) != 0 {
		if p := m.pend[r.Intn(n)]; p.Split {
			pending = p.New
		} else {
			pending = p.Old
		}
	}
	switch x := r.Intn(100); {
	case x < 3:
		var splits []string
		for _, k := range []string{"k06", "k12", "k18"} {
			if r.Intn(2) == 0 {
				splits = append(splits, k)
			}
		}
		return encDirInit(1+r.Intn(3), splits)
	case x < 25:
		return encDirSplitReserve(id, goldenKey(r))
	case x < 37:
		return encDirU64(dirOpMergeReserve, id)
	}
	ops := []byte{dirOpSplitCommit, dirOpSplitFinish, dirOpSplitAbort, dirOpMergeCommit, dirOpMergeFinish, dirOpMergeAbort}
	return encDirU64(ops[r.Intn(len(ops))], pending)
}

// goldenSum drives the frames through machines from fresh and hashes
// every response and each machine's final snapshot. A machine serves 250
// frames: one flipped bit in a watermark field retires every later
// transaction, and the stream should not spend itself on that.
func goldenSum(fresh func() ha.StateMachine, seed uint64, cmd func(*rng.RNG, int) []byte) string {
	r := rng.New(seed)
	h := sha256.New()
	var sm ha.StateMachine
	for i := 0; i < goldenFrames; i++ {
		if i%250 == 0 {
			if sm != nil {
				hashBlob(h, sm.Snapshot())
			}
			sm = fresh()
		}
		hashBlob(h, sm.Apply(mangle(r, cmd(r, i))))
	}
	hashBlob(h, sm.Snapshot())
	return hex.EncodeToString(h.Sum(nil))
}

func hashBlob(h hash.Hash, b []byte) {
	h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(b))))
	h.Write(b)
}

func TestGoldenRangeMachineStream(t *testing.T) {
	fresh := func() ha.StateMachine {
		m := newRangeMachine()
		m.Apply(encRmAdopt(nil, "k02", "k22", nil))
		return m
	}
	if got := goldenSum(fresh, 19, goldenRangeCmd); got != goldenRangeSum {
		t.Fatalf("range machine stream checksum = %s, want %s (recorded on the parent commit)", got, goldenRangeSum)
	}
}

// TestGoldenDirMachineStream starts each 250-frame machine from the last
// one's snapshot, so the directory's restore runs too. Commands are drawn
// against the machine's own state, which the checksum covers as well.
func TestGoldenDirMachineStream(t *testing.T) {
	var last *dirMachine
	fresh := func() ha.StateMachine {
		m := newDirMachine()
		if last == nil {
			m.Apply(encDirInit(2, []string{"k08", "k16"}))
		} else {
			m.Restore(last.Snapshot())
		}
		last = m
		return m
	}
	cmd := func(r *rng.RNG, _ int) []byte { return goldenDirCmd(last, r) }
	if got := goldenSum(fresh, 29, cmd); got != goldenDirSum {
		t.Fatalf("dir machine stream checksum = %s, want %s (recorded on the parent commit)", got, goldenDirSum)
	}
}

func TestGoldenTxnMachineStream(t *testing.T) {
	if got := goldenSum(func() ha.StateMachine { return newTxnMachine() }, 23, goldenTxnCmd); got != goldenTxnSum {
		t.Fatalf("txn machine stream checksum = %s, want %s (recorded on the parent commit)", got, goldenTxnSum)
	}
}
