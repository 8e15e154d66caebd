package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ha"
)

// The closed-below watermark: the txn table tells every transaction
// which ids are retired for good, ranges forget finished transactions
// below it, and so neither state nor snapshots grow with history. All
// assertions here are counts and bytes — no wall clock.

// rangeState reads one range machine on its group's leader.
func rangeState(t *testing.T, s *Sharded, id uint64, fn func(*rangeMachine)) {
	t.Helper()
	if err := s.queryRange(id, fn); err != nil {
		t.Fatalf("query range %d: %v", id, err)
	}
}

func tableClosedBelow(t *testing.T, s *Sharded) (low uint64) {
	t.Helper()
	err := s.groups[0].Query(txnMachineName, func(sm ha.StateMachine) error {
		low = sm.(*txnMachine).closedBelow()
		return nil
	})
	if err != nil {
		t.Fatalf("query txn table: %v", err)
	}
	return low
}

// mustTxn commits one 2-key transaction writing val to both keys.
func mustTxn(t *testing.T, s *Sharded, k1, k2, val string) {
	t.Helper()
	if _, err := s.Txn(bg(), []string{k1, k2}, map[string][]byte{k1: []byte(val), k2: []byte(val)}); err != nil {
		t.Fatalf("Txn(%s,%s): %v", k1, k2, err)
	}
}

func TestWatermarkBoundsRangeState(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"k08"}})
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		mustPut(t, s, keys[i], "seed-val")
	}
	type sizes struct{ snap, done, table int }
	measure := func() []sizes {
		var out []sizes
		for _, r := range s.Ranges() {
			rangeState(t, s, r.ID, func(m *rangeMachine) {
				out = append(out, sizes{snap: len(m.Snapshot()), done: len(m.done)})
			})
		}
		err := s.groups[0].Query(txnMachineName, func(sm ha.StateMachine) error {
			out[0].table = len(sm.Snapshot())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	run := func(from, to int) {
		for i := from; i < to; i++ {
			// Every third transaction stays inside one range.
			mustTxn(t, s, keys[i%16], keys[(i+5+i%3)%16], "txn-val!")
		}
	}
	run(0, 500)
	at500 := measure()
	run(500, 5000)
	at5000 := measure()
	for i := range at500 {
		if at500[i] != at5000[i] {
			t.Errorf("range %d: sizes after 500 txns %+v, after 5000 %+v — state grows with history", i, at500[i], at5000[i])
		}
		if at5000[i].done > 1 {
			t.Errorf("range %d remembers %d finished txns at rest, want at most its last", i, at5000[i].done)
		}
	}
	if low := tableClosedBelow(t, s); low != 5001 {
		t.Errorf("closedBelow after 5000 txns = %d, want 5001", low)
	}
	compactions, built := s.Reg.Counter("ha_compactions").Value(), s.Reg.Counter("ha_snapshots_built").Value()
	if compactions == 0 || built >= compactions || s.Reg.Counter("ha_snapshot_bytes").Value() == 0 {
		t.Errorf("ha_compactions = %d, ha_snapshots_built = %d: want compactions, mostly served by a shared snapshot", compactions, built)
	}
}

func TestWatermarkRangeTreatsLowerIdsAsFinished(t *testing.T) {
	m := newRangeMachine()
	m.Apply(encRmAdopt(nil, "", "", nil))
	w := func(k, v string) []rmWrite { return []rmWrite{{Key: k, Val: []byte(v)}} }
	if r := m.Apply(encRmPrepare(nil, 7, 7, false, []string{"a"}, nil)); r[0] != rspOK {
		t.Fatalf("prepare 7 = %d", r[0])
	}
	if r := m.Apply(encRmApply(nil, 7, 7, 1, w("a", "seven"))); r[0] != rspOK {
		t.Fatalf("apply 7 = %d", r[0])
	}
	if m.done[7] != txnApplied {
		t.Fatal("txn 7 not remembered while at the watermark")
	}
	// Txn 9's begin saw 7 and 8 retired: its commands carry closed = 9.
	if r := m.Apply(encRmPrepare(nil, 9, 9, false, []string{"b"}, nil)); r[0] != rspOK {
		t.Fatalf("prepare 9 = %d", r[0])
	}
	if m.closed != 9 || len(m.done) != 0 {
		t.Fatalf("after closed=9: watermark %d, done %v; want 9 and empty", m.closed, m.done)
	}
	before := m.Snapshot()
	// A late prepare of retired txn 8 (its own, older closed value) must
	// not lock anything, and replays of 7 must change nothing.
	if r := m.Apply(encRmPrepare(nil, 8, 8, false, []string{"c"}, []string{"a"})); r[0] != rspAborted {
		t.Fatalf("prepare below watermark = %d, want rspAborted", r[0])
	}
	if r := m.Apply(encRmApply(nil, 7, 7, 5, w("a", "replayed"))); r[0] != rspOK {
		t.Fatalf("replayed apply below watermark = %d, want rspOK", r[0])
	}
	if r := m.Apply(encRmAbort(nil, 7, 7)); r[0] != rspOK {
		t.Fatalf("replayed abort below watermark = %d, want rspOK", r[0])
	}
	if r := m.Apply(encRmAbort(nil, 8, 0)); r[0] != rspOK {
		t.Fatalf("abort below watermark = %d, want rspOK", r[0])
	}
	if !bytes.Equal(before, m.Snapshot()) {
		t.Fatal("commands below the watermark changed range state")
	}
	if m.lockCount() != 1 || m.locks["b"] != 9 {
		t.Fatalf("locks = %v, want only b held by 9", m.locks)
	}
	// An abort that was lost when its record was retired and commits only
	// now, below the watermark, still frees the lock it was sent to free.
	m.locks["stuck"] = 4
	if r := m.Apply(encRmAbort(nil, 4, 4)); r[0] != rspOK || m.lockCount() != 1 || len(m.done) != 0 {
		t.Fatalf("late abort of 4 = %d, locks %v, done %v; want OK, lock freed, nothing remembered", r[0], m.locks, m.done)
	}
	// A malformed command must not move the watermark either.
	if r := m.Apply(encRmAbort(nil, 50, 50)[:12]); r[0] != rspConflict || m.closed != 9 {
		t.Fatalf("truncated abort = %d, watermark %d", r[0], m.closed)
	}
}

func TestWatermarkTableRefusesLateBegin(t *testing.T) {
	m := newTxnMachine()
	closed := func(r []byte) uint64 { return ha.NewDecoder(r[1:]).U64() }
	if r := m.Apply(encTxBegin(nil, 5, nil, nil)); r[0] != rspOK || closed(r) != 5 {
		t.Fatalf("begin 5 = % x, want OK closedBelow 5", r)
	}
	if r := m.Apply(encTxBegin(nil, 8, nil, nil)); r[0] != rspOK || closed(r) != 5 {
		t.Fatalf("begin 8 = % x, want OK closedBelow 5 (5 still live)", r)
	}
	if r := m.Apply(encTxBegin(nil, 6, nil, nil)); r[0] != rspOK || closed(r) != 5 {
		t.Fatalf("begin 6 between live ids = % x, want OK", r)
	}
	if r := m.Apply(encTxBegin(nil, 3, nil, nil)); r[0] != rspAborted || closed(r) != 5 {
		t.Fatalf("begin 3 below a live id = % x, want refused with 5", r)
	}
	m.Apply(encTxDone(nil, 5))
	m.Apply(encTxDone(nil, 6))
	if r := m.Apply(encTxBegin(nil, 8, nil, nil)); r[0] != rspOK || closed(r) != 8 {
		t.Fatalf("re-begin of live 8 = % x, want OK closedBelow 8", r)
	}
	m.Apply(encTxDone(nil, 8))
	if r := m.Apply(encTxBegin(nil, 8, nil, nil)); r[0] != rspAborted || closed(r) != 9 || m.recordCount() != 0 {
		t.Fatalf("begin of retired 8 = % x with %d records, want refused with 9 and none", r, m.recordCount())
	}
	restored := newTxnMachine()
	restored.Restore(m.Snapshot())
	if restored.closedBelow() != 9 {
		t.Fatalf("closedBelow after Restore = %d, want 9", restored.closedBelow())
	}
}

func TestWatermarkCoordinatorRetriesRefusedBegin(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
	mustTxn(t, s, "aa", "zz", "first")  // txn 1
	mustTxn(t, s, "aa", "zz", "second") // txn 2: closedBelow is 3 now
	// A coordinator that drew its id long ago (here: the allocator wound
	// back) begins after later ids closed it: refused, twice, then fine.
	s.mu.Lock()
	s.nextTxn = 0
	s.mu.Unlock()
	mustTxn(t, s, "aa", "zz", "late")
	if got := s.Reg.Counter("txn_retries").Value(); got != 2 {
		t.Errorf("txn_retries = %d, want 2 (ids 1 and 2 refused, 3 accepted)", got)
	}
	if n, err := s.PendingTxnRecords(); err != nil || n != 0 {
		t.Errorf("records after refused+retried begins = (%d, %v), want 0", n, err)
	}
	if low := tableClosedBelow(t, s); low != 4 {
		t.Errorf("closedBelow = %d, want 4 (the retry ran as txn 3)", low)
	}
	if v, _ := mustGet(t, s, "zz"); v != "late" {
		t.Errorf("zz = %q, want the retried transaction's write", v)
	}
	if n, err := s.LockCount(); err != nil || n != 0 {
		t.Errorf("locks = (%d, %v), want 0", n, err)
	}
}

// TestStalePutRetriesUnderFreshVersion pins the fix for the isolation
// hole behind the flaky strict-serializability verdicts: a Put whose
// version was drawn before a transaction locked, read, wrote and
// unlocked the key used to lose last-writer-wins silently — reported
// OK, visible to nobody, and unseen by the transaction it preceded.
func TestStalePutRetriesUnderFreshVersion(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
	stale := s.nextVersion() // a put draws its version, then stalls
	mustTxn(t, s, "aa", "zz", "txn")
	r := s.Ranges()[0]
	resp, _, err := s.propose(r.Group, s.machineName(r.ID), encRmPut(nil, "aa", []byte("late"), stale))
	if err != nil || resp[0] != rspStale {
		t.Fatalf("put below the cell's version = (% x, %v), want rspStale", resp, err)
	}
	if resp, _, _ := s.propose(r.Group, s.machineName(r.ID), encRmDel(nil, "aa", stale)); resp[0] != rspStale {
		t.Fatalf("delete below the cell's version = % x, want rspStale", resp)
	}
	if v, _ := mustGet(t, s, "aa"); v != "txn" {
		t.Fatalf("aa = %q after refused stale writes, want txn", v)
	}
	// The coordinator's loop draws a fresh version and lands after the txn.
	s.mu.Lock()
	s.clock = stale - 1
	s.mu.Unlock()
	mustPut(t, s, "aa", "retried")
	if v, _ := mustGet(t, s, "aa"); v != "retried" {
		t.Fatalf("aa = %q, want the retried put", v)
	}
	if got := s.Reg.Counter("sharded_stale_retries").Value(); got == 0 {
		t.Error("sharded_stale_retries = 0, want the refused attempts counted")
	}
}

func TestWatermarkPinnedByOrphanUntilRecovery(t *testing.T) {
	for _, point := range []string{"begin", "prepare", "before-commit", "commit", "apply"} {
		t.Run(point, func(t *testing.T) {
			s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
			mustTxn(t, s, "a0", "z0", "v") // txn 1
			orphanTxn(t, s, point, nil, map[string][]byte{"a1": []byte("o"), "z1": []byte("o")})
			const orphan = 2
			for i := 0; i < 20; i++ {
				mustTxn(t, s, "a2", "z2", fmt.Sprint(i))
			}
			if low := tableClosedBelow(t, s); low != orphan {
				t.Fatalf("closedBelow with txn %d orphaned = %d, want pinned", orphan, low)
			}
			for _, r := range s.Ranges() {
				rangeState(t, s, r.ID, func(m *rangeMachine) {
					if m.closed > orphan || len(m.done) < 20 {
						t.Errorf("range %d: watermark %d, %d remembered; want pinned at <= %d with all 20 kept",
							r.ID, m.closed, len(m.done), orphan)
					}
				})
			}
			if _, err := s.RecoverTxns(); err != nil {
				t.Fatal(err)
			}
			mustTxn(t, s, "a2", "z2", "after") // txn 23 carries the advanced watermark
			if low := tableClosedBelow(t, s); low != 24 {
				t.Fatalf("closedBelow after recovery = %d, want 24", low)
			}
			for _, r := range s.Ranges() {
				rangeState(t, s, r.ID, func(m *rangeMachine) {
					if m.closed != 23 || len(m.done) != 1 {
						t.Errorf("range %d after recovery: watermark %d, done %v; want 23 and only txn 23", r.ID, m.closed, m.done)
					}
				})
			}
			if n, err := s.LockCount(); err != nil || n != 0 {
				t.Errorf("locks after recovery = (%d, %v), want 0", n, err)
			}
		})
	}
}

func TestWatermarkSurvivesSnapshotRebuildAndSplit(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{Seed: 9, Groups: 1, InitialSplits: []string{"k50"}})
	for i := 0; i < 40; i++ { // ~280 proposals: every member compacts
		mustTxn(t, s, "k10", "k60", fmt.Sprint(i))
	}
	// Snapshot/Restore carries the watermark and re-encodes identically.
	rangeState(t, s, s.Ranges()[0].ID, func(m *rangeMachine) {
		snap := m.Snapshot()
		r := newRangeMachine()
		r.Restore(snap)
		if r.closed != 40 || !bytes.Equal(r.Snapshot(), snap) {
			t.Errorf("restored watermark %d (want 40), snapshot equal = %v", r.closed, bytes.Equal(r.Snapshot(), snap))
		}
	})

	victim := (s.Group(0).Leader() + 1) % 3
	if err := s.Group(0).CrashMember(victim); err != nil {
		t.Fatal(err)
	}
	mustTxn(t, s, "k10", "k60", "while-down") // txn 41
	if err := s.Group(0).ReviveMember(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Group(0).CrashMember(-1); err != nil { // fail over, possibly onto the rebuilt member
		t.Fatal(err)
	}
	for _, r := range s.Ranges() {
		rangeState(t, s, r.ID, func(m *rangeMachine) {
			if m.closed != 41 {
				t.Errorf("range %d watermark after rebuild+failover = %d, want 41", r.ID, m.closed)
			}
		})
		// A straggler prepare of a long-retired transaction is refused by
		// whichever member leads now.
		resp, _, err := s.propose(0, s.machineName(r.ID), encRmPrepare(nil, 7, 7, false, []string{r.Start}, nil))
		if err != nil || resp[0] != rspAborted {
			t.Errorf("late prepare on range %d = (% x, %v), want rspAborted", r.ID, resp, err)
		}
	}
	if low := tableClosedBelow(t, s); low != 42 {
		t.Errorf("closedBelow after rebuild+failover = %d, want 42", low)
	}

	// A split's new range starts with no watermark and learns it from the
	// first transaction command it sees.
	if err := s.Split("k80"); err != nil {
		t.Fatal(err)
	}
	fresh := s.Ranges()[2].ID
	rangeState(t, s, fresh, func(m *rangeMachine) {
		if m.closed != 0 {
			t.Errorf("new range starts with watermark %d, want 0", m.closed)
		}
	})
	mustTxn(t, s, "k10", "k90", "post-split") // txn 42
	rangeState(t, s, fresh, func(m *rangeMachine) {
		if m.closed != 42 || len(m.done) != 1 {
			t.Errorf("new range after its first txn: watermark %d, done %v; want 42 and only txn 42", m.closed, m.done)
		}
	})
	if n, err := s.LockCount(); err != nil || n != 0 {
		t.Errorf("locks = (%d, %v), want 0", n, err)
	}
}
