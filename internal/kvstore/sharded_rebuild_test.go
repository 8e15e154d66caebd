package kvstore

// Member crash/rebuild and error-path coverage for the sharded plane:
// a revived group member must reconstruct every machine type (range
// cells + locks, directory, transaction records) from its compaction
// snapshot plus the committed log tail, and the client surface must
// fail typed — not hang — when orphaned locks or expired budgets block
// an operation.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/ha"
)

// TestShardedMemberRebuildFromSnapshot drives enough traffic through a
// single group to force log compaction (CompactEvery proposals), with
// an orphaned transaction's locks and record parked in the replicated
// state, then crashes a follower, revives it (snapshot Restore + log
// catch-up) and fails the leader over — possibly onto the rebuilt
// member. Every write, both tombstones and the orphan resolution must
// survive the rebuild.
func TestShardedMemberRebuildFromSnapshot(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{Seed: 9, Groups: 1, InitialSplits: []string{"k50"}})

	// Park an orphaned cross-range transaction: record pending, locks
	// held on k10 and k60 — state the snapshot must carry.
	if err := s.OrphanNext("before-commit"); err != nil {
		t.Fatal(err)
	}
	_, err := s.Txn(bg(), nil, map[string][]byte{
		"k10": []byte("orphan"), "k60": []byte("orphan"),
	})
	if !errors.Is(err, ErrTxnOrphaned) {
		t.Fatalf("orphaned txn = %v, want ErrTxnOrphaned", err)
	}

	// Well past the default CompactEvery (128) so every member compacts
	// and records a state-machine snapshot of dir + ranges + txn table.
	for i := 0; i < 70; i++ {
		mustPut(t, s, fmt.Sprintf("a%02d", i), fmt.Sprintf("lo%d", i))
		mustPut(t, s, fmt.Sprintf("z%02d", i), fmt.Sprintf("hi%d", i))
	}
	if err := s.Delete(bg(), "a01"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(bg(), "z01"); err != nil {
		t.Fatal(err)
	}

	leader := s.Group(0).Leader()
	victim := (leader + 1) % 3
	if err := s.Group(0).CrashMember(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // traffic the rebuilt member must catch up on
		mustPut(t, s, fmt.Sprintf("c%02d", i), fmt.Sprintf("mid%d", i))
	}
	if err := s.Group(0).ReviveMember(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Group(0).CrashMember(-1); err != nil { // failover off the old leader
		t.Fatal(err)
	}

	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.LockCount(); err != nil || n != 0 {
		t.Fatalf("locks after rebuild+recovery = (%d, %v), want 0", n, err)
	}
	if n, err := s.PendingTxnRecords(); err != nil || n != 0 {
		t.Fatalf("txn records after rebuild+recovery = (%d, %v), want 0", n, err)
	}
	for _, key := range []string{"k10", "k60", "a01", "z01"} {
		if _, found := mustGet(t, s, key); found {
			t.Fatalf("%s present after rebuild; aborted/deleted state leaked", key)
		}
	}
	for i := 0; i < 10; i++ {
		if v, _ := mustGet(t, s, fmt.Sprintf("c%02d", i)); v != fmt.Sprintf("mid%d", i) {
			t.Fatalf("c%02d = %q after rebuild, want mid%d", i, v, i)
		}
	}
	if v, _ := mustGet(t, s, "a42"); v != "lo42" {
		t.Fatalf("a42 = %q after rebuild, want lo42", v)
	}
	if v, _ := mustGet(t, s, "z42"); v != "hi42" {
		t.Fatalf("z42 = %q after rebuild, want hi42", v)
	}
	rs := s.Ranges()
	if len(rs) != 2 || rs[1].Start != "k50" {
		t.Fatalf("Ranges after rebuild = %+v, want 2 ranges split at k50", rs)
	}
}

// TestShardedOpsAgainstOrphanedLocks pins the client-surface contract
// when a crashed coordinator's locks are still parked: Put/Get/Delete
// exhaust their bounded retries with ErrKeyLocked (no hang), a dirty
// read bypasses the lock, and recovery unblocks everything.
func TestShardedOpsAgainstOrphanedLocks(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{Seed: 3, MaxOpAttempts: 3, InitialSplits: []string{"k50"}})
	mustPut(t, s, "k10", "old")
	if err := s.OrphanNext("before-commit"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Txn(bg(), nil, map[string][]byte{
		"k10": []byte("stuck"), "k60": []byte("stuck"),
	}); !errors.Is(err, ErrTxnOrphaned) {
		t.Fatalf("orphaned txn = %v, want ErrTxnOrphaned", err)
	}

	if err := s.Put(bg(), "k10", []byte("new")); !errors.Is(err, ErrKeyLocked) {
		t.Fatalf("Put on locked key = %v, want ErrKeyLocked", err)
	}
	if err := s.Delete(bg(), "k10"); !errors.Is(err, ErrKeyLocked) {
		t.Fatalf("Delete on locked key = %v, want ErrKeyLocked", err)
	}
	if _, _, err := s.Get(bg(), "k10"); !errors.Is(err, ErrKeyLocked) {
		t.Fatalf("Get on locked key = %v, want ErrKeyLocked", err)
	}
	// A dirty read is exactly the read that ignores the lock — it sees
	// the pre-transaction value, which is why the checker must reject
	// histories produced this way.
	s.SetDirtyReads(true)
	if v, found := mustGet(t, s, "k10"); !found || v != "old" {
		t.Fatalf("dirty Get = (%q, %v), want pre-txn \"old\"", v, found)
	}
	s.SetDirtyReads(false)

	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bg(), "k10", []byte("new")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if err := s.Delete(bg(), "k10"); err != nil {
		t.Fatalf("Delete after recovery: %v", err)
	}
	if _, found := mustGet(t, s, "k10"); found {
		t.Fatal("k10 present after delete")
	}
}

// TestShardedBudgetExhaustionMidOp covers the deadline charge paths: a
// budget too small for even one proposal fails each op with the shared
// deadline sentinel, both up front (already spent) and mid-operation.
func TestShardedBudgetExhaustionMidOp(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{Seed: 4})
	mustPut(t, s, "k1", "v1")

	ctx := admission.WithBudget(context.Background(), time.Nanosecond)
	if err := s.Put(ctx, "k2", []byte("v")); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Put with 1ns budget = %v, want ErrDeadlineExceeded", err)
	}
	if _, _, err := s.Get(ctx, "k1"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Get with 1ns budget = %v, want ErrDeadlineExceeded", err)
	}
	if err := s.Delete(ctx, "k1"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Delete with 1ns budget = %v, want ErrDeadlineExceeded", err)
	}
	if _, err := s.Txn(ctx, []string{"k1"}, nil); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Txn with 1ns budget = %v, want ErrDeadlineExceeded", err)
	}
	// The sentinel unifies with the admission layer's. (The write may
	// still have applied — the budget is charged after the proposal
	// commits, and the contract is honest about that ambiguity.)
	if err := s.Put(ctx, "k2", []byte("v")); !admission.IsDeadline(err) {
		t.Fatalf("Put deadline error %v does not satisfy admission.IsDeadline", err)
	}
}

// TestRecoverFinishesCrashedAbort covers the recovery-of-recovery
// branch: a transaction record left in the *aborted* state (a prior
// recovery pass crashed after replicating the abort decision but
// before retiring the record) must be driven to done on the next pass.
func TestRecoverFinishesCrashedAbort(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{Seed: 8, InitialSplits: []string{"k50"}})
	rs := s.Ranges()
	parts := []uint64{rs[0].ID, rs[1].ID}
	writes := []rmWrite{{Key: "k10", Val: []byte("x")}, {Key: "k60", Val: []byte("x")}}
	// Inject the half-aborted record directly into the replicated table:
	// begin then abort, with no participant aborts and no tDone.
	const id = 9001
	if resp, _, err := s.propose(0, txnMachineName, encTxBegin(nil, id, parts, writes)); err != nil || resp[0] != rspOK {
		t.Fatalf("inject begin = (%v, %v)", resp, err)
	}
	if resp, _, err := s.propose(0, txnMachineName, encTxAbort(nil, id)); err != nil || resp[0] != rspOK {
		t.Fatalf("inject abort = (%v, %v)", resp, err)
	}
	if n, err := s.PendingTxnRecords(); err != nil || n != 1 {
		t.Fatalf("injected records = (%d, %v), want 1", n, err)
	}

	rec, err := s.RecoverTxns()
	if err != nil {
		t.Fatalf("RecoverTxns: %v", err)
	}
	if rec.Aborted != 1 || rec.Resumed != 0 {
		t.Fatalf("recovery = %+v, want exactly the crashed abort finished", rec)
	}
	if n, err := s.PendingTxnRecords(); err != nil || n != 0 {
		t.Fatalf("records after recovery = (%d, %v), want 0", n, err)
	}
	if _, found := mustGet(t, s, "k10"); found {
		t.Fatal("aborted write visible")
	}
}

// TestDirectoryEpochAdvancesOnTopologyChange pins that every routing
// change bumps the replicated directory epoch (what stale-cache
// detection keys on), and that rejected changes do not.
func TestDirectoryEpochAdvancesOnTopologyChange(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{Seed: 2, InitialSplits: []string{"k50"}})
	epoch := func() uint64 {
		var e uint64
		if err := s.groups[0].Query(dirMachineName, func(sm ha.StateMachine) error {
			e = sm.(*dirMachine).epoch
			return nil
		}); err != nil {
			t.Fatalf("dir query: %v", err)
		}
		return e
	}
	e0 := epoch()
	if err := s.Split("k20"); err != nil {
		t.Fatal(err)
	}
	e1 := epoch()
	if e1 <= e0 {
		t.Fatalf("epoch after split = %d, want > %d", e1, e0)
	}
	if err := s.Merge("k99"); err == nil {
		t.Fatal("Merge at non-boundary succeeded")
	}
	if got := epoch(); got != e1 {
		t.Fatalf("epoch after rejected merge = %d, want unchanged %d", got, e1)
	}
	if err := s.Merge("k20"); err != nil {
		t.Fatal(err)
	}
	if got := epoch(); got <= e1 {
		t.Fatalf("epoch after merge = %d, want > %d", got, e1)
	}
}

// TestMachinesRejectMalformedCommands pins the replicated machines'
// decode hardening: truncated or garbage commands must come back as
// rspConflict, never panic or mutate state — a replicated log entry is
// the one input a state machine can never refuse to run.
func TestMachinesRejectMalformedCommands(t *testing.T) {
	rm := newRangeMachine()
	rm.Apply(encRmAdopt(nil, "", "", nil)) // init empty-bounds owner
	dm := newDirMachine()
	dm.Apply(encDirInit(1, nil))
	tm := newTxnMachine()

	cmds := [][]byte{
		nil, {}, {0xff},
		{rmOpPut}, {rmOpDel}, {rmOpGet}, {rmOpPrepare}, {rmOpApply},
		{rmOpAbort}, {rmOpAdopt}, {rmOpFreeze}, {rmOpTrim},
		{0x0a}, {0x0b},
		encRmPut(nil, "k", []byte("v"), 1)[:3],
	}
	for _, cmd := range cmds {
		if resp := rm.Apply(cmd); len(resp) == 0 || resp[0] != rspConflict {
			t.Fatalf("rangeMachine.Apply(% x) = % x, want rspConflict", cmd, resp)
		}
	}
	if len(rm.data) != 0 || len(rm.locks) != 0 {
		t.Fatal("malformed commands mutated range state")
	}
	// The retired repair opcodes are refused even when well formed: a
	// newer cell offered by 0x0a is not installed and a cell 0x0b names
	// at its version is not dropped.
	rm.Apply(encRmPut(nil, "a", []byte("v"), 3))
	rm.Apply(encRmDel(nil, "b", 4))
	before := rm.Snapshot()
	offered := []kvPair{{key: "a", rval: rval{val: []byte("newer"), ver: 9}}, {key: "c", rval: rval{val: []byte("v"), ver: 9}}}
	named := []kvPair{{key: "a", rval: rval{ver: 3}}, {key: "b", rval: rval{ver: 4}}}
	for _, cmd := range [][]byte{retiredMigrate(offered), retiredTrimKeys(named)} {
		if resp := rm.Apply(cmd); len(resp) != 1 || resp[0] != rspConflict {
			t.Fatalf("rangeMachine.Apply(% x) = % x, want rspConflict", cmd, resp)
		}
	}
	if after := rm.Snapshot(); !bytes.Equal(after, before) {
		t.Fatalf("retired opcodes changed the snapshot:\n% x\nwant\n% x", after, before)
	}
	for _, cmd := range [][]byte{nil, {0xee},
		encDirSplitReserve(1, "k")[:2], encDirU64(dirOpMergeReserve, 1)[:3]} {
		if resp := dm.Apply(cmd); len(resp) == 0 || resp[0] != rspConflict {
			t.Fatalf("dirMachine.Apply(% x) = % x, want rspConflict", cmd, resp)
		}
	}
	for _, cmd := range [][]byte{nil, {0xee},
		encTxBegin(nil, 1, []uint64{1}, nil)[:2], encTxAbort(nil, 1)[:3]} {
		if resp := tm.Apply(cmd); len(resp) == 0 || resp[0] != rspConflict {
			t.Fatalf("txnMachine.Apply(% x) = % x, want rspConflict", cmd, resp)
		}
	}
	if tm.recordCount() != 0 {
		t.Fatal("malformed commands created txn records")
	}
}

// TestShardedTopologyArgumentErrors pins the typed failures for
// malformed split/merge boundaries.
func TestShardedTopologyArgumentErrors(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{Seed: 6, InitialSplits: []string{"k50"}})
	if err := s.Split("k50"); err == nil {
		t.Fatal("Split at an existing boundary succeeded")
	}
	if err := s.Split(""); err == nil {
		t.Fatal("Split at the keyspace origin succeeded")
	}
	if err := s.Merge("k99"); err == nil {
		t.Fatal("Merge at a non-boundary succeeded")
	}
	if err := s.OrphanNext("bogus-point"); err == nil {
		t.Fatal("OrphanNext accepted an unknown crash point")
	}
	if got := s.RangeCount(); got != 2 {
		t.Fatalf("RangeCount after rejected topology ops = %d, want 2", got)
	}
}
