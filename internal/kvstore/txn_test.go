package kvstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func bg() context.Context { return context.Background() }

func TestTxnCommitsAtomicallyAcrossRanges(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
	mustPut(t, s, "acct-a", "100")
	mustPut(t, s, "zcct-b", "50")
	reads, err := s.Txn(bg(),
		[]string{"acct-a", "zcct-b"},
		map[string][]byte{"acct-a": []byte("70"), "zcct-b": []byte("80")})
	if err != nil {
		t.Fatalf("Txn: %v", err)
	}
	if string(reads["acct-a"]) != "100" || string(reads["zcct-b"]) != "50" {
		t.Fatalf("txn reads = %q/%q, want 100/50", reads["acct-a"], reads["zcct-b"])
	}
	if v, _ := mustGet(t, s, "acct-a"); v != "70" {
		t.Fatalf("acct-a = %q, want 70", v)
	}
	if v, _ := mustGet(t, s, "zcct-b"); v != "80" {
		t.Fatalf("zcct-b = %q, want 80", v)
	}
	// Absent reads are omitted from the result map.
	reads, err = s.Txn(bg(), []string{"missing"}, map[string][]byte{"acct-a": []byte("x")})
	if err != nil {
		t.Fatalf("Txn: %v", err)
	}
	if _, ok := reads["missing"]; ok {
		t.Fatal("absent key present in txn reads")
	}
	// A nil write value is a transactional delete.
	if _, err := s.Txn(bg(), nil, map[string][]byte{"acct-a": nil}); err != nil {
		t.Fatalf("Txn delete: %v", err)
	}
	if _, ok := mustGet(t, s, "acct-a"); ok {
		t.Fatal("transactionally deleted key still found")
	}
	if n, err := s.PendingTxnRecords(); err != nil || n != 0 {
		t.Fatalf("pending txn records = (%d, %v), want 0", n, err)
	}
}

// orphanTxn runs a transaction armed to crash at the given point and
// asserts it reports ErrTxnOrphaned.
func orphanTxn(t *testing.T, s *Sharded, point string, reads []string, writes map[string][]byte) {
	t.Helper()
	if err := s.OrphanNext(point); err != nil {
		t.Fatalf("OrphanNext(%s): %v", point, err)
	}
	if _, err := s.Txn(bg(), reads, writes); !errors.Is(err, ErrTxnOrphaned) {
		t.Fatalf("Txn with crash at %s = %v, want ErrTxnOrphaned", point, err)
	}
}

func TestTxnCoordinatorCrashAlwaysResolves(t *testing.T) {
	// Pre-commit crash points must resolve as aborted (writes absent);
	// post-commit points as resumed (writes present). Either way: zero
	// locks, zero pending records after recovery — never dangling.
	cases := []struct {
		point     string
		wantApply bool
	}{
		{"begin", false},
		{"prepare", false},
		{"before-commit", false},
		{"commit", true},
		{"apply", true},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}, MaxOpAttempts: 4})
			mustPut(t, s, "aa", "old-a")
			mustPut(t, s, "zz", "old-z")
			orphanTxn(t, s, tc.point,
				[]string{"aa", "zz"},
				map[string][]byte{"aa": []byte("new-a"), "zz": []byte("new-z")})

			rec, err := s.RecoverTxns()
			if err != nil {
				t.Fatalf("RecoverTxns: %v", err)
			}
			if tc.wantApply && rec.Resumed != 1 {
				t.Fatalf("recovery = %+v, want 1 resumed", rec)
			}
			if !tc.wantApply && rec.Aborted != 1 {
				t.Fatalf("recovery = %+v, want 1 aborted", rec)
			}
			wantA, wantZ := "old-a", "old-z"
			if tc.wantApply {
				wantA, wantZ = "new-a", "new-z"
			}
			if v, _ := mustGet(t, s, "aa"); v != wantA {
				t.Fatalf("aa after recovery = %q, want %q", v, wantA)
			}
			if v, _ := mustGet(t, s, "zz"); v != wantZ {
				t.Fatalf("zz after recovery = %q, want %q", v, wantZ)
			}
			if n, err := s.LockCount(); err != nil || n != 0 {
				t.Fatalf("locks after recovery = (%d, %v), want 0", n, err)
			}
			if n, err := s.PendingTxnRecords(); err != nil || n != 0 {
				t.Fatalf("records after recovery = (%d, %v), want 0", n, err)
			}
			// Recovery is idempotent.
			if rec, _ := s.RecoverTxns(); rec.Resumed+rec.Aborted != 0 {
				t.Fatalf("second recovery resolved %+v, want nothing", rec)
			}
		})
	}
}

func TestTxnOrphanedLocksBlockThenRelease(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}, MaxOpAttempts: 3, MaxTxnAttempts: 2})
	mustPut(t, s, "k1", "v")
	orphanTxn(t, s, "before-commit", []string{"k1"}, map[string][]byte{"k1": []byte("w")})
	if n, _ := s.LockCount(); n != 1 {
		t.Fatalf("locks while orphaned = %d, want 1", n)
	}
	// Single-key ops and transactions on the locked key fail cleanly.
	if err := s.Put(bg(), "k1", []byte("x")); !errors.Is(err, ErrKeyLocked) {
		t.Fatalf("Put on locked key = %v, want ErrKeyLocked", err)
	}
	if _, err := s.Txn(bg(), nil, map[string][]byte{"k1": []byte("y")}); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("Txn on locked key = %v, want ErrTxnConflict", err)
	}
	if _, err := s.RecoverTxns(); err != nil {
		t.Fatalf("RecoverTxns: %v", err)
	}
	if n, _ := s.LockCount(); n != 0 {
		t.Fatalf("locks after recovery = %d, want 0", n)
	}
	// The aborted orphan's write never landed; the plane flows again.
	if v, _ := mustGet(t, s, "k1"); v != "v" {
		t.Fatalf("k1 = %q, want v (orphan aborted)", v)
	}
	mustPut(t, s, "k1", "fresh")
}

func TestTxnPartitionSpanningCommitPoint(t *testing.T) {
	// Partition the control group's leader away right before the commit
	// proposal: the coordinator cannot learn the outcome (ErrTxnOrphaned)
	// and recovery after heal must resolve it deterministically.
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}, MaxOpAttempts: 4})
	mustPut(t, s, "aa", "old")
	mustPut(t, s, "zz", "old")

	leader := s.Group(0).Leader()
	var rest []int
	for id := 0; id < 3; id++ {
		if id != leader {
			rest = append(rest, id)
		}
	}
	// Prepare happens on both groups; then we cut group 0 before commit
	// by doing the partition inside the crash hook window: arm a crash
	// at before-commit, run the txn (locks held, no commit record), then
	// partition and let recovery race the resolution.
	orphanTxn(t, s, "before-commit", []string{"aa", "zz"},
		map[string][]byte{"aa": []byte("new"), "zz": []byte("new")})
	s.Group(0).Partition([]int{leader}, rest)

	// With the old leader isolated, the rest elect a new one; recovery
	// reads the replicated record (still pending: no commit ever made it)
	// and aborts.
	rec, err := s.RecoverTxns()
	if err != nil {
		t.Fatalf("RecoverTxns under partition: %v", err)
	}
	if rec.Aborted != 1 {
		t.Fatalf("recovery = %+v, want 1 aborted", rec)
	}
	s.Group(0).Heal()
	if v, _ := mustGet(t, s, "aa"); v != "old" {
		t.Fatalf("aa = %q, want old", v)
	}
	if n, _ := s.LockCount(); n != 0 {
		t.Fatalf("locks = %d, want 0", n)
	}
}

func TestTxnSplitRacingTransactionsResolve(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{MaxOpAttempts: 4, MaxTxnAttempts: 2})
	for i := 0; i < 10; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), "v")
	}
	// An orphaned txn holds locks across the would-be split point: the
	// split must back off (ErrRangeBusy), not strand the locks.
	orphanTxn(t, s, "before-commit", nil,
		map[string][]byte{"k04": []byte("w"), "k06": []byte("w")})
	if err := s.Split("k05"); !errors.Is(err, ErrRangeBusy) {
		t.Fatalf("Split over locked span = %v, want ErrRangeBusy", err)
	}
	if _, err := s.RecoverTxns(); err != nil {
		t.Fatalf("RecoverTxns: %v", err)
	}
	if err := s.Split("k05"); err != nil {
		t.Fatalf("Split after recovery: %v", err)
	}

	// Conversely: a split frozen mid-flight (crash between copy and
	// commit) fences the moving span; transactions touching it abort
	// cleanly and succeed once recovery completes the split.
	if err := s.OrphanNext("split-copy"); err != nil {
		t.Fatalf("OrphanNext: %v", err)
	}
	if err := s.Split("k08"); !errors.Is(err, ErrTxnOrphaned) {
		t.Fatalf("Split with armed crash = %v, want ErrTxnOrphaned", err)
	}
	if _, err := s.Txn(bg(), nil, map[string][]byte{"k09": []byte("w")}); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("Txn into frozen span = %v, want ErrTxnConflict", err)
	}
	if _, err := s.RecoverRanges(); err != nil {
		t.Fatalf("RecoverRanges: %v", err)
	}
	if _, err := s.Txn(bg(), nil, map[string][]byte{"k09": []byte("w")}); err != nil {
		t.Fatalf("Txn after recovered split: %v", err)
	}
	if v, _ := mustGet(t, s, "k09"); v != "w" {
		t.Fatalf("k09 = %q, want w", v)
	}
}

func TestTxnDirtyReadInjectionServesStaleState(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{})
	mustPut(t, s, "k", "v1")
	mustPut(t, s, "k", "v2")
	if v, _ := mustGet(t, s, "k"); v != "v2" {
		t.Fatalf("clean read = %q, want v2", v)
	}
	s.SetDirtyReads(true)
	if v, _ := mustGet(t, s, "k"); v != "v1" {
		t.Fatalf("dirty read = %q, want the stale v1", v)
	}
	s.SetDirtyReads(false)
	if v, _ := mustGet(t, s, "k"); v != "v2" {
		t.Fatalf("read after disabling injection = %q, want v2", v)
	}
}

func TestTxnReadOnlyAndConflictRetry(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
	mustPut(t, s, "a1", "x")
	mustPut(t, s, "z1", "y")
	// Read-only txn observes a consistent snapshot and leaves no locks.
	reads, err := s.Txn(bg(), []string{"a1", "z1"}, nil)
	if err != nil {
		t.Fatalf("read-only Txn: %v", err)
	}
	if string(reads["a1"]) != "x" || string(reads["z1"]) != "y" {
		t.Fatalf("read-only txn = %q/%q, want x/y", reads["a1"], reads["z1"])
	}
	if n, _ := s.LockCount(); n != 0 {
		t.Fatalf("locks after read-only txn = %d, want 0", n)
	}
	if n, _ := s.PendingTxnRecords(); n != 0 {
		t.Fatalf("records after read-only txn = %d, want 0", n)
	}
}
