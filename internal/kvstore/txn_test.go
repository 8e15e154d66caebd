package kvstore

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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

// TestTxnConcurrentCoordinators runs coordinators on several goroutines,
// each encoding its commands into its own stack array: writers set both
// keys of a pair that spans two ranges to one tag, readers must see both
// keys carry the same tag, and single-key ops run alongside. Afterwards
// no lock and no transaction record is left.
func TestTxnConcurrentCoordinators(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}, MaxTxnAttempts: 64})
	pairs := [][2]string{{"a1", "z1"}, {"b2", "y2"}}
	for _, p := range pairs {
		if _, err := s.Txn(bg(), nil, map[string][]byte{p[0]: []byte("init"), p[1]: []byte("init")}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				p := pairs[(g+i)%len(pairs)]
				if g%2 == 0 {
					tag := []byte(fmt.Sprintf("g%d-%d", g, i))
					if _, err := s.Txn(bg(), nil, map[string][]byte{p[0]: tag, p[1]: tag}); err != nil && !errors.Is(err, ErrTxnConflict) {
						errs <- err
						return
					}
					continue
				}
				got, err := s.Txn(bg(), []string{p[0], p[1]}, nil)
				if errors.Is(err, ErrTxnConflict) {
					continue
				}
				if err != nil || string(got[p[0]]) != string(got[p[1]]) {
					errs <- fmt.Errorf("read %q: %q, err %v", p, got, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("c%d", i%5)
			if err := s.Put(bg(), k, []byte(k)); err != nil {
				errs <- err
				return
			}
			if v, _, err := s.Get(bg(), k); err != nil || string(v) != k {
				errs <- fmt.Errorf("get %s: %q, err %v", k, v, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n, err := s.LockCount(); err != nil || n != 0 {
		t.Fatalf("locks = (%d, %v), want 0", n, err)
	}
	if n, err := s.PendingTxnRecords(); err != nil || n != 0 {
		t.Fatalf("pending records = (%d, %v), want 0", n, err)
	}
}

// partitionPerKey is the routing partition replaced: one directory lookup
// per key, each key appended to its range's part, parts sorted by range
// id, and the begin record's ids and write set flattened from the parts.
// FuzzPartitionMatchesPerKey holds partition to it.
func partitionPerKey(s *Sharded, reads []string, writes map[string][]byte) ([]txnPart, []uint64, []rmWrite, error) {
	keys := append(make([]string, 0, len(reads)+len(writes)), reads...)
	for k := range writes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	readSet := slices.Clone(reads)
	slices.Sort(readSet)
	var parts []txnPart
	for _, k := range keys {
		r, err := s.locate(k)
		if err != nil {
			return nil, nil, nil, err
		}
		i := slices.IndexFunc(parts, func(p txnPart) bool { return p.rid == r.ID })
		if i < 0 {
			i, parts = len(parts), append(parts, txnPart{rid: r.ID})
		}
		p := &parts[i]
		p.lockKeys = append(p.lockKeys, k)
		if _, read := slices.BinarySearch(readSet, k); read {
			p.readKeys = append(p.readKeys, k)
		}
		if v, ok := writes[k]; ok {
			p.writes = append(p.writes, rmWrite{Key: k, Val: v, Del: v == nil})
		}
	}
	slices.SortFunc(parts, func(a, b txnPart) int { return cmp.Compare(a.rid, b.rid) })
	ids := make([]uint64, len(parts))
	flat := make([]rmWrite, 0, len(writes))
	for i, p := range parts {
		ids[i] = p.rid
		flat = append(flat, p.writes...)
	}
	return parts, ids, flat, nil
}

// partitionKeys are the keys and split points of the transaction tests
// above, and the empty key, which sorts below every split.
var partitionKeys = []string{"", "a1", "aa", "acct-a", "k01", "k04", "k05", "k06", "k08", "k09", "k1", "m", "missing", "z1", "zcct-b", "zz"}

// partitionCase decodes a fuzz input: a split count and that many split
// keys, a flag byte, a merge key and then (op, key) pairs, op 0 a read,
// 1 a write, 2 a nil write, 3 a read and a write. Flag bit 0 merges the
// range holding the merge key with its right neighbour; bit 1 makes the
// lowest split with Split after start-up, so the new range's id is above
// its right neighbour's. Every index is taken modulo its table, so any
// input decodes.
func partitionCase(data []byte) (cfg ShardedConfig, late, merge string, reads []string, writes map[string][]byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	key := func() string { return partitionKeys[int(next())%len(partitionKeys)] }
	cfg = ShardedConfig{Seed: 3, Groups: 2}
	for n := next() % 5; n > 0; n-- {
		if k := key(); k != "" && !slices.Contains(cfg.InitialSplits, k) {
			cfg.InitialSplits = append(cfg.InitialSplits, k)
		}
	}
	flags, mergeKey := next(), key()
	if flags&2 != 0 && len(cfg.InitialSplits) > 0 {
		late = slices.Min(cfg.InitialSplits)
		cfg.InitialSplits = slices.DeleteFunc(cfg.InitialSplits, func(k string) bool { return k == late })
	}
	if flags&1 != 0 {
		merge = mergeKey
	}
	writes = map[string][]byte{}
	for len(data) >= 2 {
		op, k := next()%4, key()
		if op == 0 || op == 3 {
			reads = append(reads, k)
		}
		switch op {
		case 1, 3:
			writes[k] = []byte("v-" + k)
		case 2:
			writes[k] = nil
		}
	}
	return cfg, late, merge, reads, writes
}

func encodePartitionCase(splits []string, flags byte, merge string, ops ...any) []byte {
	idx := func(k string) byte { return byte(slices.Index(partitionKeys, k)) }
	b := []byte{byte(len(splits))}
	for _, k := range splits {
		b = append(b, idx(k))
	}
	b = append(b, flags, idx(merge))
	for i := 0; i+1 < len(ops); i += 2 {
		b = append(b, byte(ops[i].(int)), idx(ops[i+1].(string)))
	}
	return b
}

func writesEqual(a, b []rmWrite) bool {
	return slices.EqualFunc(a, b, func(x, y rmWrite) bool {
		return x.Key == y.Key && x.Del == y.Del && bytes.Equal(x.Val, y.Val) && (x.Val == nil) == (y.Val == nil)
	})
}

// FuzzPartitionMatchesPerKey holds the run-at-a-time partition to the
// per-key one it replaced, on directories with splits, a split made after
// start-up and a merge: the same parts in the same order, the same range
// ids and the same flattened write set, which each part's writes must
// tile in order.
func FuzzPartitionMatchesPerKey(f *testing.F) {
	const read, write, del, both = 0, 1, 2, 3
	f.Add(encodePartitionCase([]string{"m"}, 0, "", both, "acct-a", both, "zcct-b"))
	f.Add(encodePartitionCase([]string{"m"}, 0, "", read, "missing", write, "acct-a", del, "acct-a"))
	f.Add(encodePartitionCase([]string{"m"}, 0, "", read, "a1", read, "z1", read, "a1"))
	f.Add(encodePartitionCase([]string{"k05", "k08"}, 2, "", del, "k04", write, "k06", write, "k09", read, "k08"))
	f.Add(encodePartitionCase([]string{"aa", "k05", "m"}, 3, "k04", both, "", read, "aa", write, "k05", both, "zz", read, "k05"))
	f.Add(encodePartitionCase([]string{"k1", "m", "z1"}, 1, "m", write, "k1", read, "m", del, "zz", read, "k01"))
	f.Add(encodePartitionCase(nil, 0, ""))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, late, merge, reads, writes := partitionCase(data)
		s := NewSharded(cfg)
		if late != "" {
			if err := s.Split(late); err != nil {
				t.Fatalf("Split(%q): %v", late, err)
			}
		}
		if merge != "" && s.RangeCount() > 1 {
			if r, err := s.locate(merge); err == nil && r.End != "" {
				if err := s.Merge(merge); err != nil {
					t.Fatalf("Merge(%q): %v", merge, err)
				}
			}
		}
		parts, ids, flat, err := s.partition(reads, writes)
		wantParts, wantIDs, wantFlat, wantErr := partitionPerKey(s, reads, writes)
		if err != nil || wantErr != nil {
			t.Fatalf("partition: %v; per key: %v", err, wantErr)
		}
		if !slices.Equal(ids, wantIDs) {
			t.Fatalf("ranges %v, per key %v (reads %q, writes %q, table %+v)", ids, wantIDs, reads, writes, s.Ranges())
		}
		if !writesEqual(flat, wantFlat) {
			t.Fatalf("write set %+v, per key %+v", flat, wantFlat)
		}
		var tiled []rmWrite
		for i, p := range parts {
			w := wantParts[i]
			if p.rid != w.rid || !slices.Equal(p.lockKeys, w.lockKeys) || !slices.Equal(p.readKeys, w.readKeys) || !writesEqual(p.writes, w.writes) {
				t.Fatalf("part %d: %+v, per key %+v", i, p, w)
			}
			tiled = append(tiled, p.writes...)
		}
		if !writesEqual(tiled, flat) {
			t.Fatalf("parts' writes %+v do not tile the write set %+v", tiled, flat)
		}
	})
}
