package kvstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/admission"
)

func newTestSharded(t *testing.T, cfg ShardedConfig) *Sharded {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Groups == 0 {
		cfg.Groups = 2
	}
	return NewSharded(cfg)
}

func mustPut(t *testing.T, s *Sharded, key, val string) {
	t.Helper()
	if err := s.Put(context.Background(), key, []byte(val)); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func mustGet(t *testing.T, s *Sharded, key string) (string, bool) {
	t.Helper()
	v, found, err := s.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return string(v), found
}

func TestShardedBasicOps(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
	if got := s.RangeCount(); got != 2 {
		t.Fatalf("RangeCount = %d, want 2", got)
	}
	mustPut(t, s, "apple", "1")
	mustPut(t, s, "zebra", "2")
	if v, ok := mustGet(t, s, "apple"); !ok || v != "1" {
		t.Fatalf("apple = (%q, %v), want (1, true)", v, ok)
	}
	if v, ok := mustGet(t, s, "zebra"); !ok || v != "2" {
		t.Fatalf("zebra = (%q, %v), want (2, true)", v, ok)
	}
	if _, ok := mustGet(t, s, "nope"); ok {
		t.Fatal("absent key reported found")
	}
	if err := s.Delete(context.Background(), "apple"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := mustGet(t, s, "apple"); ok {
		t.Fatal("deleted key still found")
	}
	// Overwrite wins by version.
	mustPut(t, s, "zebra", "3")
	if v, _ := mustGet(t, s, "zebra"); v != "3" {
		t.Fatalf("zebra after overwrite = %q, want 3", v)
	}
}

func TestShardedSplitMergePreservesData(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{})
	want := map[string]string{}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		v := fmt.Sprintf("v%d", i)
		mustPut(t, s, k, v)
		want[k] = v
	}
	if err := s.Split("k15"); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if got := s.RangeCount(); got != 2 {
		t.Fatalf("RangeCount after split = %d, want 2", got)
	}
	for k, v := range want {
		if got, ok := mustGet(t, s, k); !ok || got != v {
			t.Fatalf("after split %s = (%q, %v), want %q", k, got, ok, v)
		}
	}
	// Writes after the split land on the right machines and survive the
	// merge back.
	mustPut(t, s, "k07", "left-new")
	want["k07"] = "left-new"
	mustPut(t, s, "k22", "right-new")
	want["k22"] = "right-new"
	if err := s.Merge("k00"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if got := s.RangeCount(); got != 1 {
		t.Fatalf("RangeCount after merge = %d, want 1", got)
	}
	for k, v := range want {
		if got, ok := mustGet(t, s, k); !ok || got != v {
			t.Fatalf("after merge %s = (%q, %v), want %q", k, got, ok, v)
		}
	}
}

func TestShardedDeleteSurvivesMerge(t *testing.T) {
	// A tombstone in the absorbed range must not be resurrected by a
	// stale live copy surviving the merge.
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
	mustPut(t, s, "pear", "old")
	if err := s.Delete(context.Background(), "pear"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Merge("a"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if v, ok := mustGet(t, s, "pear"); ok {
		t.Fatalf("deleted key resurrected by merge: %q", v)
	}
}

func TestShardedSplitCrashPointsRecover(t *testing.T) {
	for _, point := range []string{"split", "split-copy", "split-commit"} {
		t.Run(point, func(t *testing.T) {
			s := newTestSharded(t, ShardedConfig{MaxOpAttempts: 4})
			want := map[string]string{}
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("k%02d", i)
				want[k] = fmt.Sprintf("v%d", i)
				mustPut(t, s, k, want[k])
			}
			if err := s.OrphanNext(point); err != nil {
				t.Fatalf("OrphanNext: %v", err)
			}
			if err := s.Split("k10"); !errors.Is(err, ErrTxnOrphaned) {
				t.Fatalf("Split with armed crash = %v, want ErrTxnOrphaned", err)
			}
			n, err := s.RecoverRanges()
			if err != nil {
				t.Fatalf("RecoverRanges: %v", err)
			}
			if n != 1 {
				t.Fatalf("RecoverRanges resolved %d changes, want 1", n)
			}
			if got := s.RangeCount(); got != 2 {
				t.Fatalf("RangeCount after recovery = %d, want 2", got)
			}
			for k, v := range want {
				if got, ok := mustGet(t, s, k); !ok || got != v {
					t.Fatalf("after recovered split %s = (%q, %v), want %q", k, got, ok, v)
				}
			}
			// And the plane accepts writes everywhere again.
			mustPut(t, s, "k05", "post")
			mustPut(t, s, "k15", "post")
			// Idempotent: a second recovery pass has nothing to do.
			if n, _ := s.RecoverRanges(); n != 0 {
				t.Fatalf("second RecoverRanges resolved %d, want 0", n)
			}
		})
	}
}

func TestShardedMergeCrashRecovers(t *testing.T) {
	for _, point := range []string{"merge", "merge-copy", "merge-commit"} {
		t.Run(point, func(t *testing.T) {
			s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
			mustPut(t, s, "alpha", "1")
			mustPut(t, s, "omega", "2")
			if err := s.OrphanNext(point); err != nil {
				t.Fatalf("OrphanNext: %v", err)
			}
			if err := s.Merge("alpha"); !errors.Is(err, ErrTxnOrphaned) {
				t.Fatalf("Merge with armed crash = %v, want ErrTxnOrphaned", err)
			}
			n, err := s.RecoverRanges()
			if err != nil {
				t.Fatalf("RecoverRanges: %v", err)
			}
			if n != 1 {
				t.Fatalf("RecoverRanges resolved %d changes, want 1", n)
			}
			if got := s.RangeCount(); got != 1 {
				t.Fatalf("RangeCount after recovered merge = %d, want 1", got)
			}
			if v, _ := mustGet(t, s, "alpha"); v != "1" {
				t.Fatalf("alpha = %q, want 1", v)
			}
			if v, _ := mustGet(t, s, "omega"); v != "2" {
				t.Fatalf("omega = %q, want 2", v)
			}
			// And the plane accepts writes on both sides of the old boundary.
			mustPut(t, s, "alpha", "post")
			mustPut(t, s, "omega", "post")
			if n, _ := s.RecoverRanges(); n != 0 {
				t.Fatalf("second RecoverRanges resolved %d, want 0", n)
			}
			if got := s.Reg.Counter("range_merges").Value(); got != 1 {
				t.Fatalf("range_merges = %d, want 1", got)
			}
		})
	}
}

func TestShardedDeadlinePropagation(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{})
	ctx := admission.WithBudget(context.Background(), time.Nanosecond)
	err := s.Put(ctx, "k", []byte("v"))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Put with 1ns budget = %v, want ErrDeadlineExceeded", err)
	}
	// The unified sentinel: every deadline error matches the shared
	// admission sentinel via errors.Is.
	if !errors.Is(err, admission.ErrDeadline) {
		t.Fatalf("deadline error does not match admission.ErrDeadline: %v", err)
	}
	if _, _, err := s.Get(ctx, "k"); !errors.Is(err, admission.ErrDeadline) {
		t.Fatalf("Get with 1ns budget = %v, want deadline", err)
	}
	if _, err := s.Txn(ctx, []string{"k"}, nil); !errors.Is(err, admission.ErrDeadline) {
		t.Fatalf("Txn with 1ns budget = %v, want deadline", err)
	}
	// A cancelled context is refused before any replicated work.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Put(cctx, "k", []byte("v")); err == nil {
		t.Fatal("Put with cancelled context succeeded")
	}
	// No budget: everything proceeds.
	mustPut(t, s, "k", "v")
}

func TestShardedGroupMemberCrashTolerated(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
	mustPut(t, s, "aa", "1")
	mustPut(t, s, "zz", "2")
	for g := 0; g < s.Groups(); g++ {
		if err := s.Group(g).CrashMember(-1); err != nil {
			t.Fatalf("Group(%d).CrashMember(leader): %v", g, err)
		}
	}
	// One member down per group: quorum holds, ops keep flowing.
	mustPut(t, s, "ab", "3")
	mustPut(t, s, "zy", "4")
	if v, _ := mustGet(t, s, "aa"); v != "1" {
		t.Fatalf("aa after crashes = %q, want 1", v)
	}
	for g := 0; g < s.Groups(); g++ {
		for id := 0; id < 3; id++ {
			s.Group(g).ReviveMember(id) //nolint:errcheck — only one is crashed
		}
	}
	mustPut(t, s, "ac", "5")
	if v, _ := mustGet(t, s, "zy"); v != "4" {
		t.Fatalf("zy after revival = %q, want 4", v)
	}
}

func TestShardedDeterministicVirtualCost(t *testing.T) {
	run := func() (time.Duration, string) {
		s := newTestSharded(t, ShardedConfig{Seed: 7, InitialSplits: []string{"h", "q"}})
		for i := 0; i < 40; i++ {
			mustPut(t, s, fmt.Sprintf("k%02d", i%10), fmt.Sprintf("v%d", i))
		}
		for i := 0; i < 10; i++ {
			mustGet(t, s, fmt.Sprintf("k%02d", i))
		}
		if _, err := s.Txn(context.Background(),
			[]string{"k01", "k09"},
			map[string][]byte{"k01": []byte("t1"), "k09": []byte("t9")}); err != nil {
			t.Fatalf("Txn: %v", err)
		}
		state := ""
		for i := 0; i < 10; i++ {
			v, _ := mustGet(t, s, fmt.Sprintf("k%02d", i))
			state += v + "|"
		}
		return s.VirtualCost(), state
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 {
		t.Fatalf("virtual cost not deterministic: %v vs %v", c1, c2)
	}
	if s1 != s2 {
		t.Fatalf("final state not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	if c1 <= 0 {
		t.Fatal("virtual cost did not accumulate")
	}
}
