package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// sweepUntilClean runs AntiEntropy until a sweep moves and trims nothing,
// proving convergence, and returns the totals of the converging run.
func sweepUntilClean(t *testing.T, s *Sharded) (int, int) {
	t.Helper()
	totalMoved, totalTrimmed := 0, 0
	for i := 0; i < 8; i++ {
		moved, trimmed, err := s.AntiEntropy()
		if err != nil {
			t.Fatalf("AntiEntropy: %v", err)
		}
		totalMoved += moved
		totalTrimmed += trimmed
		if moved == 0 && trimmed == 0 {
			return totalMoved, totalTrimmed
		}
	}
	t.Fatal("AntiEntropy did not converge within 8 sweeps")
	return 0, 0
}

func TestAntiEntropyRepairsStrayCells(t *testing.T) {
	s := newTestSharded(t, ShardedConfig{InitialSplits: []string{"m"}})
	mustPut(t, s, "apple", "right")
	mustPut(t, s, "zebra", "right")

	// Plant a stray: a cell for a key the left range does not own, as if
	// a migration landed on a stale owner. Newer version than the real
	// copy so the sweep must carry it forward, not discard it.
	left, err := s.locate("apple")
	if err != nil {
		t.Fatalf("locate: %v", err)
	}
	stray := []kvPair{{key: "zebra", rval: rval{val: []byte("stray-newer"), ver: s.nextVersion()}}}
	if _, _, err := s.proposeRange(left.ID, encRmMigrate(stray)); err != nil {
		t.Fatalf("inject stray: %v", err)
	}

	moved, trimmed := sweepUntilClean(t, s)
	if moved == 0 || trimmed == 0 {
		t.Fatalf("sweep = (moved %d, trimmed %d), want both > 0", moved, trimmed)
	}
	// The stray's newer version won at the true owner, and the source no
	// longer holds the out-of-bounds cell.
	if v, _ := mustGet(t, s, "zebra"); v != "stray-newer" {
		t.Fatalf("zebra = %q, want stray-newer", v)
	}
	if v, _ := mustGet(t, s, "apple"); v != "right" {
		t.Fatalf("apple = %q, want right", v)
	}
}

func TestAntiEntropyIdempotentAfterSplitCrash(t *testing.T) {
	// Anti-entropy doubles as topology recovery: a split crashed after
	// the copy must be driven to completion by the sweep, with no lost
	// or duplicated versions, and replay must be a no-op.
	s := newTestSharded(t, ShardedConfig{MaxOpAttempts: 4})
	want := map[string]string{}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("k%02d", i)
		want[k] = fmt.Sprintf("v%d", i)
		mustPut(t, s, k, want[k])
	}
	if err := s.OrphanNext("split-copy"); err != nil {
		t.Fatalf("OrphanNext: %v", err)
	}
	if err := s.Split("k08"); !errors.Is(err, ErrTxnOrphaned) {
		t.Fatalf("Split = %v, want ErrTxnOrphaned", err)
	}
	sweepUntilClean(t, s)
	if got := s.RangeCount(); got != 2 {
		t.Fatalf("RangeCount after sweep = %d, want 2", got)
	}
	for k, v := range want {
		if got, ok := mustGet(t, s, k); !ok || got != v {
			t.Fatalf("%s = (%q, %v), want %q", k, got, ok, v)
		}
	}
	// Second sweep from scratch: nothing left to move or trim.
	if m, tr, err := s.AntiEntropy(); err != nil || m != 0 || tr != 0 {
		t.Fatalf("replay sweep = (%d, %d, %v), want (0, 0, nil)", m, tr, err)
	}
}

func TestAntiEntropyRacesSplitMergeNoLostVersions(t *testing.T) {
	// Concurrent writers, split/merge cycles, and anti-entropy sweeps all
	// race (run under -race in CI). Invariant: every acknowledged write is
	// readable afterwards, and the plane converges to a clean sweep.
	s := newTestSharded(t, ShardedConfig{Seed: 11, MaxOpAttempts: 12, MaxTxnAttempts: 8})
	const (
		writers       = 4
		keysPerWriter = 6
		rounds        = 8
	)
	var mu sync.Mutex
	acked := map[string]string{} // last value each writer got an OK for

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("w%d-k%d", w, r%keysPerWriter)
				v := fmt.Sprintf("w%d.r%d", w, r)
				err := s.Put(context.Background(), k, []byte(v))
				if err != nil {
					// ErrKeyLocked guarantees no effect; anything else
					// would leave the outcome ambiguous and fail below.
					if !errors.Is(err, ErrKeyLocked) {
						mu.Lock()
						acked["__err"] = err.Error()
						mu.Unlock()
					}
					continue
				}
				mu.Lock()
				acked[k] = v
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		splits := []string{"w1", "w2", "w3"}
		for i := 0; i < 6; i++ {
			key := splits[i%len(splits)]
			if i%2 == 0 {
				s.Split(key) //nolint:errcheck — ErrRangeBusy under contention is fine
			} else {
				s.Merge(key) //nolint:errcheck
			}
			s.AntiEntropy() //nolint:errcheck — racing sweep; final sweep below is checked
		}
	}()
	wg.Wait()

	if msg, bad := acked["__err"]; bad {
		t.Fatalf("writer hit unexpected error: %s", msg)
	}
	delete(acked, "__err")

	// Quiesce: drive any crashed/pending topology change home and sweep
	// until clean; then every acked write must be visible.
	if err := s.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	sweepUntilClean(t, s)
	if m, tr, err := s.AntiEntropy(); err != nil || m != 0 || tr != 0 {
		t.Fatalf("post-quiesce sweep = (%d, %d, %v), want (0, 0, nil)", m, tr, err)
	}
	for k, v := range acked {
		got, ok := mustGet(t, s, k)
		if !ok || got != v {
			t.Fatalf("acked write lost: %s = (%q, %v), want %q", k, got, ok, v)
		}
	}
	if n, _ := s.LockCount(); n != 0 {
		t.Fatalf("locks after quiesce = %d, want 0", n)
	}
}
