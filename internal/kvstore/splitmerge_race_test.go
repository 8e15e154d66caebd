package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestAntiEntropyRacesSplitMergeNoLostVersions(t *testing.T) {
	// Concurrent writers race split/merge cycles (run under -race in
	// verify.sh). Invariant: every acknowledged write is readable after
	// recovery, and recovery leaves no lock behind.
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
		}
	}()
	wg.Wait()

	if msg, bad := acked["__err"]; bad {
		t.Fatalf("writer hit unexpected error: %s", msg)
	}
	delete(acked, "__err")

	// Quiesce: drive any crashed or pending topology change home; then
	// every acked write must be visible.
	if err := s.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
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
