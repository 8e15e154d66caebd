package hpbdc

// Acceptance gate for the range-sharded transactional data plane
// (ISSUE 8, E-TXN): concurrent cross-range 2PC transactions survive a
// gauntlet of coordinator crashes at every protocol point, replication-
// group partitions spanning the commit point, and range splits/merges
// racing in-flight transactions — and after recovery the history must
// verdict strictly serializable with zero dangling locks and zero
// pending transaction records. A coordinator crash between prepare and
// commit must always resolve (abort or resume, never dangling), and a
// deliberate dirty-read injection must be caught by the checker. Runs
// under -race in CI (scripts/verify.sh). Extra seeds: TXN_SEEDS="7,42".

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/kvstore"
)

func txnSeeds(t *testing.T) []uint64 {
	t.Helper()
	env := os.Getenv("TXN_SEEDS")
	if env == "" {
		return []uint64{7, 42}
	}
	var seeds []uint64
	for _, f := range strings.Split(env, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("TXN_SEEDS: %v", err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

func txnPlane(seed uint64) *kvstore.Sharded {
	return kvstore.NewSharded(kvstore.ShardedConfig{
		Seed: seed, Groups: 2, InitialSplits: []string{"k04"},
		MaxOpAttempts: 16, MaxTxnAttempts: 8,
	})
}

// txnCleanAbort classifies errors that guarantee no effect on the store.
func txnCleanAbort(err error) bool {
	return errors.Is(err, kvstore.ErrTxnConflict) ||
		errors.Is(err, kvstore.ErrTxnAborted) ||
		errors.Is(err, kvstore.ErrKeyLocked) ||
		errors.Is(err, kvstore.ErrDeadlineExceeded)
}

// drainAndVerify recovers the plane and asserts the three acceptance
// invariants: strictly serializable history, zero locks, zero records.
func drainAndVerify(t *testing.T, s *kvstore.Sharded, ops []check.TxnOp, label string) {
	t.Helper()
	if err := s.Recover(); err != nil {
		t.Fatalf("%s: Recover: %v", label, err)
	}
	if n, err := s.LockCount(); err != nil || n != 0 {
		t.Fatalf("%s: locks after recovery = (%d, %v), want 0", label, n, err)
	}
	if n, err := s.PendingTxnRecords(); err != nil || n != 0 {
		t.Fatalf("%s: dangling txn records = (%d, %v), want 0", label, n, err)
	}
	if out := check.CheckTxns(ops); !out.OK {
		t.Fatalf("%s: history not strictly serializable over %d ops: %s", label, out.Ops, out.Detail)
	}
}

// TestTxnAcceptanceGauntlet is the headline gate: every seed runs the
// full chaos mix — rotating coordinator crash points, periodic recovery,
// splits and a merge mid-run, and a partition of the control group
// spanning several waves — and must come out strictly serializable with
// nothing dangling.
func TestTxnAcceptanceGauntlet(t *testing.T) {
	crashPoints := []string{"begin", "prepare", "before-commit", "commit", "apply"}
	for _, seed := range txnSeeds(t) {
		t.Run(strconv.FormatUint(seed, 10), func(t *testing.T) {
			s := txnPlane(seed)
			ops := check.CaptureTxnHistory(s, check.TxnCaptureConfig{
				Clients: 4, Waves: 24, Keys: 8, TxnKeys: 2,
				ReadFraction: 0.3, TxnFraction: 0.4,
				Seed:     seed,
				NoEffect: txnCleanAbort,
				BetweenWaves: func(wave int) {
					switch {
					case wave == 3:
						_ = s.Split("k02")
					case wave == 11:
						leader := s.Group(0).Leader()
						rest := make([]int, 0, 2)
						for id := 0; id < 3; id++ {
							if id != leader {
								rest = append(rest, id)
							}
						}
						s.Group(0).Partition([]int{leader}, rest)
					case wave == 14:
						s.Group(0).Heal()
						_ = s.Recover()
					case wave == 18:
						_ = s.Merge("k02")
					case wave%4 == 1:
						_ = s.OrphanNext(crashPoints[(wave/4)%len(crashPoints)])
					case wave%4 == 3:
						_ = s.Recover()
					}
				},
			})
			if len(ops) == 0 {
				t.Fatal("gauntlet produced an empty history")
			}
			drainAndVerify(t, s, ops, "gauntlet")
		})
	}
}

// TestTxnAcceptanceEveryCrashPointResolves pins the per-point contract:
// a coordinator orphaned at any protocol point leaves a plane that one
// recovery pass returns to zero locks and zero records, with the
// transaction either fully applied or fully absent.
func TestTxnAcceptanceEveryCrashPointResolves(t *testing.T) {
	for _, point := range []string{"begin", "prepare", "before-commit", "commit", "apply"} {
		t.Run(point, func(t *testing.T) {
			s := txnPlane(7)
			ops := check.CaptureTxnHistory(s, check.TxnCaptureConfig{
				Clients: 3, Waves: 8, Keys: 6, TxnKeys: 2,
				TxnFraction: 0.6, ReadFraction: 0.2,
				Seed:     99,
				NoEffect: txnCleanAbort,
				BetweenWaves: func(wave int) {
					if wave == 2 {
						_ = s.OrphanNext(point)
					}
				},
			})
			drainAndVerify(t, s, ops, point)
		})
	}
}

// TestTxnAcceptanceDirtyReadCaught proves the verdict has teeth: serving
// reads from overwritten versions mid-run must flip the checker to NOT
// strictly serializable on at least one seed, and the clean re-run on
// the same plane must pass again.
func TestTxnAcceptanceDirtyReadCaught(t *testing.T) {
	caught := false
	for seed := uint64(7); seed < 12 && !caught; seed++ {
		s := txnPlane(seed)
		ops := check.CaptureTxnHistory(s, check.TxnCaptureConfig{
			Clients: 4, Waves: 10, Keys: 4, TxnKeys: 2,
			ReadFraction: 0.5, TxnFraction: 0.3,
			Seed:         seed,
			NoEffect:     txnCleanAbort,
			BetweenWaves: func(wave int) { s.SetDirtyReads(wave >= 2) },
		})
		s.SetDirtyReads(false)
		caught = !check.CheckTxns(ops).OK
		if caught {
			// Same config with the injection off: the verdict flips back.
			// A fresh plane, because the checker models a store that
			// starts empty and the dirty run left unexplained residue.
			fresh := txnPlane(seed)
			clean := check.CaptureTxnHistory(fresh, check.TxnCaptureConfig{
				Clients: 3, Waves: 6, Keys: 4, TxnKeys: 2,
				Seed:     seed + 100,
				NoEffect: txnCleanAbort,
			})
			drainAndVerify(t, fresh, clean, "clean-after-dirty")
		}
	}
	if !caught {
		t.Fatal("dirty-read injection never produced a non-serializable history")
	}
}
