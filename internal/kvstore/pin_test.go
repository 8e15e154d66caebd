package kvstore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"testing"

	"repro/internal/ha"
	"repro/internal/rng"
)

// commandStream drives one Sharded store through a seeded mix and returns
// a SHA-256 over everything the coordinator's commands decide: every
// return value and error, VirtualCost after each op, the ha_proposals,
// ha_compactions and ha_snapshot_bytes counters, and every machine's
// final snapshot as its group's leader holds it.
//
// The mix has Txns of 1–4 keys across four ranges (read-only, write-only,
// tombstone writes, keys both read and written), Puts, Gets and Deletes,
// dirty reads for a stretch, one Split and one Merge mid-stream, and two
// orphaned Txns whose locks block later ops until RecoverTxns resolves
// them: one before the commit point (aborted) and one after (resumed).
func commandStream(t *testing.T, seed uint64) (string, *Sharded) {
	t.Helper()
	ctx := context.Background()
	s := NewSharded(ShardedConfig{
		Seed: seed, Groups: 2, InitialSplits: []string{"k10", "k20", "k30"},
		MaxOpAttempts: 3, MaxTxnAttempts: 2,
	})
	r := rng.New(seed)
	h := sha256.New()
	u64 := func(v uint64) { h.Write(binary.BigEndian.AppendUint64(nil, v)) }
	blob := func(b []byte) { u64(uint64(len(b))); h.Write(b) }
	errText := func(err error) {
		if err != nil {
			blob([]byte(err.Error()))
		} else {
			u64(0)
		}
	}
	key := func() string { return fmt.Sprintf("k%02d", r.Intn(40)) }
	val := func() []byte {
		if r.Intn(6) == 0 {
			return nil // a tombstone inside a Txn, an empty value in a Put
		}
		v := make([]byte, 1+r.Intn(24))
		r.Bytes(v)
		return v
	}
	for step := 0; step < 400; step++ {
		switch step {
		case 120:
			errText(s.Split("k15"))
		case 220:
			errText(s.Merge("k20"))
		case 150, 300:
			// The orphan locks a key in every range; the Txn after it
			// prepares k01 before it meets a lock, and the Put meets one.
			if err := s.OrphanNext(map[int]string{150: "before-commit", 300: "apply"}[step]); err != nil {
				t.Fatal(err)
			}
			_, err := s.Txn(ctx, []string{"k05", "k25"}, map[string][]byte{"k12": val(), "k35": nil, "k25": val()})
			errText(err)
			_, err = s.Txn(ctx, []string{"k01"}, map[string][]byte{"k01": val(), "k35": val()})
			errText(err)
			errText(s.Put(ctx, "k12", val()))
		case 170, 320:
			rec, err := s.RecoverTxns()
			errText(err)
			u64(uint64(rec.Resumed))
			u64(uint64(rec.Aborted))
		case 250:
			s.SetDirtyReads(true)
		case 280:
			s.SetDirtyReads(false)
		}
		switch x := r.Intn(10); {
		case x < 5:
			var reads []string
			writes := map[string][]byte{}
			for n := 1 + r.Intn(4); n > 0; n-- {
				k := key()
				switch r.Intn(3) {
				case 0:
					reads = append(reads, k)
				case 1:
					writes[k] = val()
				default:
					reads = append(reads, k)
					writes[k] = val()
				}
			}
			got, err := s.Txn(ctx, reads, writes)
			errText(err)
			u64(uint64(len(got)))
			for _, k := range sortedKeys(got) {
				blob([]byte(k))
				blob(got[k])
			}
		case x < 7:
			errText(s.Put(ctx, key(), val()))
		case x < 9:
			v, found, err := s.Get(ctx, key())
			errText(err)
			u64(map[bool]uint64{false: 0, true: 1}[found])
			blob(v)
		default:
			errText(s.Delete(ctx, key()))
		}
		u64(uint64(s.VirtualCost()))
	}
	for _, c := range []string{"ha_proposals", "ha_compactions", "ha_snapshot_bytes"} {
		u64(uint64(s.Reg.Counter(c).Value()))
	}
	hashMachines(t, s, h)
	return hex.EncodeToString(h.Sum(nil)), s
}

// hashMachines writes every machine's snapshot, by group and name: the
// control machines on group 0, then every range machine ever minted.
func hashMachines(t *testing.T, s *Sharded, h hash.Hash) {
	t.Helper()
	snap := func(group int, name string) {
		err := s.Group(group).Query(name, func(sm ha.StateMachine) error {
			b := sm.Snapshot()
			h.Write(binary.BigEndian.AppendUint64([]byte(name), uint64(len(b))))
			h.Write(b)
			return nil
		})
		if err != nil {
			t.Fatalf("query %s on group %d: %v", name, group, err)
		}
	}
	snap(0, dirMachineName)
	snap(0, txnMachineName)
	s.mu.Lock()
	names := slices.Clone(s.names)
	s.mu.Unlock()
	for id, name := range names {
		snap(s.groupOf(uint64(id)), name)
	}
}

// TestShardedCommandStreamPinned pins the coordinator's proposals through
// what they leave behind. The constants were recorded on the commit
// before the coordinator encoded its commands into a reused stack buffer
// and routed a transaction's keys one range at a time; every proposed
// command was to stay byte-identical. Each run must also reach every
// coordinator path the pin is meant to cover.
func TestShardedCommandStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{42, "35dad661a1ecca39feaf08051f3ea0d30e4dd1879e592d3c0e269573c3b10a28"},
		{7, "6f283b79ae57a0332297db197338bd1270caa9d2e5604cfffaebd00b4bd5eeb4"},
	} {
		got, s := commandStream(t, tc.seed)
		if got != tc.want {
			t.Errorf("seed %d: stream digest %s, want %s", tc.seed, got, tc.want)
		}
		for _, c := range []string{
			"sharded_puts", "sharded_gets", "sharded_deletes", "sharded_lock_retries",
			"txn_committed", "txn_conflicts", "txn_aborted", "txn_orphaned",
			"txn_recovered_aborted", "txn_recovered_resumed", "range_splits", "range_merges",
		} {
			if s.Reg.Counter(c).Value() == 0 {
				t.Errorf("seed %d: the mix never moved %s", tc.seed, c)
			}
		}
	}
}
