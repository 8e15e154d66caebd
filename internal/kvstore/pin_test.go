package kvstore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
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

// rangeChangeCases drives split and merge through every way they can
// stop short and then runs RecoverRanges, hashing what each case leaves:
// the errors and counts returned, every key's value, Ranges(), every
// machine's snapshot (the dir machine's and each range's bounds among
// them), VirtualCost and the range-change counters. A live lock comes
// from a Txn orphaned before its commit point.
func rangeChangeCases(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	u64 := func(v uint64) { h.Write(binary.BigEndian.AppendUint64(nil, v)) }
	str := func(s string) { u64(uint64(len(s))); h.Write([]byte(s)) }
	errText := func(err error) {
		if err != nil {
			str(err.Error())
		} else {
			u64(0)
		}
	}
	for _, tc := range []struct {
		name   string
		merge  bool   // merge the two initial ranges; else split at k10
		crash  string // armed before the change, "" for none
		locked string // key an orphaned Txn holds a lock on, "" for none
	}{
		{"split", false, "split", ""},
		{"split-copy", false, "split-copy", ""},
		{"split-commit", false, "split-commit", ""},
		{"merge", true, "merge", ""},
		{"split-busy", false, "", "k15"},
		{"merge-busy", true, "", "k15"},
		{"split-busy-recovery", false, "split", "k15"},
		{"merge-busy-recovery", true, "merge", "k15"},
	} {
		cfg := ShardedConfig{Seed: 42, Groups: 2, MaxOpAttempts: 4}
		if tc.merge {
			cfg.InitialSplits = []string{"k10"}
		}
		s := NewSharded(cfg)
		for i := 0; i < 20; i++ {
			mustPut(t, s, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
		}
		if tc.locked != "" {
			orphanTxn(t, s, "before-commit", nil, map[string][]byte{tc.locked: []byte("locked")})
		}
		if tc.crash != "" {
			if err := s.OrphanNext(tc.crash); err != nil {
				t.Fatal(err)
			}
		}
		str(tc.name)
		var err error
		if tc.merge {
			err = s.Merge("k05")
		} else {
			err = s.Split("k10")
		}
		if want := map[bool]error{false: ErrRangeBusy, true: ErrTxnOrphaned}[tc.crash != ""]; !errors.Is(err, want) {
			t.Fatalf("%s: change = %v, want %v", tc.name, err, want)
		}
		errText(err)
		n, err := s.RecoverRanges()
		if err != nil || n != map[bool]int{false: 0, true: 1}[tc.crash != ""] {
			t.Fatalf("%s: RecoverRanges = (%d, %v)", tc.name, n, err)
		}
		u64(uint64(n))
		for i := 0; i < 20; i++ {
			v, found, err := s.Get(context.Background(), fmt.Sprintf("k%02d", i))
			errText(err)
			u64(map[bool]uint64{false: 0, true: 1}[found])
			str(string(v))
		}
		for _, r := range s.Ranges() {
			u64(r.ID)
			str(r.Start)
			str(r.End)
			u64(uint64(r.Group))
		}
		hashMachines(t, s, h)
		u64(uint64(s.VirtualCost()))
		for _, c := range []string{"range_splits", "range_merges", "range_change_orphaned", "range_changes_recovered"} {
			u64(uint64(s.Reg.Counter(c).Value()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRangeChangesPinned pins split and merge completion and recovery:
// the constant was recorded on the commit before the two completion
// paths became one driver, which was to change none of these outcomes.
func TestRangeChangesPinned(t *testing.T) {
	const want = "261bf88844ec10789899226f75a5c52e45d342c13eacc39668f2ee8ed9da76e5"
	if got := rangeChangeCases(t); got != want {
		t.Errorf("range change digest %s, want %s", got, want)
	}
}
