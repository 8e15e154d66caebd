// Range split and merge: crash-resumable three-phase topology changes
// (reserve → copy → commit, then trim/finish), driven by the Sharded
// coordinator against the replicated directory. Every data-plane step
// is idempotent, so an interrupted change is re-driven to completion by
// RecoverRanges from the directory's pending record — the same
// roll-forward discipline as transaction recovery.
//
// Splits and merges are fenced against transactions, not the other way
// around: freezing a span with live locks is refused (ErrRangeBusy) and
// the change aborts at the reserve stage, while a transaction touching
// a frozen span gets rspMoved and retries through the directory. A
// split racing an in-flight transaction therefore always resolves —
// one of them backs off, neither blocks, and no key is ever owned by
// zero or two ranges.
package kvstore

import (
	"errors"
	"fmt"

	"repro/internal/ha"
)

// Split carves the range containing key at key: [lo, hi) becomes
// [lo, key) + [key, hi), the new right half living on group newID %
// Groups. Returns ErrRangeBusy when in-flight transactions hold locks
// in the moving span.
func (s *Sharded) Split(key string) error {
	r, err := s.locate(key)
	if err != nil {
		return err
	}
	if key == r.Start {
		return fmt.Errorf("kvstore: split at %q: already a range boundary", key)
	}
	resp, _, err := s.propose(0, dirMachineName, encDirSplitReserve(r.ID, key))
	if err != nil {
		return fmt.Errorf("kvstore: split reserve: %w", err)
	}
	if resp[0] != rspOK {
		return fmt.Errorf("kvstore: split at %q: %w", key, ErrRangeBusy)
	}
	d := ha.NewDecoder(resp[1:])
	p := pendingChange{Split: true, Old: r.ID, New: d.U64(), Key: key}
	if s.takeCrash("split") {
		s.Reg.Counter("range_change_orphaned").Inc()
		return ErrTxnOrphaned
	}
	return s.completeSplit(p)
}

// completeSplit drives a reserved split to completion; every step is
// idempotent so recovery can re-enter at any point.
func (s *Sharded) completeSplit(p pendingChange) error {
	if !p.Committed {
		// Fence [key, +inf) on the source and collect the moving cells.
		resp, _, err := s.proposeRange(p.Old, encRmFreeze(nil, p.Key))
		if err != nil {
			return fmt.Errorf("kvstore: split freeze: %w", err)
		}
		if resp[0] == rspConflict {
			// Live locks in the span: abort the reservation cleanly.
			if _, _, err := s.propose(0, dirMachineName, encDirU64(dirOpSplitAbort, p.New)); err != nil {
				return err
			}
			return ErrRangeBusy
		}
		d := ha.NewDecoder(resp[1:])
		pairs := decodePairs(d)
		// Old bounds of the source tell the new range its upper bound;
		// refresh first so the lookup never sees a stale cache.
		if err := s.refreshDir(); err != nil {
			return err
		}
		var oldHi string
		for _, r := range s.rangesSnapshot() {
			if r.ID == p.Old {
				oldHi = r.End
			}
		}
		if _, _, err := s.proposeRange(p.New, encRmAdopt(nil, p.Key, oldHi, pairs)); err != nil {
			return fmt.Errorf("kvstore: split adopt: %w", err)
		}
		if s.takeCrash("split-copy") {
			s.Reg.Counter("range_change_orphaned").Inc()
			return ErrTxnOrphaned
		}
		if _, _, err := s.propose(0, dirMachineName, encDirU64(dirOpSplitCommit, p.New)); err != nil {
			return fmt.Errorf("kvstore: split commit: %w", err)
		}
		if s.takeCrash("split-commit") {
			s.Reg.Counter("range_change_orphaned").Inc()
			return ErrTxnOrphaned
		}
	}
	// Routing switched: drop the moved span from the source (also lifts
	// its fence by shrinking hi to the split key) and retire the record.
	if _, _, err := s.proposeRange(p.Old, encRmTrim(nil, p.Key)); err != nil {
		return fmt.Errorf("kvstore: split trim: %w", err)
	}
	if _, _, err := s.propose(0, dirMachineName, encDirU64(dirOpSplitFinish, p.New)); err != nil {
		return err
	}
	s.Reg.Counter("range_splits").Inc()
	return s.refreshDir()
}

// Merge absorbs the range to the right of the range containing key:
// [lo, mid) + [mid, hi) become [lo, hi) on the left range's machine.
func (s *Sharded) Merge(key string) error {
	left, err := s.locate(key)
	if err != nil {
		return err
	}
	resp, _, err := s.propose(0, dirMachineName, encDirU64(dirOpMergeReserve, left.ID))
	if err != nil {
		return fmt.Errorf("kvstore: merge reserve: %w", err)
	}
	if resp[0] != rspOK {
		return fmt.Errorf("kvstore: merge at %q: %w", key, ErrRangeBusy)
	}
	d := ha.NewDecoder(resp[1:])
	rightID := d.U64()
	d.U32() // right group (derivable; kept in the response for tooling)
	rightLo := d.String()
	p := pendingChange{Old: left.ID, Right: rightID, Key: rightLo}
	if s.takeCrash("merge") {
		s.Reg.Counter("range_change_orphaned").Inc()
		return ErrTxnOrphaned
	}
	return s.completeMerge(p)
}

// completeMerge drives a reserved merge to completion (idempotent).
func (s *Sharded) completeMerge(p pendingChange) error {
	// The absorbed range's lower bound rides the pending record (p.Key);
	// the other bounds come from the routing table, which still lists
	// both halves until commit. Refresh so the lookup is never stale.
	if !p.Committed {
		if err := s.refreshDir(); err != nil {
			return err
		}
	}
	var leftLo, rightHi string
	for _, r := range s.rangesSnapshot() {
		switch r.ID {
		case p.Old:
			leftLo = r.Start
		case p.Right:
			rightHi = r.End
		}
	}
	if !p.Committed {
		// Fence the entire right range and collect its cells.
		resp, _, err := s.proposeRange(p.Right, encRmFreeze(nil, p.Key))
		if err != nil {
			return fmt.Errorf("kvstore: merge freeze: %w", err)
		}
		if resp[0] == rspConflict {
			if _, _, err := s.propose(0, dirMachineName, encDirU64(dirOpMergeAbort, p.Old)); err != nil {
				return err
			}
			return ErrRangeBusy
		}
		d := ha.NewDecoder(resp[1:])
		pairs := decodePairs(d)
		// Extend the left range's bounds and install the copied cells.
		if _, _, err := s.proposeRange(p.Old, encRmAdopt(nil, leftLo, rightHi, pairs)); err != nil {
			return fmt.Errorf("kvstore: merge adopt: %w", err)
		}
		if _, _, err := s.propose(0, dirMachineName, encDirU64(dirOpMergeCommit, p.Old)); err != nil {
			return fmt.Errorf("kvstore: merge commit: %w", err)
		}
	}
	// Retire the absorbed machine: trim from its own lower bound leaves
	// it owning the empty span [lo, lo) — every future op gets rspMoved.
	// (p.Key is never "", because the absorbed range always has a left
	// neighbor, so the trim can't accidentally widen hi to +inf.)
	if _, _, err := s.proposeRange(p.Right, encRmTrim(nil, p.Key)); err != nil {
		return fmt.Errorf("kvstore: merge retire: %w", err)
	}
	if _, _, err := s.propose(0, dirMachineName, encDirU64(dirOpMergeFinish, p.Old)); err != nil {
		return err
	}
	s.Reg.Counter("range_merges").Inc()
	return s.refreshDir()
}

// RecoverRanges completes every interrupted split/merge recorded in the
// directory. Changes still blocked by live locks abort cleanly (splits)
// or stay pending for the next pass. Returns how many changes resolved.
func (s *Sharded) RecoverRanges() (int, error) {
	var pend []pendingChange
	err := s.groups[0].Query(dirMachineName, func(sm ha.StateMachine) error {
		pend = sm.(*dirMachine).pendingChanges()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("kvstore: range recovery scan: %w", err)
	}
	if err := s.refreshDir(); err != nil {
		return 0, err
	}
	n := 0
	for _, p := range pend {
		var derr error
		if p.Split {
			derr = s.completeSplit(p)
		} else {
			derr = s.completeMerge(p)
		}
		switch {
		case derr == nil:
			s.Reg.Counter("range_changes_recovered").Inc()
			n++
		case errors.Is(derr, ErrRangeBusy):
			// Aborted (split) or deferred — not a failure.
			n++
		default:
			return n, derr
		}
	}
	return n, nil
}
