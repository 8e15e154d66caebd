// Range split and merge: crash-resumable three-phase topology changes
// (reserve → copy → commit, then trim/finish), driven by the Sharded
// coordinator against the replicated directory. Every data-plane step
// is idempotent, so an interrupted change is re-driven to completion by
// RecoverRanges from the directory's pending record — the same
// roll-forward discipline as transaction recovery.
//
// Splits and merges are fenced against transactions, not the other way
// around: freezing a span with live locks is refused (ErrRangeBusy) and
// the reserved change aborts, while a transaction touching a frozen span
// gets rspMoved and retries through the directory. A split racing an
// in-flight transaction therefore always resolves — one of them backs
// off, neither blocks, and no key is ever owned by zero or two ranges.
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
	if s.orphaned("split") {
		return ErrTxnOrphaned
	}
	return s.completeChange(p)
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
	if s.orphaned("merge") {
		return ErrTxnOrphaned
	}
	return s.completeChange(p)
}

// completeChange drives a reserved split or merge to completion. Either
// kind moves the span [p.Key, +inf) from a source range to a destination
// range: a split from p.Old to the new p.New, a merge from the absorbed
// p.Right to the surviving p.Old. The source is fenced and its cells
// adopted by the destination, routing commits, then the source is
// trimmed and the record retired. Every step is idempotent, so recovery
// can re-enter at any point.
func (s *Sharded) completeChange(p pendingChange) error {
	kind, src, dst := "merge", p.Right, p.Old
	commit, finish, abort := byte(dirOpMergeCommit), byte(dirOpMergeFinish), byte(dirOpMergeAbort)
	if p.Split {
		kind, src, dst = "split", p.Old, p.New
		commit, finish, abort = dirOpSplitCommit, dirOpSplitFinish, dirOpSplitAbort
	}
	dir := func(op byte) error {
		_, _, err := s.propose(0, dirMachineName, encDirU64(op, p.dirID()))
		return err
	}
	if !p.Committed {
		resp, _, err := s.proposeRange(src, encRmFreeze(nil, p.Key))
		if err != nil {
			return fmt.Errorf("kvstore: %s freeze: %w", kind, err)
		}
		if resp[0] == rspConflict {
			// Live locks in the span: abort the reservation cleanly.
			if err := dir(abort); err != nil {
				return err
			}
			return ErrRangeBusy
		}
		pairs := decodePairs(ha.NewDecoder(resp[1:]))
		// The destination spans from its own lower bound (p.Key for a
		// split's range, not yet routed) to the source's upper bound;
		// both still stand in the routing table until commit. Refresh
		// so the lookup never sees a stale cache.
		if err := s.refreshDir(); err != nil {
			return err
		}
		lo, hi := p.Key, ""
		for _, r := range s.rangesSnapshot() {
			if r.ID == dst {
				lo = r.Start
			}
			if r.ID == src {
				hi = r.End
			}
		}
		if _, _, err := s.proposeRange(dst, encRmAdopt(nil, lo, hi, pairs)); err != nil {
			return fmt.Errorf("kvstore: %s adopt: %w", kind, err)
		}
		if s.orphaned(kind + "-copy") {
			return ErrTxnOrphaned
		}
		if err := dir(commit); err != nil {
			return fmt.Errorf("kvstore: %s commit: %w", kind, err)
		}
		if s.orphaned(kind + "-commit") {
			return ErrTxnOrphaned
		}
	}
	// Routing switched: drop the moved span from the source, which also
	// lifts its fence by shrinking hi to p.Key. A merged-away source keeps
	// the empty span [p.Key, p.Key), so every later op gets rspMoved; p.Key
	// is never "" there, as an absorbed range always has a left neighbor.
	if _, _, err := s.proposeRange(src, encRmTrim(nil, p.Key)); err != nil {
		return fmt.Errorf("kvstore: %s trim: %w", kind, err)
	}
	if err := dir(finish); err != nil {
		return err
	}
	s.Reg.Counter("range_" + kind + "s").Inc()
	return s.refreshDir()
}

// orphaned consumes the armed crash point if it is point, counting the
// range change it leaves behind for RecoverRanges.
func (s *Sharded) orphaned(point string) bool {
	if !s.takeCrash(point) {
		return false
	}
	s.Reg.Counter("range_change_orphaned").Inc()
	return true
}

// RecoverRanges completes every interrupted split/merge recorded in the
// directory; one not yet committed whose span still holds live locks
// aborts cleanly instead. Returns how many changes resolved.
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
		switch derr := s.completeChange(p); {
		case derr == nil:
			s.Reg.Counter("range_changes_recovered").Inc()
			n++
		case errors.Is(derr, ErrRangeBusy):
			// Aborted — not a failure.
			n++
		default:
			return n, derr
		}
	}
	return n, nil
}
