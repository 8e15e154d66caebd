// Cross-range transactions: two-phase commit over the range machines,
// with the transaction record replicated in the txn machine (see
// txnmachine.go). The protocol, per transaction:
//
//	begin    — replicate the record: participants + write set (pending)
//	prepare  — per range, in sorted range order: take exclusive locks on
//	           every touched key and observe the read values. A lock
//	           conflict aborts immediately (no waiting → no deadlocks)
//	           and the coordinator retries the whole transaction.
//	commit   — replicate tMarkCommit(id, version). THE commit point.
//	apply    — per range: install writes at the commit version, release
//	           locks (idempotent — recovery may replay it).
//	done     — retire the record.
//
// A coordinator crash at any point leaves the replicated record as the
// single source of truth: RecoverTxns aborts pending records (releasing
// their locks) and re-drives committed ones to completion. Locks can
// therefore never leak past a recovery pass, and the commit/abort
// decision is deterministic — exactly one of the two, decided by
// whether tMarkCommit reached the Raft log.
package kvstore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/ha"
)

// errRetryTxn signals the Txn retry loop that the attempt aborted
// cleanly (conflict or stale routing) and should be retried.
var errRetryTxn = errors.New("kvstore: retry transaction")

// txnPart groups one range's share of a transaction.
type txnPart struct {
	rid      uint64
	lockKeys []string // every touched key, sorted
	readKeys []string // subset to observe
	writes   []rmWrite
}

// Txn atomically reads the `reads` keys and applies `writes` (a nil
// value writes a tombstone). It returns the read values — absent keys
// are omitted from the map — observed at the serialization point.
//
// Error semantics (the capture harness and callers rely on these):
//   - ErrTxnConflict, ErrTxnAborted, ErrDeadlineExceeded: no effect,
//     guaranteed — locks released before returning.
//   - ErrTxnOrphaned: outcome deferred to RecoverTxns (abort or resume).
//   - other errors: outcome unknown (treat as pending).
func (s *Sharded) Txn(ctx context.Context, reads []string, writes map[string][]byte) (map[string][]byte, error) {
	b, err := newOpBudget(ctx)
	if err != nil {
		s.Reg.Counter("deadline_exceeded").Inc()
		return nil, err
	}
	for attempt := 0; attempt < s.cfg.MaxTxnAttempts; attempt++ {
		res, err := s.tryTxn(&b, reads, writes)
		if errors.Is(err, errRetryTxn) {
			s.Reg.Counter("txn_retries").Inc()
			continue
		}
		return res, err
	}
	s.Reg.Counter("txn_conflict_exhausted").Inc()
	return nil, ErrTxnConflict
}

// partition routes the transaction's keys into per-range parts, in
// ascending range-id order (the order every coordinator prepares in). ids
// lists the parts' range ids, and flat holds the writes in the same order:
// it is the begin record's write set, and each part's writes is its run.
//
// A range owns one key interval, so a part's lock keys are one run of the
// sorted unique keys and its read keys one run of the sorted read set: one
// table lookup routes a whole part. Every part is routed through the same
// directory snapshot, so no range gets two parts, and partition allocates
// four arrays whatever the key count: the keys (whose spare tail holds the
// read set), the parts, ids and flat.
func (s *Sharded) partition(reads []string, writes map[string][]byte) (parts []txnPart, ids []uint64, flat []rmWrite, err error) {
	n := len(reads) + len(writes)
	buf := make([]string, n+len(reads))
	keys := append(buf[:0:n], reads...)
	for k := range writes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	readSet := buf[n:]
	copy(readSet, reads)
	slices.Sort(readSet)
	readSet = slices.Compact(readSet)

	parts = make([]txnPart, 0, len(keys))
	for attempt := 0; ; attempt++ {
		var unrouted []string
		if parts, unrouted = routeRuns(parts[:0], s.rangesSnapshot(), keys, readSet); len(unrouted) == 0 {
			break
		}
		if attempt == 1 {
			return nil, nil, nil, fmt.Errorf("kvstore: no range owns key %q", unrouted[0])
		}
		if err := s.refreshDir(); err != nil {
			return nil, nil, nil, err
		}
	}
	slices.SortFunc(parts, func(a, b txnPart) int { return cmp.Compare(a.rid, b.rid) })

	ids = make([]uint64, len(parts))
	flat = make([]rmWrite, 0, len(writes))
	for i := range parts {
		p, from := &parts[i], len(flat)
		ids[i] = p.rid
		for _, k := range p.lockKeys {
			if v, ok := writes[k]; ok {
				flat = append(flat, rmWrite{Key: k, Val: v, Del: v == nil})
			}
		}
		p.writes = flat[from:]
	}
	return parts, ids, flat, nil
}

// routeRuns appends to parts one part per range of rs that owns some of
// keys, in key order: its run of keys and its run of readSet, a sorted
// subset of keys. It stops at the first key no range of rs owns and
// returns the keys from there on.
func routeRuns(parts []txnPart, rs []RangeInfo, keys, readSet []string) ([]txnPart, []string) {
	for len(keys) > 0 {
		r, ok := owner(rs, keys[0])
		if !ok {
			return parts, keys
		}
		nk, nr := len(keys), len(readSet)
		if r.End != "" {
			nk, _ = slices.BinarySearch(keys, r.End)
			nr, _ = slices.BinarySearch(readSet, r.End)
		}
		parts = append(parts, txnPart{rid: r.ID, lockKeys: keys[:nk:nk], readKeys: readSet[:nr:nr]})
		keys, readSet = keys[nk:], readSet[nr:]
	}
	return parts, nil
}

func (s *Sharded) tryTxn(b *opBudget, reads []string, writes map[string][]byte) (map[string][]byte, error) {
	if b.exhausted() {
		s.Reg.Counter("deadline_exceeded").Inc()
		return nil, ErrDeadlineExceeded
	}
	parts, partIDs, flatWrites, err := s.partition(reads, writes)
	if err != nil {
		return nil, err
	}
	id := s.nextTxnID()
	// Every command of this attempt is encoded into buf in turn: Propose
	// has copied each into its envelope by the time it returns.
	var buf cmdBuf

	// 1. Replicate the transaction record.
	resp, c, err := s.propose(0, txnMachineName, encTxBegin(buf[:], id, partIDs, flatWrites))
	if err != nil {
		// The record may or may not exist; either way nothing is locked
		// and nothing can commit it — recovery retires it as aborted.
		return nil, fmt.Errorf("kvstore: txn %d begin: %w", id, ErrTxnOrphaned)
	}
	// The table's closedBelow rides on this transaction's range commands.
	closed := ha.NewDecoder(resp[1:]).U64()
	if resp[0] == rspAborted {
		// A later id began first, closing this one: retry under a fresh id.
		return nil, errRetryTxn
	}
	if resp[0] != rspOK {
		return nil, fmt.Errorf("kvstore: txn %d begin: status %d", id, resp[0])
	}
	if cerr := b.charge(c); cerr != nil {
		s.abortTxn(buf[:], id, closed, nil)
		s.Reg.Counter("deadline_exceeded").Inc()
		return nil, cerr
	}
	if s.takeCrash("begin") {
		s.Reg.Counter("txn_orphaned").Inc()
		return nil, ErrTxnOrphaned
	}

	// 2. Prepare every participant in sorted range order.
	readVals := make(map[string][]byte, len(reads))
	for i, p := range parts {
		rid, prepared := p.rid, partIDs[:i]
		resp, c, err := s.proposeRange(rid, encRmPrepare(buf[:], id, closed, s.dirtyReads(), p.lockKeys, p.readKeys))
		if err != nil {
			// Unknown outcome: this range may hold our locks.
			s.Reg.Counter("txn_orphaned").Inc()
			return nil, fmt.Errorf("kvstore: txn %d prepare range %d: %w", id, rid, ErrTxnOrphaned)
		}
		switch resp[0] {
		case rspOK:
			d := ha.NewDecoder(resp[1:])
			for _, k := range p.readKeys[:min(int(d.U32()), len(p.readKeys))] {
				if found, val := d.Bool(), d.Bytes(); found && d.Err() == nil {
					readVals[k] = val
				}
			}
		case rspConflict, rspLocked:
			s.Reg.Counter("txn_conflicts").Inc()
			s.abortTxn(buf[:], id, closed, prepared)
			return nil, errRetryTxn
		case rspMoved:
			s.Reg.Counter("txn_moved").Inc()
			s.abortTxn(buf[:], id, closed, prepared)
			if err := s.refreshDir(); err != nil {
				return nil, err
			}
			return nil, errRetryTxn
		case rspAborted:
			// Recovery raced us and aborted the record; earlier locks
			// are already released by its rAbort pass.
			return nil, ErrTxnAborted
		default:
			s.abortTxn(buf[:], id, closed, prepared)
			return nil, fmt.Errorf("kvstore: txn %d prepare range %d: status %d", id, rid, resp[0])
		}
		if cerr := b.charge(c); cerr != nil {
			s.abortTxn(buf[:], id, closed, partIDs[:i+1])
			s.Reg.Counter("deadline_exceeded").Inc()
			return nil, cerr
		}
		if s.takeCrash("prepare") {
			s.Reg.Counter("txn_orphaned").Inc()
			return nil, ErrTxnOrphaned
		}
	}
	if s.takeCrash("before-commit") {
		s.Reg.Counter("txn_orphaned").Inc()
		return nil, ErrTxnOrphaned
	}
	if b.exhausted() {
		// Last budget check before the point of no return: abort clean.
		s.abortTxn(buf[:], id, closed, partIDs)
		s.Reg.Counter("deadline_exceeded").Inc()
		return nil, ErrDeadlineExceeded
	}

	// 3. Commit point: one replicated record flips the transaction from
	// abortable to unabortable.
	ver := s.nextVersion()
	resp, c, err = s.propose(0, txnMachineName, encTxCommit(buf[:], id, ver))
	if err != nil {
		// The commit record may or may not be in the log — the classic
		// "partition spanning the commit point". Only recovery, reading
		// the replicated record, can tell.
		s.Reg.Counter("txn_orphaned").Inc()
		return nil, fmt.Errorf("kvstore: txn %d commit: %w", id, ErrTxnOrphaned)
	}
	if resp[0] == rspAborted {
		return nil, ErrTxnAborted
	}
	b.charge(c) // post-commit: account but never abandon
	s.Reg.Counter("txn_committed").Inc()
	if s.takeCrash("commit") {
		s.Reg.Counter("txn_orphaned").Inc()
		return nil, ErrTxnOrphaned
	}

	// 4. Apply on every participant, then retire the record. Failures
	// here leave a committed record that recovery re-drives.
	for _, p := range parts {
		rid := p.rid
		resp, _, err := s.proposeRange(rid, encRmApply(buf[:], id, closed, ver, p.writes))
		if err != nil || resp[0] != rspOK {
			s.Reg.Counter("txn_orphaned").Inc()
			return nil, fmt.Errorf("kvstore: txn %d apply range %d: %w", id, rid, ErrTxnOrphaned)
		}
		if s.takeCrash("apply") {
			s.Reg.Counter("txn_orphaned").Inc()
			return nil, ErrTxnOrphaned
		}
	}
	if _, _, err := s.propose(0, txnMachineName, encTxDone(buf[:], id)); err != nil {
		// Effects are fully applied; the lingering record is retired by
		// the next recovery pass. The transaction still succeeded.
		s.Reg.Counter("txn_done_deferred").Inc()
	}
	return readVals, nil
}

// abortTxn cleanly aborts an attempt: mark the record aborted, release
// locks on every prepared range and, once all acknowledged, retire the
// record. Errors are ignored — recovery finishes what this pass could not.
// Its commands are encoded into buf, the attempt's own.
func (s *Sharded) abortTxn(buf []byte, id, closed uint64, prepared []uint64) {
	if resp, _, err := s.propose(0, txnMachineName, encTxAbort(buf, id)); err != nil || resp[0] == rspCommitted {
		return // unreachable record or already committed: recovery's job
	}
	for _, rid := range prepared {
		if _, _, err := s.proposeRange(rid, encRmAbort(buf, id, closed)); err != nil {
			return
		}
	}
	s.propose(0, txnMachineName, encTxDone(buf, id)) //nolint:errcheck
	s.Reg.Counter("txn_aborted").Inc()
}

// TxnRecovery reports what RecoverTxns resolved.
type TxnRecovery struct {
	// Resumed transactions had a commit record: their writes were
	// re-applied to every participant and the record retired.
	Resumed int
	// Aborted transactions were still pending: every participant's
	// locks were released and the record retired.
	Aborted int
}

// RecoverTxns scans the replicated transaction table and resolves every
// record: pending → abort, committed → resume. Idempotent — a recovery
// pass that itself crashes is simply re-run; every step it replays is a
// no-op on ranges that already saw it.
func (s *Sharded) RecoverTxns() (TxnRecovery, error) {
	var out TxnRecovery
	var recs []txnRecSnap
	err := s.groups[0].Query(txnMachineName, func(sm ha.StateMachine) error {
		recs = sm.(*txnMachine).snapshotRecs()
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("kvstore: txn recovery scan: %w", err)
	}
	for _, rec := range recs {
		switch rec.Status {
		case txnStPending:
			// Abort-first: replicating the abort decision closes the
			// race with a live coordinator — its tMarkCommit afterwards
			// gets rspAborted and it gives up.
			resp, _, err := s.propose(0, txnMachineName, encTxAbort(nil, rec.ID))
			if err != nil {
				return out, fmt.Errorf("kvstore: recover txn %d: %w", rec.ID, err)
			}
			if resp[0] == rspCommitted {
				// The coordinator committed between our scan and now.
				d := ha.NewDecoder(resp[1:])
				rec.Ver = d.U64()
				if err := s.resumeTxn(rec); err != nil {
					return out, err
				}
				out.Resumed++
				continue
			}
			if err := s.finishAbort(rec); err != nil {
				return out, err
			}
			out.Aborted++
		case txnStCommitted:
			if err := s.resumeTxn(rec); err != nil {
				return out, err
			}
			out.Resumed++
		case txnStAborted:
			// A previous recovery pass crashed mid-abort: finish it.
			if err := s.finishAbort(rec); err != nil {
				return out, err
			}
			out.Aborted++
		}
	}
	return out, nil
}

// finishAbort releases an aborted record's locks on every participant
// and retires it. Recovery ran no begin, so it sends no watermark (0).
func (s *Sharded) finishAbort(rec txnRecSnap) error {
	var buf cmdBuf
	for _, rid := range rec.Parts {
		if _, _, err := s.proposeRange(rid, encRmAbort(buf[:], rec.ID, 0)); err != nil {
			return fmt.Errorf("kvstore: recover txn %d abort range %d: %w", rec.ID, rid, err)
		}
	}
	if _, _, err := s.propose(0, txnMachineName, encTxDone(buf[:], rec.ID)); err != nil {
		return err
	}
	s.Reg.Counter("txn_recovered_aborted").Inc()
	return nil
}

// resumeTxn re-drives a committed transaction to completion. The write
// set is routed through the current directory — safe because every
// touched key is still locked by this txn, and ranges with locks cannot
// have split or merged away from under it (freeze refuses spans with
// live locks).
func (s *Sharded) resumeTxn(rec txnRecSnap) error {
	byRange := map[uint64][]rmWrite{}
	for _, w := range rec.Writes {
		r, err := s.locate(w.Key)
		if err != nil {
			return err
		}
		byRange[r.ID] = append(byRange[r.ID], w)
	}
	// Apply to every recorded participant — including read-only ones,
	// whose locks must be released too.
	var buf cmdBuf
	for _, rid := range rec.Parts {
		resp, _, err := s.proposeRange(rid, encRmApply(buf[:], rec.ID, 0, rec.Ver, byRange[rid]))
		if err != nil {
			return fmt.Errorf("kvstore: resume txn %d range %d: %w", rec.ID, rid, err)
		}
		if resp[0] != rspOK {
			return fmt.Errorf("kvstore: resume txn %d range %d: status %d", rec.ID, rid, resp[0])
		}
	}
	if _, _, err := s.propose(0, txnMachineName, encTxDone(buf[:], rec.ID)); err != nil {
		return err
	}
	s.Reg.Counter("txn_recovered_resumed").Inc()
	return nil
}
