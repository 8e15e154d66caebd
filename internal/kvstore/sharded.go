// Sharded is the range-sharded data plane: the keyspace is partitioned
// into contiguous ranges, each range is its own replicated state
// machine (rangeMachine) on a 3-member Raft group, and range machines
// are multiplexed onto a small fixed set of groups by id (range id %
// Groups). Group 0 additionally hosts the control machines: the range
// directory ("dir") and the transaction-record table ("txn").
//
// Compared with the quorum Store (store.go), every operation here is a
// Raft log command, so a range serves linearizable reads and writes as
// long as its group has a quorum — and multi-key atomicity comes from
// the 2PC coordinator in txn.go whose commit point is itself a
// replicated record. Latency is modeled in virtual time: each proposal
// costs proposeCost plus tickCost per consensus tick it consumed, which
// keeps runs deterministic and lets admission budgets (context virtual
// deadlines) propagate into the transactional path.
package kvstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/ha"
	"repro/internal/metrics"
)

// Typed errors of the sharded plane.
var (
	// ErrKeyLocked: a single-key op kept losing to in-flight transaction
	// locks (or an in-progress split) for all its attempts. The op took
	// no effect.
	ErrKeyLocked = errors.New("kvstore: key locked or range busy, retries exhausted")
	// ErrTxnConflict: the transaction lost its lock conflicts on every
	// attempt and was cleanly aborted. No effect.
	ErrTxnConflict = errors.New("kvstore: transaction conflict, aborted")
	// ErrTxnAborted: recovery resolved this transaction as aborted while
	// the coordinator was still working. No effect.
	ErrTxnAborted = errors.New("kvstore: transaction aborted by recovery")
	// ErrTxnOrphaned: the coordinator crashed (simulated) or lost its
	// group mid-protocol. The outcome is owned by the replicated txn
	// record now: RecoverTxns will abort it (no commit record) or resume
	// it (commit record present) — never leave it dangling.
	ErrTxnOrphaned = errors.New("kvstore: transaction orphaned, awaiting recovery")
	// ErrRangeBusy: a split/merge could not fence its span because
	// transactions hold locks there; try again later.
	ErrRangeBusy = errors.New("kvstore: range busy, split/merge deferred")
)

// ShardedConfig parameterizes the sharded store.
type ShardedConfig struct {
	// Groups is the number of Raft groups the range machines are spread
	// over. Default 2. Group 0 also carries the dir and txn machines.
	Groups int
	// Seed drives every group's election timers.
	Seed uint64
	// InitialSplits pre-carves the keyspace at these boundaries (sorted,
	// interior). Empty means one range owning everything.
	InitialSplits []string
	// MaxOpAttempts bounds a single-key op's moved/locked retries.
	// Default 24.
	MaxOpAttempts int
	// MaxTxnAttempts bounds a transaction's conflict retries. Default 8.
	MaxTxnAttempts int
}

// The virtual latency model: each proposal costs proposeCost plus
// tickCost per consensus tick it consumed.
const (
	proposeCost = 120 * time.Microsecond
	tickCost    = 25 * time.Microsecond
)

// Sharded is the range-sharded, transactional KV store.
type Sharded struct {
	cfg    ShardedConfig
	groups []*ha.Group
	// Reg carries the data-plane counters (txn_*, range_*, sharded_*).
	Reg *metrics.Registry

	mu        sync.Mutex
	clock     uint64 // global version clock (Lamport-style)
	nextTxn   uint64 // transaction id allocator
	dirty     bool   // dirty-read fault injection
	crashNext string // one-shot coordinator crash point
	cost      time.Duration
	names     []string // range machine names by id (machineName)
	// ranges is the directory cache. refreshDir (on rspMoved) replaces it
	// wholesale and nothing writes an element: readers share the slice.
	ranges []RangeInfo
}

// NewSharded builds the groups, initializes the directory and adopts
// the initial ranges.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Groups <= 0 {
		cfg.Groups = 2
	}
	if cfg.MaxOpAttempts <= 0 {
		cfg.MaxOpAttempts = 24
	}
	if cfg.MaxTxnAttempts <= 0 {
		cfg.MaxTxnAttempts = 8
	}
	sort.Strings(cfg.InitialSplits)
	s := &Sharded{cfg: cfg, Reg: metrics.NewRegistry()}
	dynamic := func(string) ha.StateMachine { return newRangeMachine() }
	for g := 0; g < cfg.Groups; g++ {
		hc := ha.Config{
			Seed:    cfg.Seed + uint64(g)*0x9e3779b97f4a7c15,
			Dynamic: dynamic,
			Metrics: s.Reg, // ha_* counters summed across groups
		}
		if g == 0 {
			hc.Machines = map[string]func() ha.StateMachine{
				dirMachineName: func() ha.StateMachine { return newDirMachine() },
				txnMachineName: func() ha.StateMachine { return newTxnMachine() },
			}
		}
		s.groups = append(s.groups, ha.NewGroup(hc))
	}
	if _, _, err := s.propose(0, dirMachineName, encDirInit(cfg.Groups, cfg.InitialSplits)); err != nil {
		panic(fmt.Sprintf("kvstore: directory init failed: %v", err))
	}
	if err := s.refreshDir(); err != nil {
		panic(fmt.Sprintf("kvstore: directory read failed: %v", err))
	}
	// Adopt bounds on every initial range machine so bounds checks hold
	// from the first op.
	for _, r := range s.rangesSnapshot() {
		if _, _, err := s.proposeRange(r.ID, encRmAdopt(r.Start, r.End, nil)); err != nil {
			panic(fmt.Sprintf("kvstore: range %d adopt failed: %v", r.ID, err))
		}
	}
	return s
}

// machineName returns range id's machine name, minted once (ids are dense).
func (s *Sharded) machineName(id uint64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for uint64(len(s.names)) <= id {
		s.names = append(s.names, "range-"+strconv.Itoa(len(s.names)))
	}
	return s.names[id]
}

// groupOf maps a range id to its hosting Raft group.
func (s *Sharded) groupOf(id uint64) int { return int(id % uint64(s.cfg.Groups)) }

func (s *Sharded) proposeRange(id uint64, cmd []byte) ([]byte, time.Duration, error) {
	return s.propose(s.groupOf(id), s.machineName(id), cmd)
}

// propose submits one replicated command and charges its virtual cost.
func (s *Sharded) propose(group int, machine string, cmd []byte) ([]byte, time.Duration, error) {
	g := s.groups[group]
	before := g.Ticks()
	resp, err := g.Propose(machine, cmd)
	vcost := proposeCost + time.Duration(g.Ticks()-before)*tickCost
	s.mu.Lock()
	s.cost += vcost
	s.mu.Unlock()
	return resp, vcost, err
}

// VirtualCost returns the accumulated virtual latency of every proposal
// issued so far — the deterministic clock the perf trajectory windows by.
func (s *Sharded) VirtualCost() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cost
}

func (s *Sharded) nextVersion() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	return s.clock
}

func (s *Sharded) nextTxnID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextTxn++
	return s.nextTxn
}

// SetDirtyReads toggles the dirty-read fault injection: reads (single
// and transactional) bypass locks and serve the retained overwritten
// cell when one exists. Strict serializability must break — the txn
// checker proving it has teeth.
func (s *Sharded) SetDirtyReads(on bool) {
	s.mu.Lock()
	s.dirty = on
	s.mu.Unlock()
}

func (s *Sharded) dirtyReads() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirty
}

// Directory cache.

func (s *Sharded) refreshDir() error {
	var rs []RangeInfo
	err := s.groups[0].Query(dirMachineName, func(sm ha.StateMachine) error {
		rs = sm.(*dirMachine).snapshotRanges()
		return nil
	})
	if err != nil {
		return fmt.Errorf("kvstore: directory refresh: %w", err)
	}
	s.mu.Lock()
	s.ranges = rs
	s.mu.Unlock()
	return nil
}

// rangesSnapshot returns the cached routing table, read-only.
func (s *Sharded) rangesSnapshot() []RangeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ranges
}

// Ranges returns a copy of the current routing table (diagnostics and
// tests).
func (s *Sharded) Ranges() []RangeInfo { return slices.Clone(s.rangesSnapshot()) }

// RangeCount returns the number of ranges in the cached directory.
func (s *Sharded) RangeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ranges)
}

// locate routes a key through the cached directory, refreshing once on
// a cache miss (mid-change window).
func (s *Sharded) locate(key string) (RangeInfo, error) {
	for attempt := 0; attempt < 2; attempt++ {
		rs := s.rangesSnapshot()
		// Last range with Start <= key; ranges are sorted by Start.
		i := sort.Search(len(rs), func(i int) bool { return rs[i].Start > key }) - 1
		if i >= 0 {
			r := rs[i]
			if r.End == "" || key < r.End {
				return r, nil
			}
		}
		if err := s.refreshDir(); err != nil {
			return RangeInfo{}, err
		}
	}
	return RangeInfo{}, fmt.Errorf("kvstore: no range owns key %q", key)
}

// opBudget tracks an operation's remaining virtual deadline budget.
type opBudget struct {
	remaining time.Duration
	has       bool
}

func newOpBudget(ctx context.Context) (opBudget, error) {
	budget, has, err := ctxGate(ctx)
	return opBudget{remaining: budget, has: has}, err
}

// charge burns virtual cost; once the budget is exhausted it returns
// ErrDeadlineExceeded (callers decide whether the op already applied).
func (b *opBudget) charge(c time.Duration) error {
	if !b.has {
		return nil
	}
	b.remaining -= c
	if b.remaining < 0 {
		return ErrDeadlineExceeded
	}
	return nil
}

func (b *opBudget) exhausted() bool { return b.has && b.remaining <= 0 }

// Single-key operations. Each is one replicated command on the owning
// range, retried up to MaxOpAttempts through directory refreshes
// (rspMoved), transaction locks (rspLocked) and lost version races
// (rspStale). cmd encodes one attempt, so each carries a fresh version.
// Returns the response after its status byte.
func (s *Sharded) keyOp(ctx context.Context, op, key string, cmd func() []byte) ([]byte, error) {
	b, err := newOpBudget(ctx)
	if err != nil {
		s.Reg.Counter("deadline_exceeded").Inc()
		return nil, err
	}
	for attempt := 0; attempt < s.cfg.MaxOpAttempts; attempt++ {
		r, err := s.locate(key)
		if err != nil {
			return nil, err
		}
		resp, c, err := s.proposeRange(r.ID, cmd())
		if err != nil {
			return nil, fmt.Errorf("kvstore: %s %q: %w", op, key, err)
		}
		if cerr := b.charge(c); cerr != nil {
			s.Reg.Counter("deadline_exceeded").Inc()
			return nil, cerr
		}
		switch resp[0] {
		case rspOK:
			return resp[1:], nil
		case rspMoved:
			s.Reg.Counter("sharded_moved_retries").Inc()
			if err := s.refreshDir(); err != nil {
				return nil, err
			}
		case rspLocked:
			s.Reg.Counter("sharded_lock_retries").Inc()
		case rspStale:
			s.Reg.Counter("sharded_stale_retries").Inc()
		default:
			return nil, fmt.Errorf("kvstore: %s %q: unexpected status %d", op, key, resp[0])
		}
	}
	return nil, fmt.Errorf("kvstore: %s %q: %w", op, key, ErrKeyLocked)
}

// Put writes key=value. An ErrDeadlineExceeded return may still have
// applied (the command committed before the budget check, mirroring
// PutCtx on the quorum store); ErrKeyLocked guarantees no effect.
func (s *Sharded) Put(ctx context.Context, key string, value []byte) error {
	_, err := s.keyOp(ctx, "put", key, func() []byte { return encRmPut(key, value, s.nextVersion()) })
	if err == nil {
		s.Reg.Counter("sharded_puts").Inc()
	}
	return err
}

// Get reads key. Absent keys return found=false with a nil error.
func (s *Sharded) Get(ctx context.Context, key string) ([]byte, bool, error) {
	dirty := s.dirtyReads()
	resp, err := s.keyOp(ctx, "get", key, func() []byte { return encRmGet(key, dirty) })
	if err != nil {
		return nil, false, err
	}
	d := &wdec{buf: resp}
	found := d.boolv()
	s.Reg.Counter("sharded_gets").Inc()
	return d.blob(), found, nil
}

// Delete removes key (a versioned tombstone, so deletions survive
// migration and anti-entropy like any other write).
func (s *Sharded) Delete(ctx context.Context, key string) error {
	_, err := s.keyOp(ctx, "delete", key, func() []byte { return encRmDel(key, s.nextVersion()) })
	if err == nil {
		s.Reg.Counter("sharded_deletes").Inc()
	}
	return err
}

// Fault-injection and chaos surface.

// validCrashPoints lists the coordinator crash points OrphanNext accepts.
var validCrashPoints = map[string]bool{
	"begin": true, "prepare": true, "before-commit": true,
	"commit": true, "apply": true,
	"split": true, "split-copy": true, "split-commit": true, "merge": true,
}

// OrphanNext arms a one-shot coordinator crash at the named protocol
// point: the next transaction (or split/merge) to reach it returns
// ErrTxnOrphaned with its replicated state left exactly as a real
// coordinator crash would, for RecoverTxns/RecoverRanges to resolve.
// Points: begin, prepare, before-commit, commit, apply (transactions);
// split, split-copy, split-commit, merge (topology changes).
func (s *Sharded) OrphanNext(point string) error {
	if !validCrashPoints[point] {
		return fmt.Errorf("kvstore: unknown crash point %q", point)
	}
	s.mu.Lock()
	s.crashNext = point
	s.mu.Unlock()
	return nil
}

// takeCrash consumes the armed crash point if it matches.
func (s *Sharded) takeCrash(point string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashNext == point {
		s.crashNext = ""
		return true
	}
	return false
}

// Recover resolves all orphaned transactions and completes interrupted
// splits/merges — the chaos engine's "txn-recover" hook.
func (s *Sharded) Recover() error {
	if _, err := s.RecoverTxns(); err != nil {
		return err
	}
	_, err := s.RecoverRanges()
	return err
}

// Group returns Raft group i: tests and the experiments crash,
// partition and cut its members through it.
func (s *Sharded) Group(i int) *ha.Group { return s.groups[i] }

// Groups returns the number of Raft groups.
func (s *Sharded) Groups() int { return s.cfg.Groups }

// Introspection for invariant assertions.

// LockCount sums live transaction locks across all ranges — zero after
// recovery means no lock leaked.
func (s *Sharded) LockCount() (int, error) {
	total := 0
	for _, r := range s.rangesSnapshot() {
		if err := s.queryRange(r.ID, func(m *rangeMachine) { total += m.lockCount() }); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// PendingTxnRecords counts transaction records not yet retired.
func (s *Sharded) PendingTxnRecords() (int, error) {
	n := 0
	err := s.groups[0].Query(txnMachineName, func(sm ha.StateMachine) error {
		n = sm.(*txnMachine).recordCount()
		return nil
	})
	return n, err
}

// queryRange runs fn against the leader's replica of one range machine.
func (s *Sharded) queryRange(id uint64, fn func(*rangeMachine)) error {
	return s.groups[s.groupOf(id)].Query(s.machineName(id), func(sm ha.StateMachine) error {
		fn(sm.(*rangeMachine))
		return nil
	})
}
