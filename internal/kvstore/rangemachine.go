// rangeMachine is the replicated state machine behind one key range of
// the sharded data plane. Each range is a deterministic LWW-versioned
// map plus a transaction lock table, replicated as a named machine
// ("range-<id>") on a 3-member Raft group (internal/ha). All mutation
// goes through Apply, so the three replicas stay byte-identical; the
// Sharded coordinator talks to it only via Propose/Query.
//
// The machine knows its own key bounds [lo, hi). Every client-facing
// command (put/get/del/prepare) is bounds-checked, which is what makes
// splits and merges safe against stale client routing caches: after a
// split trims this machine, a client still routing an old key here gets
// rspMoved and refreshes its directory — the write is never silently
// accepted by a non-owner.
package kvstore

import (
	"encoding/binary"
	"maps"
	"slices"
	"strings"

	"repro/internal/ha"
)

// Range command opcodes (first byte of every Apply payload). closed is
// the txn table's closedBelow as of the transaction's begin.
const (
	rmOpPut     = 0x01 // key, ver, val
	rmOpGet     = 0x02 // key, dirty
	rmOpDel     = 0x03 // key, ver
	rmOpPrepare = 0x04 // txn, closed, dirty, lockKeys, readKeys
	rmOpApply   = 0x05 // txn, closed, ver, writes
	rmOpAbort   = 0x06 // txn, closed
	rmOpAdopt   = 0x07 // lo, hi, pairs — set bounds + LWW upsert
	rmOpFreeze  = 0x08 // from — fence [from, +inf), return its pairs
	rmOpTrim    = 0x09 // from — delete [from, +inf), shrink hi
	// 0x0a and 0x0b are retired: Apply refuses them. Do not reuse them,
	// or a replayed old log would mean something new.
)

// Response status codes, shared by the range, directory and txn
// machines (first byte of every Apply response).
const (
	rspOK        = 0x00
	rspMoved     = 0x01 // key outside bounds or fenced by a freeze
	rspLocked    = 0x02 // key locked by another in-flight transaction
	rspConflict  = 0x03 // prepare/freeze/reserve lost a conflict check
	rspAborted   = 0x04 // transaction already finished as aborted
	rspCommitted = 0x05 // transaction already finished as committed
	rspStale     = 0x06 // put/del version not above the cell's: retry with a fresh one
)

// status holds the one-byte response for each status code. Every replica
// of every machine answers with these same slices and the coordinator
// reads them in place: nothing may write one. Responses with a payload
// are built fresh, in one allocation.
var status = [...][]byte{{rspOK}, {rspMoved}, {rspLocked}, {rspConflict}, {rspAborted}, {rspCommitted}, {rspStale}}

func statusU64(code byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(frame(nil, code, 9), v)
}

func okCount(n uint32) []byte { return binary.BigEndian.AppendUint32(frame(nil, rspOK, 5), n) }

// frame starts a command or response of size bytes with its first byte,
// the opcode or status. It writes from the start of b's array when that
// holds size bytes and into a fresh array of exactly size bytes when it
// does not: responses, and commands built without a buffer, pass nil.
func frame(b []byte, first byte, size int) []byte {
	if cap(b) < size {
		b = make([]byte, 0, size)
	}
	return append(b[:0], first)
}

// Transaction terminal states recorded per range (dedup + late-message
// guard: a prepare arriving after recovery aborted the txn is refused).
const (
	txnApplied byte = 1
	txnAborted byte = 2
)

// rval is one versioned cell. dead marks a tombstone: versioned
// deletions must round-trip through freeze/adopt or a merged range
// could resurrect a deleted key from a stale live copy.
type rval struct {
	val  []byte
	ver  uint64
	dead bool
}

// kvPair is a key plus its cell, the unit of range migration.
type kvPair struct {
	key string
	rval
}

// cell is one key's state: its value and (dirty reads) the one before.
type cell struct {
	kvPair
	old    rval
	hasOld bool
}

// rmWrite is one write inside a transaction.
type rmWrite struct {
	Key string
	Val []byte
	Del bool
}

type rangeMachine struct {
	lo, hi string // owned bounds [lo, hi); hi "" = +inf
	init   bool   // bounds assigned (adopt seen)
	fenced bool   // split/merge in progress: [fence, +inf) refused
	fence  string

	data  map[string]*cell
	order []*cell           // data in key order; nil once the key set changes
	locks map[string]uint64 // key -> owning txn id
	// The txn table retired every id below closed (the highest closedBelow
	// a command carried); done keeps outcomes from there up.
	closed uint64
	done   map[uint64]byte // txn id -> txnApplied | txnAborted
}

func newRangeMachine() *rangeMachine {
	return &rangeMachine{
		data:  map[string]*cell{},
		locks: map[string]uint64{},
		done:  map[uint64]byte{},
	}
}

// sorted returns the cells in ascending key order, a cache rebuilt only
// after the key set changed (queries may fill it: no snapshot shows it).
func (m *rangeMachine) sorted() []*cell {
	if m.order == nil && len(m.data) > 0 {
		m.order = make([]*cell, 0, len(m.data))
		for _, c := range m.data {
			m.order = append(m.order, c)
		}
		slices.SortFunc(m.order, func(a, b *cell) int { return strings.Compare(a.key, b.key) })
	}
	return m.order
}

// finished folds a command's closedBelow into the watermark and reports
// whether txn is below it: retired, so nothing may lock or write for it.
func (m *rangeMachine) finished(txn, closed uint64) bool {
	if closed > m.closed {
		m.closed = closed
		maps.DeleteFunc(m.done, func(id uint64, _ byte) bool { return id < closed })
	}
	return txn < m.closed
}

// owns reports whether key is inside the machine's current bounds and
// not fenced by an in-progress split/merge. Keys stay views of the
// command: comparing or looking up string(key) allocates nothing. A key
// becomes a string once, when its cell is inserted (upsert), and that
// string serves the lock table too.
func (m *rangeMachine) owns(key []byte) bool {
	if !m.init || string(key) < m.lo || (m.hi != "" && string(key) >= m.hi) {
		return false
	}
	if m.fenced && string(key) >= m.fence {
		return false
	}
	return true
}

// upsert installs a value if it is newer than the current one, retaining
// the overwritten one. Returns whether it was installed.
func (m *rangeMachine) upsert(key []byte, v rval) bool {
	c := m.data[string(key)]
	switch {
	case c == nil:
		k := string(key)
		m.data[k] = &cell{kvPair: kvPair{key: k, rval: v}}
		m.order = nil
	case v.ver <= c.ver:
		return false
	default:
		c.old, c.hasOld, c.rval = c.rval, true, v
	}
	return true
}

func (m *rangeMachine) Apply(cmd []byte) []byte {
	d := ha.NewDecoder(cmd)
	op := d.U8()
	switch op {
	case rmOpPut, rmOpDel:
		key := d.Bytes()
		ver := d.U64()
		var val []byte
		if op == rmOpPut {
			val = d.Bytes()
		}
		if d.Err() != nil {
			return status[rspConflict]
		}
		if !m.owns(key) {
			return status[rspMoved]
		}
		if owner, locked := m.locks[string(key)]; locked {
			return statusU64(rspLocked, owner)
		}
		if !m.upsert(key, rval{val: val, ver: ver, dead: op == rmOpDel}) {
			// Dropping it silently would let a transaction that ran since
			// the version was drawn both miss this write and bury it.
			return status[rspStale]
		}
		return status[rspOK]

	case rmOpGet:
		key := d.Bytes()
		dirty := d.Bool()
		if d.Err() != nil {
			return status[rspConflict]
		}
		if !m.owns(key) {
			return status[rspMoved]
		}
		if _, locked := m.locks[string(key)]; locked && !dirty {
			return status[rspLocked]
		}
		val, found := m.read(key, dirty)
		return appendRead(frame(nil, rspOK, 1+readLen(val)), val, found)

	case rmOpPrepare:
		return m.applyPrepare(d)
	case rmOpApply:
		return m.applyCommit(d)
	case rmOpAbort:
		txn, closed := d.U64(), d.U64()
		if d.Err() != nil {
			return status[rspConflict]
		}
		if !m.finished(txn, closed) {
			if m.done[txn] == txnApplied {
				return status[rspCommitted]
			}
			m.done[txn] = txnAborted
		}
		// Below the watermark too: a lock a lost abort left behind goes.
		m.releaseLocks(txn)
		return status[rspOK]

	case rmOpAdopt:
		lo, hi := d.String(), d.String()
		pairs := decodePairs(d)
		if d.Err() != nil {
			return status[rspConflict]
		}
		m.lo, m.hi, m.init = lo, hi, true
		installed := uint32(0)
		for _, p := range pairs {
			if m.upsert([]byte(p.key), p.rval) {
				installed++
			}
		}
		return okCount(installed)

	case rmOpFreeze:
		from := d.String()
		if d.Err() != nil {
			return status[rspConflict]
		}
		if m.fenced && m.fence != from {
			return status[rspConflict]
		}
		for k := range m.locks {
			if k >= from {
				return status[rspConflict] // in-flight txn holds the span
			}
		}
		m.fenced, m.fence = true, from
		return appendPairs([]byte{rspOK}, m.pairsFrom(from))

	case rmOpTrim:
		from := d.String()
		if d.Err() != nil {
			return status[rspConflict]
		}
		n := uint32(0)
		for k := range m.data {
			if k >= from {
				delete(m.data, k)
				m.order = nil
				n++
			}
		}
		m.hi = from
		if m.fenced && m.fence == from {
			m.fenced, m.fence = false, ""
		}
		return okCount(n)
	}
	return status[rspConflict]
}

// applyPrepare locks the txn's keys (all-or-nothing within this range)
// and returns the observed read values. Conflicts abort immediately —
// no lock waiting, so cross-range deadlock is impossible by
// construction and contention resolves by coordinator retry. The whole
// command is validated before any state changes; the key lists are then
// walked where they lie.
func (m *rangeMachine) applyPrepare(d *ha.Decoder) []byte {
	txn, closed := d.U64(), d.U64()
	dirty := d.Bool()
	nLock, lockKeys := list(d, false)
	nRead, readKeys := list(d, false)
	if d.Err() != nil {
		return status[rspConflict]
	}
	if m.finished(txn, closed) {
		return status[rspAborted] // retired: a lock taken now would never be released
	}
	switch m.done[txn] {
	case txnAborted:
		// Recovery already aborted this txn (coordinator presumed dead);
		// refusing the late prepare keeps its locks from resurrecting.
		return status[rspAborted]
	case txnApplied:
		return status[rspCommitted]
	}
	for w, i := lockKeys, 0; i < nLock; i++ {
		k := w.Bytes()
		if !m.owns(k) {
			return status[rspMoved]
		}
		if owner, locked := m.locks[string(k)]; locked && owner != txn {
			return status[rspConflict]
		}
	}
	for w, i := lockKeys, 0; i < nLock; i++ {
		k := w.Bytes()
		if c := m.data[string(k)]; c != nil {
			m.locks[c.key] = txn
		} else {
			m.locks[string(k)] = txn
		}
	}
	size := 1 + 4
	for w, i := readKeys, 0; i < nRead; i++ {
		val, _ := m.read(w.Bytes(), dirty)
		size += readLen(val)
	}
	resp := binary.BigEndian.AppendUint32(frame(nil, rspOK, size), uint32(nRead))
	for w, i := readKeys, 0; i < nRead; i++ {
		val, found := m.read(w.Bytes(), dirty)
		resp = appendRead(resp, val, found)
	}
	return resp
}

// applyCommit installs a committed txn's writes at the commit version
// and releases its locks. Idempotent: recovery may replay it.
func (m *rangeMachine) applyCommit(d *ha.Decoder) []byte {
	txn, closed := d.U64(), d.U64()
	ver := d.U64()
	n, w := list(d, true)
	if d.Err() != nil {
		return status[rspConflict]
	}
	if m.finished(txn, closed) || m.done[txn] == txnApplied {
		return status[rspOK]
	}
	for ; n > 0; n-- {
		key, del, val := w.Bytes(), w.Bool(), w.Bytes()
		m.upsert(key, rval{val: val, ver: ver, dead: del})
	}
	m.releaseLocks(txn)
	m.done[txn] = txnApplied
	return status[rspOK]
}

func (m *rangeMachine) releaseLocks(txn uint64) {
	for k, owner := range m.locks {
		if owner == txn {
			delete(m.locks, k)
		}
	}
}

// read returns key's live value. A dirty read serves the retained
// overwritten cell when one exists — the deliberately broken isolation
// mode that proves the txn checker has teeth.
func (m *rangeMachine) read(key []byte, dirty bool) (val []byte, found bool) {
	c := m.data[string(key)]
	if c == nil {
		return nil, false
	}
	v := c.rval
	if dirty && c.hasOld {
		v = c.old
	}
	if v.dead {
		return nil, false
	}
	return v.val, true
}

// appendRead renders one read as found+value, readLen bytes of it: the
// body of a get response and each element of a prepare's.
func appendRead(b, val []byte, found bool) []byte {
	return ha.AppendBytes(ha.AppendBool(b, found), val)
}
func readLen(val []byte) int { return 1 + 4 + len(val) }

// pairsFrom returns the cells (tombstones included) at or above from,
// in sorted key order.
func (m *rangeMachine) pairsFrom(from string) []kvPair {
	cells := m.sorted()
	i, _ := slices.BinarySearchFunc(cells, from, func(c *cell, k string) int { return strings.Compare(c.key, k) })
	pairs := make([]kvPair, 0, len(cells)-i)
	for _, c := range cells[i:] {
		pairs = append(pairs, c.kvPair)
	}
	return pairs
}

// Query-side accessors (called under the group mutex via ha.Query; must
// not mutate).

func (m *rangeMachine) lockCount() int { return len(m.locks) }

// Snapshot/Restore: deterministic serialization in sorted order, so all
// replicas produce identical snapshots for identical state. The bytes
// are sized up front and filled straight from the cached key order.

func (m *rangeMachine) Snapshot() []byte { return m.AppendSnapshot(nil) }

func (m *rangeMachine) AppendSnapshot(dst []byte) []byte {
	cells, lockKeys, doneIDs := m.sorted(), sortedKeys(m.locks), sortedKeys(m.done)
	size := 4 + len(m.lo) + 4 + len(m.hi) + 2 + 4 + len(m.fence) + 4 + 4 + 8 + 4 + 9*len(doneIDs)
	for _, c := range cells {
		size += pairLen(c.kvPair) + 1
		if c.hasOld {
			size += rvalLen(c.old)
		}
	}
	for _, k := range lockKeys {
		size += 4 + len(k) + 8
	}
	if dst == nil {
		dst = make([]byte, 0, size) // Snapshot's own copy, sized exactly
	}
	buf := ha.AppendString(slices.Grow(dst, size), m.lo)
	buf = ha.AppendString(buf, m.hi)
	buf = ha.AppendBool(buf, m.init)
	buf = ha.AppendBool(buf, m.fenced)
	buf = ha.AppendString(buf, m.fence)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cells)))
	for _, c := range cells {
		buf = appendPair(buf, c.kvPair)
		buf = ha.AppendBool(buf, c.hasOld)
		if c.hasOld {
			buf = appendRval(buf, c.old)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(lockKeys)))
	for _, k := range lockKeys {
		buf = ha.AppendString(buf, k)
		buf = binary.BigEndian.AppendUint64(buf, m.locks[k])
	}
	buf = binary.BigEndian.AppendUint64(buf, m.closed)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(doneIDs)))
	for _, id := range doneIDs {
		buf = binary.BigEndian.AppendUint64(buf, id)
		buf = append(buf, m.done[id])
	}
	return buf
}

func (m *rangeMachine) Restore(snap []byte) {
	d := ha.NewDecoder(snap)
	m.lo = d.String()
	m.hi = d.String()
	m.init = d.Bool()
	m.fenced = d.Bool()
	m.fence = d.String()
	m.data, m.order = map[string]*cell{}, nil
	m.locks = map[string]uint64{}
	m.done = map[uint64]byte{}
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		c := &cell{kvPair: decodePair(d)}
		if c.hasOld = d.Bool(); c.hasOld {
			c.old = decodeRval(d)
		}
		if d.Err() != nil {
			break
		}
		m.data[c.key] = c
	}
	n = int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.String()
		m.locks[k] = d.U64()
	}
	m.closed = d.U64()
	n = int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.U64()
		m.done[id] = d.U8()
	}
}

// Command encoders (coordinator side). Each writes its command into the
// caller's buffer b when it fits (see frame) and returns it. ha.Group
// copies a payload into its envelope before Propose returns, so the
// coordinator encodes every command of an operation into one array on
// its stack and the envelope is the one allocation a proposal keeps.
// A nil b, or one too small, costs one exactly-sized allocation.

func encRmPut(b []byte, key string, val []byte, ver uint64) []byte {
	b = ha.AppendString(frame(b, rmOpPut, 17+len(key)+len(val)), key)
	b = binary.BigEndian.AppendUint64(b, ver)
	return ha.AppendBytes(b, val)
}

func encRmGet(b []byte, key string, dirty bool) []byte {
	return ha.AppendBool(ha.AppendString(frame(b, rmOpGet, 6+len(key)), key), dirty)
}

func encRmDel(b []byte, key string, ver uint64) []byte {
	return binary.BigEndian.AppendUint64(ha.AppendString(frame(b, rmOpDel, 13+len(key)), key), ver)
}

func encRmPrepare(b []byte, txn, closed uint64, dirty bool, lockKeys, readKeys []string) []byte {
	b = binary.BigEndian.AppendUint64(frame(b, rmOpPrepare, 18+listLen(lockKeys, strLen)+listLen(readKeys, strLen)), txn)
	b = binary.BigEndian.AppendUint64(b, closed)
	b = ha.AppendBool(b, dirty)
	b = appendStrs(b, lockKeys)
	return appendStrs(b, readKeys)
}

func encRmApply(b []byte, txn, closed, ver uint64, writes []rmWrite) []byte {
	b = binary.BigEndian.AppendUint64(frame(b, rmOpApply, 25+listLen(writes, writeLen)), txn)
	b = binary.BigEndian.AppendUint64(b, closed)
	b = binary.BigEndian.AppendUint64(b, ver)
	return appendWrites(b, writes)
}

func encRmAbort(b []byte, txn, closed uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(frame(b, rmOpAbort, 17), txn), closed)
}

func encRmAdopt(b []byte, lo, hi string, pairs []kvPair) []byte {
	b = ha.AppendString(frame(b, rmOpAdopt, 9+len(lo)+len(hi)+listLen(pairs, pairLen)), lo)
	b = ha.AppendString(b, hi)
	return appendPairs(b, pairs)
}

func encRmFreeze(b []byte, from string) []byte {
	return ha.AppendString(frame(b, rmOpFreeze, 5+len(from)), from)
}

func encRmTrim(b []byte, from string) []byte {
	return ha.AppendString(frame(b, rmOpTrim, 5+len(from)), from)
}

// Shared sub-encodings.

func rvalLen(v rval) int     { return 8 + 1 + 4 + len(v.val) }
func pairLen(p kvPair) int   { return 4 + len(p.key) + rvalLen(p.rval) }
func writeLen(w rmWrite) int { return 4 + len(w.Key) + 1 + 4 + len(w.Val) }
func strLen(s string) int    { return 4 + len(s) }

// listLen is the encoded size of a counted list of xs.
func listLen[T any](xs []T, each func(T) int) int {
	n := 4
	for _, x := range xs {
		n += each(x)
	}
	return n
}

func appendRval(b []byte, v rval) []byte {
	return ha.AppendBytes(ha.AppendBool(binary.BigEndian.AppendUint64(b, v.ver), v.dead), v.val)
}

// Calls in a composite literal run left to right: ver, dead, val.
func decodeRval(d *ha.Decoder) rval { return rval{ver: d.U64(), dead: d.Bool(), val: d.Bytes()} }

func appendPair(b []byte, p kvPair) []byte { return appendRval(ha.AppendString(b, p.key), p.rval) }

func decodePair(d *ha.Decoder) kvPair { return kvPair{key: d.String(), rval: decodeRval(d)} }

func appendPairs(b []byte, pairs []kvPair) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(pairs)))
	for _, p := range pairs {
		b = appendPair(b, p)
	}
	return b
}

func decodePairs(d *ha.Decoder) []kvPair {
	n := int(d.U32())
	var pairs []kvPair
	for i := 0; i < n && d.Err() == nil; i++ {
		p := decodePair(d)
		if d.Err() != nil {
			break
		}
		pairs = append(pairs, p)
	}
	return pairs
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = ha.AppendString(b, s)
	}
	return b
}

func decodeStrs(d *ha.Decoder) []string {
	n := int(d.U32())
	var ss []string
	for i := 0; i < n && d.Err() == nil; i++ {
		ss = append(ss, d.String())
	}
	return ss
}

func appendWrites(b []byte, ws []rmWrite) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ws)))
	for _, w := range ws {
		b = ha.AppendString(b, w.Key)
		b = ha.AppendBool(b, w.Del)
		b = ha.AppendBytes(b, w.Val)
	}
	return b
}

func decodeWrites(d *ha.Decoder) []rmWrite {
	n := int(d.U32())
	var ws []rmWrite
	for i := 0; i < n && d.Err() == nil; i++ {
		w := rmWrite{Key: d.String()}
		w.Del = d.Bool()
		w.Val = d.Bytes()
		if d.Err() != nil {
			break
		}
		ws = append(ws, w)
	}
	return ws
}
