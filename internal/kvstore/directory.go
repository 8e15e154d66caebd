// dirMachine is the replicated range directory: the authoritative map
// from key spans to range ids, plus the pending split/merge records
// that make topology changes crash-resumable. It runs as the "dir"
// machine on the control group, so routing survives coordinator crashes
// exactly like the data it routes.
//
// A split or merge is a three-phase replicated protocol:
//
//	reserve — allocate the new topology and record a pending change
//	          (no routing change yet; data copy happens in between)
//	commit  — atomically switch routing to the new topology
//	finish  — drop the pending record once cleanup (trim) is done
//
// Any coordinator can re-drive an interrupted change from the pending
// record: every data-plane step in between (freeze, adopt, trim) is
// idempotent, so recovery simply replays the remaining phases.
package kvstore

import (
	"encoding/binary"
	"slices"
	"strings"

	"repro/internal/ha"
)

const (
	dirMachineName = "dir"
	txnMachineName = "txn"
)

// Directory command opcodes.
const (
	dirOpInit         = 0x01 // groups, split points
	dirOpSplitReserve = 0x02 // old range id, split key
	dirOpSplitCommit  = 0x03 // new range id
	dirOpSplitFinish  = 0x04 // new range id
	dirOpSplitAbort   = 0x05 // new range id
	dirOpMergeReserve = 0x06 // left range id
	dirOpMergeCommit  = 0x07 // left range id
	dirOpMergeFinish  = 0x08 // left range id
	dirOpMergeAbort   = 0x09 // left range id
)

// RangeInfo describes one key range [Start, End) (End "" = +inf) and
// the Raft group hosting its machine. Group is derived: a range's
// machine always lives on group ID % Groups, so any node can route to a
// range id without a directory round trip.
type RangeInfo struct {
	ID    uint64
	Start string
	End   string
	Group int
}

// pendingChange is an in-flight split or merge.
type pendingChange struct {
	Split     bool
	Old       uint64 // split: source range; merge: surviving left range
	Right     uint64 // merge: absorbed right range
	New       uint64 // split: newly created range
	Key       string // split point
	Committed bool   // routing switched; only cleanup remains
}

// dirID is the range id the directory's commit, finish and abort
// commands name a change by: a split's new range, a merge's left range.
func (p pendingChange) dirID() uint64 {
	if p.Split {
		return p.New
	}
	return p.Old
}

type dirMachine struct {
	groups int
	nextID uint64
	epoch  uint64      // bumped on every routing change
	ranges []RangeInfo // sorted by Start
	pend   []pendingChange
}

func newDirMachine() *dirMachine { return &dirMachine{} }

func (m *dirMachine) rangeIdx(id uint64) int {
	for i, r := range m.ranges {
		if r.ID == id {
			return i
		}
	}
	return -1
}

// touched reports whether any pending change involves range id —
// concurrent topology changes on the same range are serialized by
// refusing the reserve.
func (m *dirMachine) touched(id uint64) bool {
	for _, p := range m.pend {
		if p.Old == id || (!p.Split && p.Right == id) || (p.Split && p.New == id) {
			return true
		}
	}
	return false
}

func (m *dirMachine) Apply(cmd []byte) []byte {
	d := ha.NewDecoder(cmd)
	op := d.U8()
	switch op {
	case dirOpInit:
		groups := int(d.U32())
		splits := decodeStrs(d)
		if d.Err() != nil || groups <= 0 {
			return []byte{rspConflict}
		}
		if m.epoch > 0 {
			return []byte{rspOK} // idempotent re-init
		}
		m.groups = groups
		bounds := append([]string{""}, splits...)
		for i, lo := range bounds {
			hi := ""
			if i+1 < len(bounds) {
				hi = bounds[i+1]
			}
			m.ranges = append(m.ranges, RangeInfo{
				ID: uint64(i), Start: lo, End: hi, Group: i % groups,
			})
		}
		m.nextID = uint64(len(bounds))
		m.epoch = 1
		return []byte{rspOK}

	case dirOpSplitReserve:
		old := d.U64()
		key := d.String()
		if d.Err() != nil {
			return []byte{rspConflict}
		}
		i := m.rangeIdx(old)
		if i < 0 || m.touched(old) || m.groups == 0 { // a restored directory may know no groups
			return []byte{rspConflict}
		}
		r := m.ranges[i]
		if key <= r.Start || (r.End != "" && key >= r.End) {
			return []byte{rspConflict} // split point must be interior
		}
		newID := m.nextID
		m.nextID++
		m.pend = append(m.pend, pendingChange{Split: true, Old: old, New: newID, Key: key})
		b := binary.BigEndian.AppendUint64([]byte{rspOK}, newID)
		return binary.BigEndian.AppendUint32(b, uint32(newID)%uint32(m.groups))

	case dirOpMergeReserve:
		left := d.U64()
		if d.Err() != nil {
			return []byte{rspConflict}
		}
		li := m.rangeIdx(left)
		if li < 0 || li == len(m.ranges)-1 {
			return []byte{rspConflict} // no right neighbor
		}
		right := m.ranges[li+1]
		if m.touched(left) || m.touched(right.ID) {
			return []byte{rspConflict}
		}
		// Key records the absorbed range's lower bound: after commit the
		// range leaves the routing table, but recovery still needs the
		// bound to retire its machine.
		m.pend = append(m.pend, pendingChange{Old: left, Right: right.ID, Key: right.Start})
		b := binary.BigEndian.AppendUint64([]byte{rspOK}, right.ID)
		b = binary.BigEndian.AppendUint32(b, uint32(right.Group))
		return ha.AppendString(b, right.Start)

	case dirOpSplitCommit, dirOpSplitFinish, dirOpSplitAbort,
		dirOpMergeCommit, dirOpMergeFinish, dirOpMergeAbort:
		id := d.U64()
		if d.Err() != nil {
			return []byte{rspConflict}
		}
		split := op <= dirOpSplitAbort
		pi := slices.IndexFunc(m.pend, func(p pendingChange) bool { return p.Split == split && p.dirID() == id })
		if pi < 0 {
			return []byte{rspOK} // already finished elsewhere
		}
		p := &m.pend[pi]
		if op != dirOpSplitCommit && op != dirOpMergeCommit {
			// Finish only after commit; abort only before it, since once
			// routing has switched the change must roll forward.
			if p.Committed != (op == dirOpSplitFinish || op == dirOpMergeFinish) {
				return []byte{rspConflict}
			}
			m.pend = append(m.pend[:pi], m.pend[pi+1:]...)
			return []byte{rspOK}
		}
		if p.Committed {
			return []byte{rspOK}
		}
		oi := m.rangeIdx(p.Old)
		if split {
			if oi < 0 || m.groups == 0 {
				return []byte{rspConflict}
			}
			m.ranges = append(m.ranges, RangeInfo{
				ID: p.New, Start: p.Key, End: m.ranges[oi].End, Group: int(p.New % uint64(m.groups)),
			})
			m.ranges[oi].End = p.Key
			slices.SortFunc(m.ranges, func(a, b RangeInfo) int { return strings.Compare(a.Start, b.Start) })
		} else {
			ri := m.rangeIdx(p.Right)
			if oi < 0 || ri < 0 {
				return []byte{rspConflict}
			}
			m.ranges[oi].End = m.ranges[ri].End
			m.ranges = append(m.ranges[:ri], m.ranges[ri+1:]...)
		}
		p.Committed = true
		m.epoch++
		return []byte{rspOK}
	}
	return []byte{rspConflict}
}

// Query-side accessors.

func (m *dirMachine) snapshotRanges() []RangeInfo {
	return append([]RangeInfo(nil), m.ranges...)
}

func (m *dirMachine) pendingChanges() []pendingChange {
	return append([]pendingChange(nil), m.pend...)
}

func (m *dirMachine) Snapshot() []byte { return m.AppendSnapshot(nil) }

func (m *dirMachine) AppendSnapshot(dst []byte) []byte {
	buf := binary.BigEndian.AppendUint32(dst, uint32(m.groups))
	buf = binary.BigEndian.AppendUint64(buf, m.nextID)
	buf = binary.BigEndian.AppendUint64(buf, m.epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.ranges)))
	for _, r := range m.ranges {
		buf = binary.BigEndian.AppendUint64(buf, r.ID)
		buf = ha.AppendString(buf, r.Start)
		buf = ha.AppendString(buf, r.End)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Group))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.pend)))
	for _, p := range m.pend {
		buf = ha.AppendBool(buf, p.Split)
		buf = binary.BigEndian.AppendUint64(buf, p.Old)
		buf = binary.BigEndian.AppendUint64(buf, p.Right)
		buf = binary.BigEndian.AppendUint64(buf, p.New)
		buf = ha.AppendString(buf, p.Key)
		buf = ha.AppendBool(buf, p.Committed)
	}
	return buf
}

func (m *dirMachine) Restore(snap []byte) {
	d := ha.NewDecoder(snap)
	m.groups = int(d.U32())
	m.nextID = d.U64()
	m.epoch = d.U64()
	m.ranges = nil
	m.pend = nil
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		r := RangeInfo{ID: d.U64(), Start: d.String(), End: d.String()}
		r.Group = int(d.U32())
		m.ranges = append(m.ranges, r)
	}
	n = int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		p := pendingChange{Split: d.Bool(), Old: d.U64(), Right: d.U64(), New: d.U64()}
		p.Key = d.String()
		p.Committed = d.Bool()
		m.pend = append(m.pend, p)
	}
}

// Command encoders.

func encDirInit(groups int, splits []string) []byte {
	b := binary.BigEndian.AppendUint32([]byte{dirOpInit}, uint32(groups))
	return appendStrs(b, splits)
}

func encDirSplitReserve(old uint64, key string) []byte {
	b := binary.BigEndian.AppendUint64([]byte{dirOpSplitReserve}, old)
	return ha.AppendString(b, key)
}

func encDirU64(op byte, id uint64) []byte { return binary.BigEndian.AppendUint64([]byte{op}, id) }
