// txnMachine is the replicated transaction-record table: the 2PC
// coordinator's durable state, run as the "txn" machine on the control
// group. The commit point of every cross-range transaction is the
// single Raft commit of its tMarkCommit record here — participants
// apply writes only after that record exists, and recovery resolves any
// orphaned transaction purely from this table: pending → abort
// everywhere, committed → re-apply everywhere. A coordinator crash can
// therefore delay a transaction but never leave it dangling.
//
// The table also bounds what ranges remember about finished
// transactions: closedBelow = min(live record ids ∪ {next}) only grows,
// every id below it is retired (or never begun, and a begin that late is
// refused), and each begin's response carries it to that transaction's
// range commands.
package kvstore

import (
	"encoding/binary"

	"repro/internal/ha"
)

// Transaction record opcodes.
const (
	txOpBegin  = 0x01 // id, participant range ids, writes; answers closedBelow
	txOpCommit = 0x02 // id, commit version
	txOpAbort  = 0x03 // id
	txOpDone   = 0x04 // id — record retired after cleanup
)

// Transaction record states.
const (
	txnStPending   byte = 1
	txnStCommitted byte = 2
	txnStAborted   byte = 3
)

// txnRec is one transaction's replicated record. body is the participant
// list and write set as begin encoded them, a validated view of that
// command: only recovery and Snapshot decode it, and most records retire
// before either looks.
type txnRec struct {
	status byte
	ver    uint64 // commit version (set at commit)
	body   []byte
}

// txnBody reads past a participant list and write set and returns the
// bytes that held them; d.Err() tells whether they were well formed.
func txnBody(d *ha.Decoder) []byte {
	body := d.Rest()
	for n := int(d.U32()); n > 0 && d.Err() == nil; n-- {
		d.U64()
	}
	list(d, true)
	return body[:len(body)-len(d.Rest())]
}

// txnRecSnap is the query-side copy handed to recovery.
type txnRecSnap struct {
	ID     uint64
	Status byte
	Ver    uint64
	Parts  []uint64
	Writes []rmWrite
}

type txnMachine struct {
	recs map[uint64]*txnRec
	next uint64 // 1 + highest id begun
}

func (m *txnMachine) closedBelow() uint64 {
	low := m.next
	for id := range m.recs {
		low = min(low, id)
	}
	return low
}

func newTxnMachine() *txnMachine { return &txnMachine{recs: map[uint64]*txnRec{}} }

func (m *txnMachine) Apply(cmd []byte) []byte {
	d := ha.NewDecoder(cmd)
	op := d.U8()
	id := d.U64()
	switch op {
	case txOpBegin:
		body := txnBody(d)
		if d.Err() != nil {
			return status[rspConflict]
		}
		if _, ok := m.recs[id]; !ok {
			if low := m.closedBelow(); id < low {
				// Ranges may already count id as finished: the coordinator
				// must take a fresh one.
				return statusU64(rspAborted, low)
			}
			m.recs[id] = &txnRec{status: txnStPending, body: body}
			m.next = max(m.next, id+1)
		}
		return statusU64(rspOK, m.closedBelow())

	case txOpCommit:
		ver := d.U64()
		if d.Err() != nil {
			return status[rspConflict]
		}
		rec, ok := m.recs[id]
		if !ok {
			// Unknown id: the record was aborted and retired (recovery
			// raced the coordinator). The txn must not apply.
			return status[rspAborted]
		}
		switch rec.status {
		case txnStAborted:
			return status[rspAborted]
		case txnStPending:
			rec.status = txnStCommitted
			rec.ver = ver
		}
		return status[rspOK]

	case txOpAbort:
		if d.Err() != nil {
			return status[rspConflict]
		}
		rec, ok := m.recs[id]
		if !ok {
			return status[rspOK] // already retired
		}
		switch rec.status {
		case txnStCommitted:
			// Too late: the commit record is the point of no return.
			return statusU64(rspCommitted, rec.ver)
		case txnStPending:
			rec.status = txnStAborted
		}
		return status[rspOK]

	case txOpDone:
		if d.Err() != nil {
			return status[rspConflict]
		}
		delete(m.recs, id)
		return status[rspOK]
	}
	return status[rspConflict]
}

// Query-side accessors.

func (m *txnMachine) snapshotRecs() []txnRecSnap {
	out := make([]txnRecSnap, 0, len(m.recs))
	for _, id := range sortedKeys(m.recs) {
		r := m.recs[id]
		d := ha.NewDecoder(r.body)
		out = append(out, txnRecSnap{
			ID: id, Status: r.status, Ver: r.ver,
			Parts: decodeU64s(d), Writes: decodeWrites(d),
		})
	}
	return out
}

func (m *txnMachine) recordCount() int { return len(m.recs) }

func (m *txnMachine) Snapshot() []byte { return m.AppendSnapshot(nil) }

func (m *txnMachine) AppendSnapshot(dst []byte) []byte {
	recs := m.snapshotRecs()
	buf := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(dst, m.next), uint32(len(recs)))
	for _, r := range recs {
		buf = binary.BigEndian.AppendUint64(buf, r.ID)
		buf = append(buf, r.Status)
		buf = binary.BigEndian.AppendUint64(buf, r.Ver)
		buf = appendU64s(buf, r.Parts)
		buf = appendWrites(buf, r.Writes)
	}
	return buf
}

func (m *txnMachine) Restore(snap []byte) {
	d := ha.NewDecoder(snap)
	m.recs = map[uint64]*txnRec{}
	m.next = d.U64()
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.U64()
		rec := &txnRec{status: d.U8(), ver: d.U64()}
		rec.body = txnBody(d)
		if d.Err() != nil {
			break
		}
		m.recs[id] = rec
	}
}

// Command encoders: each writes into b when it fits, as the range
// machine's do (frame).

func encTxBegin(b []byte, id uint64, parts []uint64, writes []rmWrite) []byte {
	b = binary.BigEndian.AppendUint64(frame(b, txOpBegin, 13+8*len(parts)+listLen(writes, writeLen)), id)
	b = appendU64s(b, parts)
	return appendWrites(b, writes)
}

func encTxCommit(b []byte, id, ver uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(frame(b, txOpCommit, 17), id), ver)
}

func encTxAbort(b []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(frame(b, txOpAbort, 9), id)
}

func encTxDone(b []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(frame(b, txOpDone, 9), id)
}

func appendU64s(b []byte, vs []uint64) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

func decodeU64s(d *ha.Decoder) []uint64 {
	n := int(d.U32())
	var vs []uint64
	for i := 0; i < n && d.Err() == nil; i++ {
		vs = append(vs, d.U64())
	}
	return vs
}
