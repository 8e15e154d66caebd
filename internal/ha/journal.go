package ha

import (
	"bytes"
	"encoding/binary"

	"repro/internal/trace"
)

// JournalMachine is an append-only record log as a replicated state
// machine: the batch coordinator writes job-progress records (plan
// fingerprints, completed stages, checkpoints) through it so a crashed
// coordinator can replay them and resume from the last completed stage.
type JournalMachine struct {
	recs [][]byte
}

// NewJournalMachine is a Config.Machines factory.
func NewJournalMachine() StateMachine { return &JournalMachine{} }

// Apply appends one record; the response is the record's index.
func (j *JournalMachine) Apply(cmd []byte) []byte {
	rec := make([]byte, len(cmd))
	copy(rec, cmd)
	j.recs = append(j.recs, rec)
	return binary.BigEndian.AppendUint32(nil, uint32(len(j.recs)-1))
}

// Snapshot serializes every record.
func (j *JournalMachine) Snapshot() []byte { return j.AppendSnapshot(nil) }

// AppendSnapshot appends Snapshot's bytes to dst.
func (j *JournalMachine) AppendSnapshot(dst []byte) []byte {
	buf := binary.BigEndian.AppendUint32(dst, uint32(len(j.recs)))
	for _, rec := range j.recs {
		buf = AppendBytes(buf, rec)
	}
	return buf
}

// Restore replaces the log from a snapshot.
func (j *JournalMachine) Restore(snap []byte) {
	d := NewDecoder(snap)
	n := d.Count(4) // each record is at least its length prefix
	recs := make([][]byte, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		if b := d.Bytes(); d.Err() == nil {
			recs = append(recs, bytes.Clone(b))
		}
	}
	j.recs = recs
}

// Journal is the client side of a replicated JournalMachine, shaped to
// the batch engine's journal interface: Append proposes a record
// through the group (so it survives any single member) and Replay reads
// the committed records back from the current leader.
type Journal struct {
	g       *Group
	machine string
}

// NewJournal returns a client for the named JournalMachine on g.
func NewJournal(g *Group, machine string) *Journal {
	return &Journal{g: g, machine: machine}
}

// Append replicates one record, with tc threaded onto the Raft proposal
// so the commit shows up in the job's timeline as a consensus span under
// the stage that journaled it.
func (j *Journal) Append(rec []byte, tc trace.TraceContext) error {
	_, err := j.g.ProposeCtx(j.machine, rec, tc)
	return err
}

// Replay returns copies of all committed records in append order.
func (j *Journal) Replay() ([][]byte, error) {
	var out [][]byte
	err := j.g.Query(j.machine, func(sm StateMachine) error {
		jm := sm.(*JournalMachine)
		out = make([][]byte, len(jm.recs))
		for i, rec := range jm.recs {
			out[i] = append([]byte(nil), rec...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
