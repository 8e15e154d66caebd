package core

import (
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/dfs"
	"repro/internal/ha"
	"repro/internal/topology"
	"repro/internal/trace"
)

// errCoordCrashed aborts the current attempt when a chaos schedule
// kills the coordinator; the retry loop recovers from the journal.
var errCoordCrashed = errors.New("core: coordinator crashed")

// Journal persists coordinator progress records — completed map stages
// (with their plan fingerprint and output owners) and checkpoints — so
// a crashed coordinator resumes the job from the last completed stage
// instead of recomputing everything. Implemented by ha.Journal for a
// Raft-replicated log; tests use an in-memory one.
type Journal interface {
	// Append durably adds one record. tc is the causal trace context of
	// the stage being recorded (zero when there is none): ha.Journal
	// threads it onto the Raft proposal so the consensus round appears in
	// the job's cross-node timeline.
	Append(rec []byte, tc trace.TraceContext) error
	// Replay returns every record in append order.
	Replay() ([][]byte, error)
}

// SetJournal attaches a progress journal after construction (the
// replicated journal and the engine are built in host-specific order).
func (e *Engine) SetJournal(j Journal) {
	e.mu.Lock()
	e.journal = j
	e.mu.Unlock()
}

// SetDFS attaches the checkpoint filesystem after construction, for
// hosts that must build the engine before the (replicated) DFS.
func (e *Engine) SetDFS(d *dfs.DFS) {
	e.mu.Lock()
	e.fs = d
	e.mu.Unlock()
}

func (e *Engine) journalRef() Journal {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.journal
}

// CrashCoordinator simulates the driver process dying: all volatile
// coordinator state — which map outputs each shuffle has, partition
// caches, checkpoint memos — is discarded at the next recovery point, and
// the job resumes from whatever the journal and the map outputs the
// executors still hold preserve. The chaos coord-crash fault calls this.
func (e *Engine) CrashCoordinator() {
	e.mu.Lock()
	e.coordCrashed = true
	e.mu.Unlock()
}

func (e *Engine) coordDown() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.coordCrashed
}

// collectPlans walks p's subtree, indexing every plan by id and
// computing a structural fingerprint per plan: an FNV-1a hash over the
// DAG shape (kind, partition counts, shuffle arity and ordering, child
// fingerprints). Journal records carry the fingerprint so recovery
// never resumes a stage from a different job shape that happened to
// reuse a plan id.
func collectPlans(p *Plan, plans map[int]*Plan, fps map[int]uint64) uint64 {
	if fp, ok := fps[p.id]; ok {
		return fp
	}
	plans[p.id] = p
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(p.kind))
	mix(uint64(p.parts))
	switch p.kind {
	case kindNarrow:
		mix(collectPlans(p.parent, plans, fps))
	case kindUnion:
		for _, parent := range p.parents {
			mix(collectPlans(parent, plans, fps))
		}
	case kindShuffled:
		mix(uint64(p.dep.Partitions))
		if p.dep.Sorted {
			mix(1)
		}
		mix(collectPlans(p.parent, plans, fps))
	}
	fps[p.id] = h
	return h
}

// journalDone appends a record that p completed: its map stage, with the
// owner of each map partition in st, or, when st is nil, its checkpoint.
// The record carries the fingerprint of p's own subtree, whichever job is
// running. Journaling is best-effort — a failed append (e.g. the
// control-plane quorum is briefly lost) degrades recovery, not the
// running job.
func (e *Engine) journalDone(p *Plan, st *shuffleState, tc trace.TraceContext) {
	j := e.journalRef()
	if j == nil {
		return
	}
	rec := journalRecord{kind: recCkpt, fp: collectPlans(p, map[int]*Plan{}, map[int]uint64{}), planID: p.id}
	if st != nil {
		st.mu.Lock()
		rec.kind, rec.owners = recStage, slices.Clone(st.owner)
		st.mu.Unlock()
	}
	if err := j.Append(rec.encode(), tc); err != nil {
		e.Reg.Counter("journal_append_failures").Inc()
	}
}

// journalRecord is one coordinator journal record: a completed stage, with
// the owner node of each map partition, or a completed checkpoint. Both
// name the plan by id and by the fingerprint of its subtree.
type journalRecord struct {
	kind   byte // recStage or recCkpt
	fp     uint64
	planID int
	owners []topology.NodeID // stage only: one per map partition
}

const (
	recStage byte = 's'
	recCkpt  byte = 'c'
)

// encode is the record's journal form: the kind byte, the fingerprint,
// the plan id, and the owner count and each owner.
func (r journalRecord) encode() []byte {
	b := binary.BigEndian.AppendUint64([]byte{r.kind}, r.fp)
	b = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(b, uint32(r.planID)), uint32(len(r.owners)))
	for _, o := range r.owners {
		b = binary.BigEndian.AppendUint32(b, uint32(o))
	}
	return b
}

// decodeJournalRecord reads a replayed record, or reports false for one
// recovery has no use for: a kind it does not know, or bytes short of or
// beyond the record.
func decodeJournalRecord(raw []byte) (journalRecord, bool) {
	d := ha.NewDecoder(raw)
	rec := journalRecord{kind: d.U8(), fp: d.U64(), planID: int(d.U32())}
	rec.owners = make([]topology.NodeID, d.Count(4))
	for i := range rec.owners {
		rec.owners[i] = topology.NodeID(d.U32())
	}
	if d.Err() != nil || len(d.Rest()) > 0 || (rec.kind != recStage && rec.kind != recCkpt) {
		return journalRecord{}, false
	}
	return rec, true
}

// recoverCoordinator is the restarted driver coming back up: if a crash
// is pending it wipes all volatile coordinator state — the registration
// of every shuffle's map outputs, not the blocks the executors hold —
// then indexes p's plan graph, replays the journal and re-registers every
// completed stage whose fingerprint matches its plan in p, whose owners
// are still alive and whose blocks are all still held. Such stages are
// resumed (coord_stages_resumed); journaled stages that fail
// verification are recomputed from lineage (coord_stages_restarted).
func (e *Engine) recoverCoordinator(p *Plan) {
	e.mu.Lock()
	if !e.coordCrashed {
		e.mu.Unlock()
		return
	}
	e.coordCrashed = false
	for _, st := range e.shuffles {
		st.mu.Lock()
		clear(st.done)
		st.mu.Unlock()
	}
	e.caches = map[int][][]Row{}
	e.ckptDone = map[int]bool{}
	journal := e.journal
	e.mu.Unlock()
	e.Reg.Counter("coord_crashes").Inc()
	if journal == nil {
		return
	}
	recs, err := journal.Replay()
	if err != nil {
		e.Reg.Counter("journal_replay_failures").Inc()
		return
	}
	plans := map[int]*Plan{}
	fps := map[int]uint64{}
	collectPlans(p, plans, fps)
	resumed := map[int]bool{}
	restarted := map[int]bool{}
	ckpts := map[int]bool{}
	for _, raw := range recs {
		rec, ok := decodeJournalRecord(raw)
		if !ok {
			continue
		}
		planID := rec.planID
		pl := plans[planID]
		if pl == nil || fps[planID] != rec.fp {
			continue // a different job's record; not ours to resume
		}
		switch rec.kind {
		case recCkpt:
			if pl.checkpoint != nil {
				ckpts[planID] = true
			}
		case recStage:
			if pl.kind != kindShuffled {
				continue
			}
			if e.rebuildStage(pl, rec.owners) {
				resumed[planID] = true
				delete(restarted, planID)
			} else if !resumed[planID] {
				restarted[planID] = true
			}
		}
	}
	e.mu.Lock()
	for id := range ckpts {
		e.ckptDone[id] = true
	}
	e.mu.Unlock()
	e.Reg.Counter("coord_stages_resumed").Add(int64(len(resumed)))
	e.Reg.Counter("coord_stages_restarted").Add(int64(len(restarted)))
}

// rebuildStage re-registers one stage's map outputs in place from a
// journal record's owner list, after verifying every owner is alive and
// every map partition's blocks are still held.
func (e *Engine) rebuildStage(p *Plan, owners []topology.NodeID) bool {
	if len(owners) != p.parent.parts {
		return false
	}
	for _, owner := range owners {
		if n, err := e.cfg.Cluster.Node(owner); err != nil || !n.Alive() {
			return false
		}
	}
	e.mu.Lock()
	st := e.shuffles[p.id]
	e.mu.Unlock()
	if st == nil {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, blocks := range st.outputs {
		if blocks == nil {
			return false
		}
	}
	copy(st.owner, owners)
	for i := range st.done {
		st.done[i] = true
	}
	return true
}
