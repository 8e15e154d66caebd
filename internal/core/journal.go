package core

import (
	"encoding/binary"
	"errors"
	"sync"

	"repro/internal/dfs"
	"repro/internal/ha"
	"repro/internal/shuffle"
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
// coordinator state — the shuffle-output registry, partition caches,
// checkpoint memos — is discarded at the next recovery point, and the
// job resumes from whatever the journal and the executor-held map
// outputs preserve. The chaos coord-crash fault calls this.
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

// executorStore models map outputs held by executor processes: shuffle
// blocks live with the workers that produced them and survive a
// coordinator crash (the Spark executor / MapOutputTracker split). Only
// node death removes them.
type executorStore struct {
	mu     sync.Mutex
	blocks map[int][][]shuffle.Block // planID -> map partition -> blocks
}

func newExecutorStore() *executorStore {
	return &executorStore{blocks: map[int][][]shuffle.Block{}}
}

func (s *executorStore) put(planID, mapPart, parts int, blocks []shuffle.Block) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.blocks[planID]
	if !ok {
		m = make([][]shuffle.Block, parts)
		s.blocks[planID] = m
	}
	m[mapPart] = blocks
}

func (s *executorStore) get(planID, mapPart int) []shuffle.Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.blocks[planID]
	if m == nil || mapPart < 0 || mapPart >= len(m) {
		return nil
	}
	return m[mapPart]
}

func (s *executorStore) drop(planID, mapPart int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.blocks[planID]; m != nil && mapPart >= 0 && mapPart < len(m) {
		m[mapPart] = nil
	}
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

// setJobPlans records the current job's plan index and fingerprints;
// runMapStage and recovery read them from the driver thread.
func (e *Engine) setJobPlans(p *Plan) {
	plans := map[int]*Plan{}
	fps := map[int]uint64{}
	collectPlans(p, plans, fps)
	e.mu.Lock()
	e.jobPlans = plans
	e.jobFPs = fps
	e.mu.Unlock()
}

func (e *Engine) fingerprintOf(planID int) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobFPs[planID]
}

// journalStage appends a stage-completion record: the plan fingerprint,
// plan id, and the owner node of each map partition. Journaling is
// best-effort — a failed append (e.g. the control-plane quorum is
// briefly lost) degrades recovery, not the running job.
func (e *Engine) journalStage(p *Plan, st *shuffleState, tc trace.TraceContext) {
	j := e.journalRef()
	if j == nil {
		return
	}
	fp := e.fingerprintOf(p.id)
	st.mu.Lock()
	rec := journalRecord{kind: recStage, fp: fp, planID: p.id, owners: st.owner}.encode()
	st.mu.Unlock()
	if err := j.Append(rec, tc); err != nil {
		e.Reg.Counter("journal_append_failures").Inc()
	}
}

// journalCheckpoint appends a checkpoint-completion record.
func (e *Engine) journalCheckpoint(p *Plan) {
	j := e.journalRef()
	if j == nil {
		return
	}
	plans := map[int]*Plan{}
	fps := map[int]uint64{}
	collectPlans(p, plans, fps)
	rec := journalRecord{kind: recCkpt, fp: fps[p.id], planID: p.id}
	if err := j.Append(rec.encode(), trace.TraceContext{}); err != nil {
		e.Reg.Counter("journal_append_failures").Inc()
	}
}

// journalRecord is one coordinator journal record: a completed stage, with
// the owner node of each map partition, or a completed checkpoint. Both
// name the plan by id and by the fingerprint of the job shape around it.
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
// is pending it wipes all volatile coordinator state, then replays the
// journal and rebuilds shuffle-output metadata for every completed
// stage whose fingerprint matches the current job, whose owners are
// still alive and whose blocks the executors still hold. Such stages
// are resumed (coord_stages_resumed); journaled stages that fail
// verification are recomputed from lineage (coord_stages_restarted).
func (e *Engine) recoverCoordinator(p *Plan) {
	e.mu.Lock()
	if !e.coordCrashed {
		e.mu.Unlock()
		return
	}
	e.coordCrashed = false
	e.shuffles = map[int]*shuffleState{}
	e.caches = map[int][][]Row{}
	e.ckptDone = map[int]bool{}
	journal := e.journal
	plans := e.jobPlans
	fps := e.jobFPs
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
			st, ok := e.rebuildStage(pl, rec.owners)
			if ok {
				e.mu.Lock()
				e.shuffles[planID] = st
				e.mu.Unlock()
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

// rebuildStage reconstructs one stage's shuffle metadata from a journal
// record's owner list plus the executor-held blocks, verifying every
// owner is alive and every map partition's output is still present.
func (e *Engine) rebuildStage(p *Plan, owners []topology.NodeID) (*shuffleState, bool) {
	if len(owners) != p.parent.parts {
		return nil, false
	}
	st := &shuffleState{
		done:    make([]bool, len(owners)),
		owner:   owners,
		outputs: make([][]shuffle.Block, len(owners)),
	}
	for i, owner := range owners {
		if n, err := e.cfg.Cluster.Node(owner); err != nil || !n.Alive() {
			return nil, false
		}
		blocks := e.exec.get(p.id, i)
		if blocks == nil {
			return nil, false
		}
		st.outputs[i] = blocks
		st.done[i] = true
	}
	return st, true
}
