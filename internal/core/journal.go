package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dfs"
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
	st.mu.Lock()
	owners := make([]string, len(st.owner))
	for i, o := range st.owner {
		owners[i] = strconv.Itoa(int(o))
	}
	st.mu.Unlock()
	rec := journalRecord{kind: "stage", fp: e.fingerprintOf(p.id), planID: p.id, owners: strings.Join(owners, ",")}
	if err := j.Append(rec.encode(), tc); err != nil {
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
	rec := journalRecord{kind: "ckpt", fp: fps[p.id], planID: p.id}
	if err := j.Append(rec.encode(), trace.TraceContext{}); err != nil {
		e.Reg.Counter("journal_append_failures").Inc()
	}
}

// journalRecord is one coordinator journal record: a completed stage, with
// the owner node of each map partition, or a completed checkpoint. Both
// name the plan by id and by the fingerprint of the job shape around it.
type journalRecord struct {
	kind   string // "stage" or "ckpt"
	fp     uint64
	planID int
	owners string // stage only: comma-separated node ids, one per map partition
}

// encode is the record's journal form: "stage <fp> <plan> <owners>" or
// "ckpt <fp> <plan>".
func (r journalRecord) encode() []byte {
	if r.kind == "stage" {
		return fmt.Appendf(nil, "stage %d %d %s", r.fp, r.planID, r.owners)
	}
	return fmt.Appendf(nil, "ckpt %d %d", r.fp, r.planID)
}

// parseJournalRecord reads a replayed record, or reports false for one
// recovery has no use for: too few fields, numbers that do not parse, a
// stage without exactly one owner list, or a kind it does not know.
func parseJournalRecord(raw []byte) (journalRecord, bool) {
	fields := strings.Fields(string(raw))
	if len(fields) < 3 {
		return journalRecord{}, false
	}
	fp, err1 := strconv.ParseUint(fields[1], 10, 64)
	planID, err2 := strconv.Atoi(fields[2])
	rec := journalRecord{kind: fields[0], fp: fp, planID: planID}
	switch {
	case err1 != nil || err2 != nil:
		return journalRecord{}, false
	case rec.kind == "stage" && len(fields) == 4:
		rec.owners = fields[3]
	case rec.kind != "ckpt":
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
		rec, ok := parseJournalRecord(raw)
		if !ok {
			continue
		}
		planID := rec.planID
		pl := plans[planID]
		if pl == nil || fps[planID] != rec.fp {
			continue // a different job's record; not ours to resume
		}
		switch rec.kind {
		case "ckpt":
			if pl.checkpoint != nil {
				ckpts[planID] = true
			}
		case "stage":
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
func (e *Engine) rebuildStage(p *Plan, ownerList string) (*shuffleState, bool) {
	parts := strings.Split(ownerList, ",")
	if len(parts) != p.parent.parts {
		return nil, false
	}
	st := &shuffleState{
		dep:     p.dep,
		done:    make([]bool, len(parts)),
		owner:   make([]topology.NodeID, len(parts)),
		outputs: make([][]shuffle.Block, len(parts)),
	}
	for i, s := range parts {
		o, err := strconv.Atoi(s)
		if err != nil {
			return nil, false
		}
		owner := topology.NodeID(o)
		if n, err := e.cfg.Cluster.Node(owner); err != nil || !n.Alive() {
			return nil, false
		}
		blocks := e.exec.get(p.id, i)
		if blocks == nil {
			return nil, false
		}
		st.owner[i] = owner
		st.outputs[i] = blocks
		st.done[i] = true
	}
	return st, true
}
