package dfs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/ha"
	"repro/internal/rng"
	"repro/internal/topology"
)

// nameState is the namenode metadata — namespace, block map, liveness,
// placement policy — separated from the datanode stores so it can run
// either embedded in the DFS (local mode) or as a deterministic
// replicated state machine on a Raft group (HA mode). Every method is a
// pure function of the state and its arguments: all randomness flows
// through the seeded RNG, which is part of the state and included in
// snapshots, so replicas that apply the same command sequence place
// blocks identically.
//
// Mutations that require data movement (seal, rereplicate, balance,
// decommission) register the metadata first and return a plan of copies
// for the data plane to execute; the read path tolerates a replica
// whose store has not caught up yet by falling back to another replica.
type nameState struct {
	cfg       Config
	files     map[string]*fileMeta
	blocks    map[BlockID]*blockMeta
	alive     []bool
	nextBlock BlockID
	rand      *rng.RNG
}

// moveRef is one planned data copy: block id from src's store to dst.
// src < 0 means a fresh write (the data comes from the client).
type moveRef struct {
	id       BlockID
	src, dst topology.NodeID
	length   int64
}

// blockRef names a block and the nodes holding it, for store cleanup.
type blockRef struct {
	id       BlockID
	replicas []topology.NodeID
}

// withDefaults normalizes the config exactly like New always has, so
// the local DFS and every state-machine replica agree on the policy.
func (cfg Config) withDefaults() Config {
	if cfg.Topology == nil {
		panic("dfs: Config.Topology is required")
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 8 << 20
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.Replication > cfg.Topology.Size() {
		cfg.Replication = cfg.Topology.Size()
	}
	return cfg
}

func newNameState(cfg Config) *nameState {
	cfg = cfg.withDefaults()
	st := &nameState{
		cfg:    cfg,
		files:  map[string]*fileMeta{},
		blocks: map[BlockID]*blockMeta{},
		alive:  make([]bool, cfg.Topology.Size()),
		rand:   rng.New(cfg.Seed),
	}
	for i := range st.alive {
		st.alive[i] = true
	}
	return st
}

func (st *nameState) size() int { return len(st.alive) }

func (st *nameState) create(path string, repl int) error {
	if _, ok := st.files[path]; ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	if repl <= 0 {
		repl = st.cfg.Replication
	}
	if repl > st.size() {
		repl = st.size()
	}
	// Reserve the name so concurrent creators conflict deterministically.
	st.files[path] = &fileMeta{path: path, repl: repl}
	return nil
}

// seal allocates a block id, places replicas and appends the block to
// path. The caller writes the data to the returned replicas' stores.
func (st *nameState) seal(path string, hint topology.NodeID, length int64) (BlockID, []topology.NodeID, error) {
	f, ok := st.files[path]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	replicas, err := st.place(f.repl, hint)
	if err != nil {
		return 0, nil, err
	}
	id := st.nextBlock
	st.nextBlock++
	st.blocks[id] = &blockMeta{id: id, length: length, replicas: replicas}
	f.blocks = append(f.blocks, id)
	f.size += length
	return id, replicas, nil
}

// place chooses repl distinct live nodes using the rack-aware policy.
func (st *nameState) place(repl int, hint topology.NodeID) ([]topology.NodeID, error) {
	top := st.cfg.Topology
	var chosen []topology.NodeID
	used := map[topology.NodeID]bool{}
	pick := func(ok func(topology.NodeID) bool) bool {
		// Random start, linear probe: deterministic given the seed.
		start := st.rand.Intn(top.Size())
		for i := 0; i < top.Size(); i++ {
			n := topology.NodeID((start + i) % top.Size())
			if st.alive[n] && !used[n] && (ok == nil || ok(n)) {
				chosen = append(chosen, n)
				used[n] = true
				return true
			}
		}
		return false
	}

	// First replica: the writer's node when live, else anywhere.
	if hint >= 0 && int(hint) < top.Size() && st.alive[hint] {
		chosen = append(chosen, hint)
		used[hint] = true
	} else if !pick(nil) {
		return nil, ErrNoLiveNode
	}
	// Second replica: a different rack when possible.
	if len(chosen) < repl {
		firstRack := top.RackOf(chosen[0])
		if !pick(func(n topology.NodeID) bool { return top.RackOf(n) != firstRack }) {
			if !pick(nil) {
				return chosen, nil // degraded: fewer replicas than asked
			}
		}
	}
	// Third replica: same rack as the second.
	if len(chosen) < repl {
		secondRack := top.RackOf(chosen[1])
		if !pick(func(n topology.NodeID) bool { return top.RackOf(n) == secondRack }) {
			pick(nil)
		}
	}
	// Any further replicas: anywhere.
	for len(chosen) < repl {
		if !pick(nil) {
			break
		}
	}
	return chosen, nil
}

// deleteFile removes a file, returning the freed blocks so the data
// plane can drop the stored replicas.
func (st *nameState) deleteFile(path string) ([]blockRef, error) {
	f, ok := st.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(st.files, path)
	var freed []blockRef
	for _, id := range f.blocks {
		bm := st.blocks[id]
		if bm == nil {
			continue
		}
		freed = append(freed, blockRef{id: id, replicas: bm.replicas})
		delete(st.blocks, id)
	}
	return freed, nil
}

func (st *nameState) setAlive(n topology.NodeID, alive bool) error {
	if int(n) < 0 || int(n) >= st.size() {
		return ErrNodeUnknown
	}
	st.alive[n] = alive
	return nil
}

// replTargets maps every referenced block to its file's target count.
func (st *nameState) replTargets() map[BlockID]int {
	target := map[BlockID]int{}
	for _, f := range st.files {
		for _, id := range f.blocks {
			target[id] = f.repl
		}
	}
	return target
}

// underReplicated returns blocks whose live replica count is below their
// file's target but above zero, sorted by id.
func (st *nameState) underReplicated() []BlockID {
	target := st.replTargets()
	var out []BlockID
	for id, bm := range st.blocks {
		live := 0
		for _, n := range bm.replicas {
			if st.alive[n] {
				live++
			}
		}
		if live < target[id] && live > 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rereplicate registers fresh replicas for every under-replicated block
// and returns the copy plan (src = an existing live replica).
func (st *nameState) rereplicate() []moveRef {
	target := st.replTargets()
	var plan []moveRef
	for _, id := range st.underReplicated() {
		bm := st.blocks[id]
		var src topology.NodeID = -1
		liveSet := map[topology.NodeID]bool{}
		live := 0
		for _, n := range bm.replicas {
			if st.alive[n] {
				liveSet[n] = true
				live++
				src = n
			}
		}
		for live < target[id] {
			start := st.rand.Intn(st.size())
			placed := false
			for i := 0; i < st.size(); i++ {
				n := topology.NodeID((start + i) % st.size())
				if !st.alive[n] || liveSet[n] {
					continue
				}
				bm.replicas = append(bm.replicas, n)
				liveSet[n] = true
				live++
				plan = append(plan, moveRef{id: id, src: src, dst: n, length: bm.length})
				placed = true
				break
			}
			if !placed {
				break
			}
		}
	}
	return plan
}

// storedBytes is node n's load as derivable from metadata alone (every
// replica of a block contributes its length). The data plane converges
// to this once planned copies execute.
func (st *nameState) storedBytes(n topology.NodeID) int64 {
	var total int64
	for _, bm := range st.blocks {
		for _, r := range bm.replicas {
			if r == n {
				total += bm.length
			}
		}
	}
	return total
}

// decommission drains node n: every replica it holds is reassigned to
// another live node (preferring the emptiest) and n is marked dead. The
// plan is all-or-nothing: if any block has no legal target the state is
// left untouched.
func (st *nameState) decommission(n topology.NodeID) ([]moveRef, error) {
	if int(n) < 0 || int(n) >= st.size() {
		return nil, ErrNodeUnknown
	}
	if !st.alive[n] {
		return nil, fmt.Errorf("dfs: node %d is already down", n)
	}
	var ids []BlockID
	for id, bm := range st.blocks {
		for _, r := range bm.replicas {
			if r == n {
				ids = append(ids, id)
				break
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Plan first against projected loads, then commit.
	extra := map[topology.NodeID]int64{}
	var plan []moveRef
	for _, id := range ids {
		bm := st.blocks[id]
		holds := map[topology.NodeID]bool{n: true}
		for _, r := range bm.replicas {
			holds[r] = true
		}
		best := topology.NodeID(-1)
		var bestBytes int64
		for i := 0; i < st.size(); i++ {
			cand := topology.NodeID(i)
			if !st.alive[cand] || holds[cand] {
				continue
			}
			b := st.storedBytes(cand) + extra[cand]
			if best < 0 || b < bestBytes {
				best, bestBytes = cand, b
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("%w: no target for block %d", ErrNoLiveNode, id)
		}
		extra[best] += bm.length
		plan = append(plan, moveRef{id: id, src: n, dst: best, length: bm.length})
	}
	for _, mv := range plan {
		bm := st.blocks[mv.id]
		for i, r := range bm.replicas {
			if r == n {
				bm.replicas[i] = mv.dst
				break
			}
		}
	}
	st.alive[n] = false
	return plan, nil
}

// balance migrates replicas from the fullest live nodes to the emptiest
// until every node is within slack of the live-node mean, or no legal
// move remains — the HDFS balancer as a deterministic greedy pass over
// the metadata. Returns the move plan.
func (st *nameState) balance(slack float64) []moveRef {
	if slack <= 0 {
		slack = 0.1
	}
	var plan []moveRef
	for iter := 0; iter < 10_000; iter++ {
		var live []topology.NodeID
		var total int64
		for i := 0; i < st.size(); i++ {
			n := topology.NodeID(i)
			if st.alive[n] {
				live = append(live, n)
				total += st.storedBytes(n)
			}
		}
		if len(live) < 2 {
			return plan
		}
		mean := float64(total) / float64(len(live))
		var fullest, emptiest topology.NodeID = -1, -1
		var maxB, minB int64
		for _, n := range live {
			b := st.storedBytes(n)
			if fullest < 0 || b > maxB {
				fullest, maxB = n, b
			}
			if emptiest < 0 || b < minB {
				emptiest, minB = n, b
			}
		}
		if float64(maxB) <= mean*(1+slack) || fullest == emptiest {
			return plan
		}
		// Candidates: blocks on the fullest node that the emptiest lacks.
		var candidates []*blockMeta
		for _, bm := range st.blocks {
			onFull, onEmpty := false, false
			for _, r := range bm.replicas {
				if r == fullest {
					onFull = true
				}
				if r == emptiest {
					onEmpty = true
				}
			}
			if onFull && !onEmpty {
				candidates = append(candidates, bm)
			}
		}
		if len(candidates) == 0 {
			return plan
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].id < candidates[j].id })
		// Smallest candidate block; a move only proceeds when it strictly
		// shrinks the max-min gap, otherwise indivisible blocks ping-pong
		// between nodes forever.
		bm := candidates[0]
		for _, c := range candidates {
			if c.length < bm.length {
				bm = c
			}
		}
		if maxB-minB <= bm.length {
			return plan
		}
		for i, r := range bm.replicas {
			if r == fullest {
				bm.replicas[i] = emptiest
				break
			}
		}
		plan = append(plan, moveRef{id: bm.id, src: fullest, dst: emptiest, length: bm.length})
	}
	return plan
}

// appendSnapshot appends the full metadata to buf, including the
// placement RNG state, so a restored replica continues the exact
// placement sequence.
func (st *nameState) appendSnapshot(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.nextBlock))
	for _, s := range st.rand.State() {
		buf = binary.BigEndian.AppendUint64(buf, s)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.alive)))
	for _, a := range st.alive {
		buf = ha.AppendBool(buf, a)
	}
	paths := make([]string, 0, len(st.files))
	for p := range st.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(paths)))
	for _, p := range paths {
		f := st.files[p]
		buf = ha.AppendString(buf, p)
		buf = binary.BigEndian.AppendUint32(buf, uint32(f.repl))
		buf = binary.BigEndian.AppendUint64(buf, uint64(f.size))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.blocks)))
		for _, id := range f.blocks {
			buf = binary.BigEndian.AppendUint64(buf, uint64(id))
		}
	}
	ids := make([]BlockID, 0, len(st.blocks))
	for id := range st.blocks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		bm := st.blocks[id]
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
		buf = appendNodes(binary.BigEndian.AppendUint64(buf, uint64(bm.length)), bm.replicas)
	}
	return buf
}

// restore replaces the metadata from a snapshot.
func (st *nameState) restore(snap []byte) {
	d := ha.NewDecoder(snap)
	st.nextBlock = BlockID(d.U64())
	var rs [4]uint64
	for i := range rs {
		rs[i] = d.U64()
	}
	st.rand.SetState(rs)
	st.alive = make([]bool, d.Count(1))
	for i := range st.alive {
		st.alive[i] = d.Bool()
	}
	st.files = map[string]*fileMeta{}
	nf := d.Count(20) // path length, repl, size, block count
	for i := 0; i < nf && d.Err() == nil; i++ {
		f := &fileMeta{path: d.String()}
		f.repl = int(d.U32())
		f.size = int64(d.U64())
		nb := d.Count(8)
		for j := 0; j < nb && d.Err() == nil; j++ {
			f.blocks = append(f.blocks, BlockID(d.U64()))
		}
		st.files[f.path] = f
	}
	st.blocks = map[BlockID]*blockMeta{}
	nb := d.Count(20) // id, length, replica count
	for i := 0; i < nb && d.Err() == nil; i++ {
		bm := &blockMeta{id: BlockID(d.U64())}
		bm.length = int64(d.U64())
		nr := d.Count(8)
		for j := 0; j < nr && d.Err() == nil; j++ {
			bm.replicas = append(bm.replicas, topology.NodeID(d.U64()))
		}
		st.blocks[bm.id] = bm
	}
}
