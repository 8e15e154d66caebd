// Package dfs is an in-memory, HDFS-like distributed file system: a
// namenode (namespace, block map, placement policy) over per-node block
// stores. Files are split into fixed-size blocks, each replicated with the
// standard rack-aware policy (first replica local, second off-rack, third
// on the second's rack). The dataflow engine schedules tasks against
// BlockLocations for locality, and the recovery experiments kill nodes and
// re-replicate.
//
// The namenode metadata is a deterministic state machine, and every
// mutation reaches it as an encoded command. New applies the commands to
// one machine in-process (one namenode, the availability gap real HDFS
// had before QJM-based HA), while NewReplicated proposes them to a Raft
// group from internal/ha, so a namenode-leader crash fails over without
// losing the block map. The datanode layer — block stores plus CRC32
// per-replica checksums with read-repair — is identical in both modes.
//
// Data is held in memory because the experiments measure placement,
// locality and recovery behaviour — structural properties — rather than
// disk throughput; see DESIGN.md's substitution table.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// Errors returned by namespace operations.
var (
	ErrExists       = errors.New("dfs: file already exists")
	ErrNotFound     = errors.New("dfs: file not found")
	ErrNoLiveNode   = errors.New("dfs: no live node available for placement")
	ErrBlockLost    = errors.New("dfs: all replicas of a block are dead")
	ErrCorrupt      = errors.New("dfs: block fails checksum on every live replica")
	ErrNodeUnknown  = errors.New("dfs: unknown node")
	ErrWriterClosed = errors.New("dfs: writer is closed")
)

// BlockID identifies a block cluster-wide.
type BlockID int64

// Config configures a DFS instance.
type Config struct {
	// BlockSize is the split size in bytes. Defaults to 8 MiB.
	BlockSize int64
	// Replication is the default replica count. Defaults to 3, clamped to
	// the cluster size.
	Replication int
	// Topology describes the cluster; required.
	Topology *topology.Topology
	// Seed drives placement randomness.
	Seed uint64
}

// BlockInfo describes one block of a file: its identity, length and the
// nodes currently holding live replicas (closest-first ordering is the
// caller's job via Topology).
type BlockInfo struct {
	ID       BlockID
	Length   int64
	Replicas []topology.NodeID
}

// FileInfo summarizes a file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks int
}

type blockMeta struct {
	id       BlockID
	length   int64
	replicas []topology.NodeID
}

type fileMeta struct {
	path   string
	blocks []BlockID
	size   int64
	repl   int
}

// datanode stores block replicas plus the CRC32 recorded at write time;
// every read re-computes the sum and repairs from a healthy replica on
// mismatch.
type datanode struct {
	store map[BlockID][]byte
	sums  map[BlockID]uint32
}

// dfsMetrics holds the optional instrumentation hooks. All fields are
// nil until Instrument is called; the nil-safe metric types make every
// update a single branch when disabled.
type dfsMetrics struct {
	blocksWritten     *metrics.Counter
	bytesWritten      *metrics.Counter
	blocksRead        *metrics.Counter
	bytesRead         *metrics.Counter
	readsByLocality   *metrics.CounterVec // label: locality = local|rack|remote
	replicasCreated   *metrics.Counter
	rereplicatedBytes *metrics.Counter
	checksumFailures  *metrics.Counter
	readRepairs       *metrics.Counter
}

// DFS is the whole filesystem: the namenode backend plus all datanodes.
// Safe for concurrent use.
type DFS struct {
	mu    sync.RWMutex // guards the datanode stores and checksums
	cfg   Config
	meta  namenode
	nodes []*datanode
	m     dfsMetrics
}

// Instrument attaches the filesystem's counters to reg: block/byte
// write and read volume, read locality (dfs_reads_by_locality, labeled
// local/rack/remote), re-replication work, and block integrity
// (dfs_checksum_failures, dfs_read_repairs). Call before serving
// traffic; a nil reg detaches.
func (d *DFS) Instrument(reg *metrics.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if reg == nil {
		d.m = dfsMetrics{}
		return
	}
	d.m = dfsMetrics{
		blocksWritten:     reg.Counter("dfs_blocks_written"),
		bytesWritten:      reg.Counter("dfs_bytes_written"),
		blocksRead:        reg.Counter("dfs_blocks_read"),
		bytesRead:         reg.Counter("dfs_bytes_read"),
		readsByLocality:   reg.CounterVec("dfs_reads_by_locality", "locality"),
		replicasCreated:   reg.Counter("dfs_replicas_created"),
		rereplicatedBytes: reg.Counter("dfs_rereplicated_bytes"),
		checksumFailures:  reg.Counter("dfs_checksum_failures"),
		readRepairs:       reg.Counter("dfs_read_repairs"),
	}
}

// New creates an empty filesystem over cfg.Topology with an in-process
// (single, unreplicated) namenode.
func New(cfg Config) *DFS {
	cfg = cfg.withDefaults()
	return newDFS(cfg, &localMeta{m: nameMachine{st: newNameState(cfg)}})
}

// NewReplicated creates a filesystem whose namenode metadata is
// replicated on g: every mutation is proposed as a command on the
// group's MachineName state machine (register NameMachine(cfg) there),
// so a namenode-leader crash fails over without losing the block map.
// The group must be built with the same cfg the filesystem uses.
func NewReplicated(cfg Config, g *ha.Group) *DFS {
	cfg = cfg.withDefaults()
	return newDFS(cfg, &raftMeta{g: g})
}

func newDFS(cfg Config, meta metaBackend) *DFS {
	d := &DFS{
		cfg:   cfg,
		meta:  namenode{meta},
		nodes: make([]*datanode, cfg.Topology.Size()),
	}
	for i := range d.nodes {
		d.nodes[i] = &datanode{store: map[BlockID][]byte{}, sums: map[BlockID]uint32{}}
	}
	return d
}

// Create opens a new file for writing with the default replication and no
// placement hint.
func (d *DFS) Create(path string) (*Writer, error) {
	return d.CreateWith(path, d.cfg.Replication, topology.NodeID(-1))
}

// CreateWith opens a new file with an explicit replication factor and a
// placement hint: the writer's node, which receives the first replica of
// every block (the HDFS write-local rule). Pass hint -1 for no affinity.
func (d *DFS) CreateWith(path string, replication int, hint topology.NodeID) (*Writer, error) {
	if err := d.meta.create(path, replication); err != nil {
		return nil, err
	}
	return &Writer{d: d, path: path, hint: hint}, nil
}

// Writer streams data into a file, sealing a block every BlockSize bytes.
type Writer struct {
	d      *DFS
	path   string
	hint   topology.NodeID
	buf    []byte
	closed bool
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrWriterClosed
	}
	total := len(p)
	for len(p) > 0 {
		room := int(w.d.cfg.BlockSize) - len(w.buf)
		n := len(p)
		if n > room {
			n = room
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		if int64(len(w.buf)) == w.d.cfg.BlockSize {
			if err := w.seal(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// seal commits the current buffer as a block: the namenode registers the
// block and chooses replicas, then the data lands on those stores.
func (w *Writer) seal() error {
	if len(w.buf) == 0 {
		return nil
	}
	data := w.buf
	w.buf = nil
	id, replicas, err := w.d.meta.seal(w.path, w.hint, int64(len(data)))
	if err != nil {
		return err
	}
	sum := crc32.ChecksumIEEE(data)
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	for _, n := range replicas {
		stored := make([]byte, len(data))
		copy(stored, data)
		w.d.nodes[n].store[id] = stored
		w.d.nodes[n].sums[id] = sum
	}
	w.d.m.blocksWritten.Inc()
	w.d.m.bytesWritten.Add(int64(len(data)))
	return nil
}

// Close seals the final partial block and commits the file.
func (w *Writer) Close() error {
	if w.closed {
		return ErrWriterClosed
	}
	w.closed = true
	return w.seal()
}

// Stat returns file metadata.
func (d *DFS) Stat(path string) (FileInfo, error) {
	var info FileInfo
	var ok bool
	if err := d.meta.view(func(st *nameState) {
		f, found := st.files[path]
		if !found {
			return
		}
		ok = true
		info = FileInfo{Path: f.path, Size: f.size, Blocks: len(f.blocks)}
	}); err != nil {
		return FileInfo{}, err
	}
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return info, nil
}

// List returns the paths with the given prefix, sorted.
func (d *DFS) List(prefix string) []string {
	var out []string
	_ = d.meta.view(func(st *nameState) {
		for p := range st.files {
			if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
				out = append(out, p)
			}
		}
	})
	sort.Strings(out)
	return out
}

// Delete removes a file and frees replicas whose blocks belong to no file.
func (d *DFS) Delete(path string) error {
	freed, err := d.meta.deleteFile(path)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ref := range freed {
		for _, n := range ref.replicas {
			delete(d.nodes[n].store, ref.id)
			delete(d.nodes[n].sums, ref.id)
		}
	}
	return nil
}

// BlockLocations returns the live replica placement of every block of path,
// in file order.
func (d *DFS) BlockLocations(path string) ([]BlockInfo, error) {
	var out []BlockInfo
	var ok bool
	if err := d.meta.view(func(st *nameState) {
		f, found := st.files[path]
		if !found {
			return
		}
		ok = true
		out = make([]BlockInfo, 0, len(f.blocks))
		for _, id := range f.blocks {
			bm := st.blocks[id]
			var live []topology.NodeID
			for _, n := range bm.replicas {
				if st.alive[n] {
					live = append(live, n)
				}
			}
			out = append(out, BlockInfo{ID: id, Length: bm.length, Replicas: live})
		}
	}); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return out, nil
}

// ReadBlock returns a copy of block id from a live replica, preferring
// one close to `at` (node-local, then rack-local, then remote). Every
// read verifies the replica's CRC32; a corrupt replica is skipped, the
// read served from the next-closest healthy one, and the corrupt copy
// overwritten in place (read-repair). It also returns the node served
// from, so callers can charge network cost.
func (d *DFS) ReadBlock(id BlockID, at topology.NodeID) ([]byte, topology.NodeID, error) {
	var candidates []topology.NodeID
	var known bool
	var length int64
	if err := d.meta.view(func(st *nameState) {
		bm, ok := st.blocks[id]
		if !ok {
			return
		}
		known = true
		length = bm.length
		for _, n := range bm.replicas {
			if st.alive[n] {
				candidates = append(candidates, n)
			}
		}
	}); err != nil {
		return nil, -1, err
	}
	if !known {
		return nil, -1, fmt.Errorf("%w: block %d", ErrNotFound, id)
	}
	if len(candidates) == 0 {
		return nil, -1, fmt.Errorf("%w: block %d", ErrBlockLost, id)
	}
	// Closest-first, ties by node id for determinism.
	sort.SliceStable(candidates, func(i, j int) bool {
		return d.localityOf(candidates[i], at) < d.localityOf(candidates[j], at)
	})

	d.mu.RLock()
	serve, _, corrupt := d.scanReplicasLocked(id, candidates)
	d.mu.RUnlock()
	if serve < 0 || len(corrupt) > 0 {
		// Slow path: repair corrupt replicas (or conclude the block is
		// unreadable) under the write lock, re-scanning since the world
		// may have changed between the locks.
		var err error
		if serve, err = d.repairLocked(id, candidates); err != nil {
			return nil, -1, err
		}
	}
	d.mu.RLock()
	data := d.nodes[serve].store[id]
	out := make([]byte, len(data))
	copy(out, data)
	d.mu.RUnlock()

	d.m.blocksRead.Inc()
	d.m.bytesRead.Add(length)
	switch d.localityOf(serve, at) {
	case topology.LocalNode:
		d.m.readsByLocality.With("local").Inc()
	case topology.LocalRack:
		d.m.readsByLocality.With("rack").Inc()
	default:
		d.m.readsByLocality.With("remote").Inc()
	}
	return out, serve, nil
}

func (d *DFS) localityOf(n, at topology.NodeID) topology.Locality {
	if at >= 0 && at < topology.NodeID(d.cfg.Topology.Size()) {
		return d.cfg.Topology.LocalityOf(n, at)
	}
	return topology.Remote
}

// scanReplicasLocked walks candidates closest-first and returns the
// first healthy replica, how many had the data stored at all, and which
// stored copies failed their checksum.
func (d *DFS) scanReplicasLocked(id BlockID, candidates []topology.NodeID) (serve topology.NodeID, stored int, corrupt []topology.NodeID) {
	serve = -1
	for _, n := range candidates {
		data, ok := d.nodes[n].store[id]
		if !ok {
			// Replica registered but data not landed yet (a planned copy
			// in flight); another candidate holds it.
			continue
		}
		stored++
		if crc32.ChecksumIEEE(data) != d.nodes[n].sums[id] {
			corrupt = append(corrupt, n)
			continue
		}
		if serve < 0 {
			serve = n
		}
	}
	return serve, stored, corrupt
}

// repairLocked re-scans under the write lock, overwrites corrupt
// replicas from the closest healthy one, and returns the serving node.
func (d *DFS) repairLocked(id BlockID, candidates []topology.NodeID) (topology.NodeID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	serve, stored, corrupt := d.scanReplicasLocked(id, candidates)
	d.m.checksumFailures.Add(int64(len(corrupt)))
	if serve < 0 {
		if stored > 0 {
			return -1, fmt.Errorf("%w: block %d", ErrCorrupt, id)
		}
		return -1, fmt.Errorf("%w: block %d", ErrBlockLost, id)
	}
	healthy := d.nodes[serve].store[id]
	sum := d.nodes[serve].sums[id]
	for _, n := range corrupt {
		cp := make([]byte, len(healthy))
		copy(cp, healthy)
		d.nodes[n].store[id] = cp
		d.nodes[n].sums[id] = sum
		d.m.readRepairs.Inc()
	}
	return serve, nil
}

// CorruptBlock flips a data byte of the lowest-id block stored on node n
// without updating the recorded checksum — a silent bit-rot fault for
// chaos schedules; detection shows up as dfs_checksum_failures and the
// fix as dfs_read_repairs.
func (d *DFS) CorruptBlock(n topology.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(n) < 0 || int(n) >= len(d.nodes) {
		return ErrNodeUnknown
	}
	victim := BlockID(-1)
	for id, data := range d.nodes[n].store {
		if len(data) > 0 && (victim < 0 || id < victim) {
			victim = id
		}
	}
	if victim < 0 {
		return fmt.Errorf("dfs: node %d stores no blocks to corrupt", n)
	}
	d.nodes[n].store[victim][0] ^= 0xFF
	return nil
}

// Open returns a sequential reader over the whole file, served from
// replicas closest to `at` (pass -1 for no affinity).
func (d *DFS) Open(path string, at topology.NodeID) (io.Reader, error) {
	var ids []BlockID
	var ok bool
	if err := d.meta.view(func(st *nameState) {
		f, found := st.files[path]
		if !found {
			return
		}
		ok = true
		ids = make([]BlockID, len(f.blocks))
		copy(ids, f.blocks)
	}); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return &reader{d: d, ids: ids, at: at}, nil
}

type reader struct {
	d   *DFS
	ids []BlockID
	at  topology.NodeID
	cur []byte
}

func (r *reader) Read(p []byte) (int, error) {
	for len(r.cur) == 0 {
		if len(r.ids) == 0 {
			return 0, io.EOF
		}
		data, _, err := r.d.ReadBlock(r.ids[0], r.at)
		if err != nil {
			return 0, err
		}
		r.ids = r.ids[1:]
		r.cur = data
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// KillNode marks a node dead: its replicas become unreadable until revival
// or re-replication.
func (d *DFS) KillNode(n topology.NodeID) error {
	return d.meta.setAlive(n, false)
}

// ReviveNode brings a dead node back with its stored replicas intact.
func (d *DFS) ReviveNode(n topology.NodeID) error {
	return d.meta.setAlive(n, true)
}

// UnderReplicated returns blocks whose live replica count is below their
// file's target, sorted by id.
func (d *DFS) UnderReplicated() []BlockID {
	var out []BlockID
	_ = d.meta.view(func(st *nameState) {
		out = st.underReplicated()
	})
	return out
}

// Rereplicate copies under-replicated blocks from a live replica to fresh
// live nodes until targets are met. It returns the number of new replicas
// created and the total bytes copied (for recovery-cost accounting).
func (d *DFS) Rereplicate() (newReplicas int, bytesCopied int64) {
	plan, err := d.meta.rereplicate()
	if err != nil {
		return 0, 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, mv := range plan {
		if !d.copyReplicaLocked(mv.id, mv.src, mv.dst) {
			continue
		}
		newReplicas++
		bytesCopied += mv.length
		d.m.replicasCreated.Inc()
		d.m.rereplicatedBytes.Add(mv.length)
	}
	return newReplicas, bytesCopied
}

// copyReplicaLocked lands block id on dst from a healthy source,
// preferring src. A corrupt preferred source falls back to any replica
// whose data still matches its checksum, so re-replication never
// propagates bit-rot.
func (d *DFS) copyReplicaLocked(id BlockID, src, dst topology.NodeID) bool {
	data, sum, ok := d.healthyDataLocked(id, src)
	if !ok {
		return false
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	d.nodes[dst].store[id] = cp
	d.nodes[dst].sums[id] = sum
	return true
}

// healthyDataLocked finds a stored copy of id whose CRC matches,
// checking prefer first then every node.
func (d *DFS) healthyDataLocked(id BlockID, prefer topology.NodeID) ([]byte, uint32, bool) {
	check := func(n topology.NodeID) ([]byte, uint32, bool) {
		data, ok := d.nodes[n].store[id]
		if !ok {
			return nil, 0, false
		}
		sum := d.nodes[n].sums[id]
		if crc32.ChecksumIEEE(data) != sum {
			return nil, 0, false
		}
		return data, sum, true
	}
	if prefer >= 0 && int(prefer) < len(d.nodes) {
		if data, sum, ok := check(prefer); ok {
			return data, sum, true
		}
	}
	for i := range d.nodes {
		if data, sum, ok := check(topology.NodeID(i)); ok {
			return data, sum, true
		}
	}
	return nil, 0, false
}

// TotalStoredBytes returns the bytes held across all datanodes (replicas
// counted individually).
func (d *DFS) TotalStoredBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total int64
	for _, dn := range d.nodes {
		for _, b := range dn.store {
			total += int64(len(b))
		}
	}
	return total
}
