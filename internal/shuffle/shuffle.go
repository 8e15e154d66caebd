// Package shuffle implements the all-to-all data exchange at the heart of
// the dataflow engine: map tasks partition their output records by key into
// per-reducer blocks, optionally combining, spilling and sorting on the
// way; reduce tasks fetch and merge those blocks. Two strategies are
// provided behind one interface — hash shuffle (per-partition append
// buffers) and sort shuffle (one buffer sorted by (partition, key), merged
// on read) — which experiment E2 ablates, along with the compression codec.
package shuffle

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/compress"
	"repro/internal/serde"
)

// ErrClosed is returned when writing to a closed writer.
var ErrClosed = errors.New("shuffle: writer closed")

// Partition maps a key to one of n reduce partitions (hash partitioning).
func Partition(key []byte, n int) int {
	h := fnv.New32a()
	_, _ = h.Write(key)
	return int(h.Sum32() % uint32(n))
}

// RangePartitioner assigns keys to partitions by comparing against sorted
// split points — the TeraSort partitioner. Keys below splits[0] go to
// partition 0, and so on.
type RangePartitioner struct {
	splits [][]byte
}

// NewRangePartitioner builds a partitioner with the given ascending split
// points, producing len(splits)+1 partitions.
func NewRangePartitioner(splits [][]byte) *RangePartitioner {
	cp := make([][]byte, len(splits))
	for i, s := range splits {
		cp[i] = append([]byte(nil), s...)
	}
	return &RangePartitioner{splits: cp}
}

// Partitions returns the partition count.
func (r *RangePartitioner) Partitions() int { return len(r.splits) + 1 }

// Partition returns the partition for key.
func (r *RangePartitioner) Partition(key []byte) int {
	return sort.Search(len(r.splits), func(i int) bool {
		return bytes.Compare(r.splits[i], key) > 0
	})
}

// Block is one map task's output for one reduce partition.
type Block struct {
	Partition int
	Data      []byte // compressed record stream
	Records   int
	RawBytes  int64 // pre-compression size
	Sorted    bool  // records within the block are ordered by key
}

// Stats accumulates writer-side counters.
type Stats struct {
	RecordsIn  int
	RecordsOut int // differs from RecordsIn when a combiner runs
	RawBytes   int64
	WireBytes  int64
	Spills     int
	// PartitionRecords and PartitionBytes hold the post-combine,
	// pre-compression distribution across reduce partitions (length
	// Config.Partitions, zero entries for empty partitions). They feed the
	// engine's shuffle-skew analysis.
	PartitionRecords []int
	PartitionBytes   []int64
}

// Writer receives a map task's records and produces per-partition blocks.
type Writer interface {
	// Write adds one record.
	Write(key, value []byte) error
	// Close seals the writer and returns one block per non-empty
	// partition plus statistics.
	Close() ([]Block, Stats, error)
}

// Config configures a writer.
type Config struct {
	// Partitions is the reduce-side partition count; required.
	Partitions int
	// Partitioner overrides hash partitioning (e.g. range partitioning
	// for sorts). Nil means Partition().
	Partitioner func(key []byte) int
	// Codec compresses blocks. Nil means compress.None.
	Codec compress.Codec
	// SpillThreshold is the buffered-bytes level that triggers a spill
	// (simulated: spilled runs stay in memory but are segmented and, for
	// the sort writer, pre-sorted like on-disk runs). Default 4 MiB.
	SpillThreshold int64
	// Combiner, if non-nil, merges values with equal keys map-side.
	Combiner func(a, b []byte) []byte
}

func (c *Config) fill() error {
	if c.Partitions <= 0 {
		return fmt.Errorf("shuffle: Partitions must be positive, got %d", c.Partitions)
	}
	if c.Codec == nil {
		c.Codec = compress.None{}
	}
	if c.SpillThreshold <= 0 {
		c.SpillThreshold = 4 << 20
	}
	if c.Partitioner == nil {
		n := c.Partitions
		c.Partitioner = func(key []byte) int { return Partition(key, n) }
	}
	return nil
}

// newStats returns Stats with its per-partition slices allocated.
func newStats(cfg *Config) Stats {
	return Stats{
		PartitionRecords: make([]int, cfg.Partitions),
		PartitionBytes:   make([]int64, cfg.Partitions),
	}
}

// sealBlocks compresses each non-empty partition stream into a block and
// folds its size into st; st.PartitionRecords must already hold the counts.
func sealBlocks(cfg *Config, raws [][]byte, sorted bool, st *Stats) []Block {
	var blocks []Block
	for p, raw := range raws {
		if len(raw) == 0 {
			continue
		}
		data := cfg.Codec.Compress(raw)
		n := st.PartitionRecords[p]
		st.RecordsOut += n
		st.RawBytes += int64(len(raw))
		st.WireBytes += int64(len(data))
		st.PartitionBytes[p] = int64(len(raw))
		blocks = append(blocks, Block{
			Partition: p, Data: data, Records: n,
			RawBytes: int64(len(raw)), Sorted: sorted,
		})
	}
	return blocks
}

// ---------------------------------------------------------------------------
// Hash shuffle

// hashWriter appends framed records to one buffer per partition, spilling
// segments when memory crosses the threshold. Output blocks are unsorted.
type hashWriter struct {
	cfg      Config
	bufs     [][]byte
	combine  []map[string][]byte // per-partition combiner state
	buffered int64
	segments [][][]byte // partition -> spilled segments
	stats    Stats
	closed   bool
}

// NewHashWriter returns a hash-shuffle writer.
func NewHashWriter(cfg Config) (Writer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	w := &hashWriter{
		cfg:      cfg,
		bufs:     make([][]byte, cfg.Partitions),
		segments: make([][][]byte, cfg.Partitions),
		stats:    newStats(&cfg),
	}
	if cfg.Combiner != nil {
		w.combine = make([]map[string][]byte, cfg.Partitions)
		for i := range w.combine {
			w.combine[i] = map[string][]byte{}
		}
	}
	return w, nil
}

func (w *hashWriter) Write(key, value []byte) error {
	if w.closed {
		return ErrClosed
	}
	w.stats.RecordsIn++
	p := w.cfg.Partitioner(key)
	if w.combine != nil {
		m := w.combine[p]
		if prev, ok := m[string(key)]; ok {
			m[string(key)] = w.cfg.Combiner(prev, value)
		} else {
			m[string(key)] = append([]byte(nil), value...)
			w.buffered += int64(len(key) + len(value))
		}
	} else {
		w.emit(p, key, value)
		w.buffered += int64(len(key) + len(value))
	}
	if w.buffered >= w.cfg.SpillThreshold {
		w.spill()
	}
	return nil
}

// emit frames one record into partition p's buffer.
func (w *hashWriter) emit(p int, key, value []byte) {
	w.bufs[p] = serde.AppendRecord(w.bufs[p], key, value)
	w.stats.PartitionRecords[p]++
}

// spill moves buffered data into per-partition segments.
func (w *hashWriter) spill() {
	w.flushCombiner()
	for p, buf := range w.bufs {
		if len(buf) > 0 {
			w.segments[p] = append(w.segments[p], buf)
			w.bufs[p] = nil
		}
	}
	w.buffered = 0
	w.stats.Spills++
}

// flushCombiner drains combiner maps into the per-partition buffers.
func (w *hashWriter) flushCombiner() {
	if w.combine == nil {
		return
	}
	for p, m := range w.combine {
		if len(m) == 0 {
			continue
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys) // determinism
		for _, k := range keys {
			w.emit(p, []byte(k), m[k])
		}
		w.combine[p] = map[string][]byte{}
	}
}

func (w *hashWriter) Close() ([]Block, Stats, error) {
	if w.closed {
		return nil, w.stats, ErrClosed
	}
	w.closed = true
	w.flushCombiner()
	for p, segs := range w.segments {
		if len(segs) > 0 {
			w.bufs[p] = bytes.Join(append(segs, w.bufs[p]), nil)
		}
	}
	blocks := sealBlocks(&w.cfg, w.bufs, false, &w.stats)
	w.bufs, w.segments = nil, nil
	return blocks, w.stats, nil
}

// ---------------------------------------------------------------------------
// Sort shuffle

// sortEntry locates one buffered record in its run's arena — the key at
// off, the value right behind it — beside everything the sort compares, so
// ordering a run neither calls the partitioner nor, usually, reads the key.
type sortEntry struct {
	prefix     uint64 // first 8 key bytes, big-endian, zero-padded
	off        int
	klen, vlen int
	part       int
}

// sortRun is one spill's worth of records: key‖value bytes back to back in
// arena, one entry each.
type sortRun struct {
	arena   []byte
	entries []sortEntry
}

func (r *sortRun) key(e sortEntry) []byte { return r.arena[e.off : e.off+e.klen] }

// frame appends e's record to dst in the block format.
func (r *sortRun) frame(dst []byte, e sortEntry) []byte {
	kv := r.arena[e.off : e.off+e.klen+e.vlen]
	return serde.AppendRecord(dst, kv[:e.klen], kv[e.klen:])
}

// keyPrefix returns the first 8 bytes of key, zero-padded, as a big-endian
// integer: prefixes that differ order like the keys they come from.
func keyPrefix(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// compareEntries orders by (partition, key).
func compareEntries(ra *sortRun, a sortEntry, rb *sortRun, b sortEntry) int {
	if a.part != b.part {
		return cmp.Compare(a.part, b.part)
	}
	if a.prefix != b.prefix {
		return cmp.Compare(a.prefix, b.prefix)
	}
	return bytes.Compare(ra.key(a), rb.key(b))
}

// sortWriter copies each record once into the current run's arena, sorts
// every spill run by (partition, key) with equal keys in arrival order, and
// merges the runs at close — the Spark "sort shuffle" design. Output blocks
// are key-sorted, which lets downstream merges stream.
type sortWriter struct {
	cfg      Config
	cur      sortRun
	buffered int64
	runs     []sortRun // each sorted by (partition, key)
	combine  map[string][]byte
	stats    Stats // PartitionBytes is kept current so Close can size its output
	closed   bool
}

// NewSortWriter returns a sort-shuffle writer.
func NewSortWriter(cfg Config) (Writer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	w := &sortWriter{cfg: cfg, stats: newStats(&cfg)}
	if cfg.Combiner != nil {
		w.combine = map[string][]byte{}
	}
	return w, nil
}

func (w *sortWriter) Write(key, value []byte) error {
	if w.closed {
		return ErrClosed
	}
	w.stats.RecordsIn++
	if w.combine != nil {
		if prev, ok := w.combine[string(key)]; ok {
			w.combine[string(key)] = w.cfg.Combiner(prev, value)
		} else {
			w.combine[string(key)] = append([]byte(nil), value...)
			w.buffered += int64(len(key) + len(value))
		}
	} else {
		w.add(key, value)
		w.buffered += int64(len(key) + len(value))
	}
	if w.buffered >= w.cfg.SpillThreshold {
		w.spill()
	}
	return nil
}

// add copies one record into the current run and partitions it.
func (w *sortWriter) add(key, value []byte) {
	p := w.cfg.Partitioner(key)
	w.cur.entries = append(grow(w.cur.entries, 1), sortEntry{
		prefix: keyPrefix(key),
		off:    len(w.cur.arena), klen: len(key), vlen: len(value), part: p,
	})
	w.cur.arena = append(append(grow(w.cur.arena, len(key)+len(value)), key...), value...)
	w.stats.PartitionRecords[p]++
	w.stats.PartitionBytes[p] += int64(serde.FramedLen(len(key), len(value)))
}

// grow makes room for n more elements by at least doubling: a run reaches
// megabytes, where append's 1.25x steps would copy and allocate it five
// times over.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// sealRun sorts the buffered records into a finished run and reports
// whether there were any.
func (w *sortWriter) sealRun() bool {
	for k, v := range w.combine {
		w.add([]byte(k), v)
	}
	clear(w.combine)
	run := &w.cur
	if len(run.entries) == 0 {
		return false
	}
	slices.SortFunc(run.entries, func(a, b sortEntry) int {
		if c := compareEntries(run, a, run, b); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
	})
	w.runs = append(w.runs, w.cur)
	w.cur = sortRun{}
	return true
}

func (w *sortWriter) spill() {
	if w.sealRun() {
		w.buffered = 0
		w.stats.Spills++
	}
}

func (w *sortWriter) Close() ([]Block, Stats, error) {
	if w.closed {
		return nil, w.stats, ErrClosed
	}
	w.closed = true
	w.sealRun()
	raws := make([][]byte, w.cfg.Partitions)
	for p, n := range w.stats.PartitionBytes {
		raws[p] = make([]byte, 0, n)
	}
	if len(w.runs) == 1 {
		run := &w.runs[0]
		for _, e := range run.entries {
			raws[e.part] = run.frame(raws[e.part], e)
		}
	} else {
		// K-way merge of the sorted runs; equal records go to the lowest run.
		heads := make([]int, len(w.runs))
		for {
			best := -1
			for r := range w.runs {
				run := &w.runs[r]
				if heads[r] < len(run.entries) && (best < 0 || compareEntries(run,
					run.entries[heads[r]], &w.runs[best], w.runs[best].entries[heads[best]]) < 0) {
					best = r
				}
			}
			if best < 0 {
				break
			}
			run := &w.runs[best]
			e := run.entries[heads[best]]
			heads[best]++
			raws[e.part] = run.frame(raws[e.part], e)
		}
	}
	w.runs = nil
	return sealBlocks(&w.cfg, raws, true, &w.stats), w.stats, nil
}

// ---------------------------------------------------------------------------
// Reader

// Record is a decoded shuffle record. Key and Value are capacity-clipped
// views into a buffer ReadBlocks allocated for their block: the caller may
// keep, mutate and append to them, and a kept record keeps its block's
// buffer alive.
type Record struct {
	Key, Value []byte
}

// ReadBlocks decodes the records of the given blocks (all for the same
// reduce partition) in place over each freshly decompressed block; no
// record aliases Block.Data. When every block is sorted, the result is a
// k-way merge preserving global key order; otherwise records appear in
// block order. Block.Records only pre-sizes the result.
func ReadBlocks(codec compress.Codec, blocks []Block) ([]Record, error) {
	if codec == nil {
		codec = compress.None{}
	}
	raws := make([][]byte, len(blocks))
	merge := len(blocks) > 1
	hint := 0
	for i, b := range blocks {
		raw, err := codec.Decompress(b.Data)
		if err != nil {
			return nil, fmt.Errorf("shuffle: block %d: %w", i, err)
		}
		raws[i] = raw
		hint += max(0, min(b.Records, len(raw)/2)) // a framed record is at least 2 bytes
		merge = merge && b.Sorted
	}
	recs := make([]Record, 0, hint)
	ends := make([]int, len(blocks)) // block i is recs[ends[i-1]:ends[i]]
	for i, raw := range raws {
		for len(raw) > 0 {
			rec, rest, err := serde.Next(raw)
			if err != nil {
				return nil, fmt.Errorf("shuffle: block %d: %w", i, err)
			}
			recs = append(recs, Record(rec))
			raw = rest
		}
		ends[i] = len(recs)
	}
	if !merge {
		return recs, nil
	}
	// Merge the sorted blocks; equal keys go to the lowest block.
	heads := append([]int{0}, ends[:len(ends)-1]...)
	prefix := make([]uint64, len(heads)) // keyPrefix of each block's head record
	for i, h := range heads {
		if h < ends[i] {
			prefix[i] = keyPrefix(recs[h].Key)
		}
	}
	out := make([]Record, 0, len(recs))
	for len(out) < len(recs) {
		best := -1
		for i, h := range heads {
			if h < ends[i] && (best < 0 || prefix[i] < prefix[best] ||
				prefix[i] == prefix[best] && bytes.Compare(recs[h].Key, recs[heads[best]].Key) < 0) {
				best = i
			}
		}
		out = append(out, recs[heads[best]])
		if heads[best]++; heads[best] < ends[best] {
			prefix[best] = keyPrefix(recs[heads[best]].Key)
		}
	}
	return out, nil
}
