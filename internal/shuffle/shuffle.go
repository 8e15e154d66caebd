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
	"math"
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

// SplitPoints picks up to parts-1 distinct ascending split keys from a
// sample of keys, evenly spaced through the sample in sorted order.
func SplitPoints(sample [][]byte, parts int) [][]byte {
	sorted := slices.Clone(sample)
	slices.SortFunc(sorted, bytes.Compare)
	var out [][]byte
	for i := 1; i < parts && len(sorted) > 0; i++ {
		s := sorted[min(i*len(sorted)/parts, len(sorted)-1)]
		if len(out) == 0 || !bytes.Equal(out[len(out)-1], s) { // skewed samples repeat keys
			out = append(out, s)
		}
	}
	return out
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
	// Reserve hints that records more records of bytes key and value bytes
	// in all are coming. It sizes buffers and nothing else: what is written
	// and where the writer spills do not depend on it.
	Reserve(records int, bytes int64)
	// Write adds one record, copying key and value before it returns: the
	// caller may reuse both buffers for the next record.
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

// Reserve does nothing: how a batch spreads over the partitions' buffers is
// not known before it is partitioned.
func (w *hashWriter) Reserve(int, int64) {}

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
	prefix                uint64 // first 8 key bytes, big-endian, zero-padded
	off, klen, vlen, part uint32
}

// sortRun is one spill's worth of records: key‖value bytes back to back in
// arena, one entry each.
type sortRun struct {
	arena   []byte
	entries []sortEntry
}

// runFits reports whether n more bytes keep a run's arena 32-bit addressable.
func runFits(used, n int) bool { return uint64(used)+uint64(n) <= math.MaxUint32 }

func (r *sortRun) key(e sortEntry) []byte { return r.arena[e.off : e.off+e.klen] }

// frame appends e's record to dst in the block format.
func (r *sortRun) frame(dst []byte, e sortEntry) []byte {
	kv := r.arena[e.off : e.off+e.klen+e.vlen]
	return serde.AppendRecord(dst, kv[:e.klen], kv[e.klen:])
}

// keyPrefix returns the first 8 bytes of key, zero-padded, as a big-endian
// integer: prefixes that differ order like the keys they come from.
func keyPrefix[K ~string | ~[]byte](key K) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// KeyOrder returns 0..len(keys)-1 arranged so that the keys ascend
// bytewise, the order sort.Strings gives their string forms. Short keys
// are radix sorted; otherwise, like the sort writer, it compares cached
// 8-byte prefixes and reads a key only on a tie.
func KeyOrder[K ~string | ~[]byte](keys []K) []int32 {
	if len(keys) >= radixMin {
		if order, ok := radixOrder(keys); ok {
			return order
		}
	}
	prefix, order := make([]uint64, len(keys)), make([]int32, len(keys))
	for i, key := range keys {
		prefix[i], order[i] = keyPrefix(key), int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(prefix[a], prefix[b]); c != 0 {
			return c
		}
		switch ka, kb := keys[a], keys[b]; { // no copy: the conversions only feed comparisons
		case string(ka) < string(kb):
			return -1
		case string(ka) > string(kb):
			return 1
		}
		return 0
	})
	return order
}

// radixMin is the fewest keys KeyOrder radix sorts: below it, clearing the
// digit counts costs more than comparing.
const radixMin = 64

// radixOrder is KeyOrder for keys of at most 8 bytes, or false if a key is
// longer. Such a key orders as its zero-padded 8 bytes, then its length
// ("a" before "a\x00"), so a stable LSD sort by length and then by byte 7
// down to byte 0 orders them, skipping every digit all keys share.
func radixOrder[K ~string | ~[]byte](keys []K) ([]int32, bool) {
	var counts [9][256]int32 // by digit, as digit numbers them
	for _, key := range keys {
		if len(key) > 8 {
			return nil, false
		}
		for d := range counts {
			counts[d][digit(key, d)]++
		}
	}
	order, spare := make([]int32, len(keys)), make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	for d := 8; d >= 0; d-- {
		c := &counts[d]
		if slices.Contains(c[:], int32(len(keys))) {
			continue
		}
		var at int32
		for v, n := range c {
			c[v], at = at, at+n
		}
		for _, i := range order {
			v := digit(keys[i], d)
			spare[c[v]] = i
			c[v]++
		}
		order, spare = spare, order
	}
	return order, true
}

// digit d of a key of at most 8 bytes: byte d, 0 past the key's end, and
// the key's length for d == 8.
func digit[K ~string | ~[]byte](key K, d int) byte {
	switch {
	case d == 8:
		return byte(len(key))
	case d < len(key):
		return key[d]
	}
	return 0
}

// WriteRecords writes n records to w in index order. key and value append
// record i's key and value to the scratch they are handed, which is reused
// from record to record; the first record sizes the writer for all n.
func WriteRecords(w Writer, n int, key, value func(dst []byte, i int) []byte) error {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = key(buf[:0], i)
		klen := len(buf)
		buf = value(buf, i)
		if i == 0 {
			w.Reserve(n, int64(n)*int64(len(buf)))
		}
		if err := w.Write(buf[:klen], buf[klen:]); err != nil {
			return err
		}
	}
	return nil
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

// sort orders the run by (partition, key), equal keys in arrival order:
// stable counting passes over the prefix bytes, least significant first,
// then over the partition, skipping any digit every entry shares; then a
// stable comparison of the keys in each group whose partition and prefix tie.
func (r *sortRun) sort(parts int) {
	es, spare := r.entries, make([]sortEntry, len(r.entries))
	var counts [8][256]int // by prefix byte, least significant first
	byPart := make([]int, parts)
	for _, e := range es {
		for d := range counts {
			counts[d][byte(e.prefix>>(8*d))]++
		}
		byPart[e.part]++
	}
	for d := 0; d <= 8; d++ { // digit 8 is the partition
		c := byPart
		if d < 8 {
			c = counts[d][:]
		}
		if slices.Contains(c, len(es)) {
			continue // one value holds every entry: the pass would move nothing
		}
		at := 0
		for v, k := range c {
			c[v], at = at, at+k
		}
		for _, e := range es {
			v := int(e.part)
			if d < 8 {
				v = int(byte(e.prefix >> (8 * d)))
			}
			spare[c[v]] = e
			c[v]++
		}
		es, spare = spare, es
	}
	for i, j := 0, 1; j <= len(es); j++ {
		if j == len(es) || es[j].prefix != es[i].prefix || es[j].part != es[i].part {
			if j-i > 1 {
				slices.SortStableFunc(es[i:j], func(a, b sortEntry) int { return bytes.Compare(r.key(a), r.key(b)) })
			}
			i = j
		}
	}
	r.entries = es
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

// Reserve grows the current run for what is coming, or for as much of it as
// the run takes before it is sealed at the spill threshold.
func (w *sortWriter) Reserve(records int, bytes int64) {
	if w.combine != nil || records <= 0 || bytes <= 0 {
		return
	}
	per := (bytes + int64(records) - 1) / int64(records)
	if room := w.cfg.SpillThreshold - w.buffered + per; bytes > room { // the record that crosses the threshold is still this run's
		records, bytes = int(room/per), room
	}
	w.cur.entries = slices.Grow(w.cur.entries, records)
	w.cur.arena = slices.Grow(w.cur.arena, int(bytes))
}

func (w *sortWriter) Write(key, value []byte) error {
	if w.closed {
		return ErrClosed
	}
	prev, combine := w.combine[string(key)]
	if combine {
		value = w.cfg.Combiner(prev, value)
	}
	if n := len(key) + len(value); !runFits(0, n) {
		return fmt.Errorf("shuffle: %d-byte record: a sort run holds at most %d bytes", n, uint64(math.MaxUint32))
	}
	w.stats.RecordsIn++
	switch {
	case combine:
		w.combine[string(key)] = value
	case w.combine != nil:
		w.combine[string(key)] = append([]byte(nil), value...)
		w.buffered += int64(len(key) + len(value))
	default:
		w.add(key, value)
		w.buffered += int64(len(key) + len(value))
	}
	if w.buffered >= w.cfg.SpillThreshold {
		w.spill()
	}
	return nil
}

// add copies one record into the current run, first ending a run too full for it.
func (w *sortWriter) add(key, value []byte) {
	if !runFits(len(w.cur.arena), len(key)+len(value)) {
		w.endRun()
		w.stats.Spills++
	}
	p := w.cfg.Partitioner(key)
	w.cur.entries = append(grow(w.cur.entries, 1), sortEntry{
		prefix: keyPrefix(key),
		off:    uint32(len(w.cur.arena)), klen: uint32(len(key)), vlen: uint32(len(value)), part: uint32(p),
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
	if len(w.cur.entries) == 0 {
		return false
	}
	w.endRun()
	return true
}

// endRun sorts the current run and files it with the finished ones.
func (w *sortWriter) endRun() {
	w.cur.sort(w.cfg.Partitions)
	w.runs = append(w.runs, w.cur)
	w.cur, w.buffered = sortRun{}, 0
}

func (w *sortWriter) spill() {
	if w.sealRun() {
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
// views into a buffer allocated for their block: the caller may keep,
// mutate and append to them, and a kept record keeps its block's buffer
// alive.
type Record struct {
	Key, Value []byte
}

// recordRef locates one record of a Records view: its block buffer, where
// its key starts — the value follows — and both lengths. It holds no
// pointer, so the collector never scans an index.
type recordRef struct{ buf, off, klen, vlen uint32 }

// Records is one reduce partition's records as ReadRecords found them:
// the decompressed block buffers and an index into them, in reading order.
// A view is read-only and belongs to whoever it was handed to: the engine
// builds a fresh one for every read, retried and recomputed tasks
// included, and never writes one. Key and Value return capacity-clipped
// slices of the buffers; a kept slice keeps its block's buffer alive.
type Records struct {
	bufs  [][]byte
	refs  []recordRef
	bytes int
}

// Len returns the number of records, Bytes the size of their keys and
// values together.
func (r Records) Len() int   { return len(r.refs) }
func (r Records) Bytes() int { return r.bytes }

// Key returns record i's key.
func (r Records) Key(i int) []byte {
	e := r.refs[i]
	return r.bufs[e.buf][e.off : e.off+e.klen : e.off+e.klen]
}

// Value returns record i's value.
func (r Records) Value(i int) []byte {
	e := r.refs[i]
	return r.bufs[e.buf][e.off+e.klen : e.off+e.klen+e.vlen : e.off+e.klen+e.vlen]
}

// RecordsOf copies recs into a view of their own, for callers that have
// records but no blocks (the sequential reference).
func RecordsOf(recs []Record) Records {
	var out Records
	var buf []byte
	for _, rec := range recs {
		out.refs = append(out.refs, recordRef{off: uint32(len(buf)), klen: uint32(len(rec.Key)), vlen: uint32(len(rec.Value))})
		buf = append(append(buf, rec.Key...), rec.Value...)
	}
	out.bufs, out.bytes = [][]byte{buf}, len(buf)
	return out
}

// ReadRecords decodes the records of the given blocks (all for the same
// reduce partition) in place over each freshly decompressed block; no
// record aliases Block.Data. When every block is sorted, the view is a
// k-way merge preserving global key order; otherwise records appear in
// block order. Block.Records only pre-sizes the index.
func ReadRecords(codec compress.Codec, blocks []Block) (Records, error) {
	if codec == nil {
		codec = compress.None{}
	}
	out := Records{bufs: make([][]byte, len(blocks))}
	merge := len(blocks) > 1
	hint := 0
	for i, b := range blocks {
		raw, err := codec.Decompress(b.Data)
		if err != nil {
			return Records{}, fmt.Errorf("shuffle: block %d: %w", i, err)
		}
		if uint64(len(raw)) > math.MaxUint32 {
			return Records{}, fmt.Errorf("shuffle: block %d: %d bytes decompressed, more than a record index addresses", i, len(raw))
		}
		out.bufs[i] = raw
		hint += max(0, min(b.Records, len(raw)/2)) // a framed record is at least 2 bytes
		merge = merge && b.Sorted
	}
	refs := make([]recordRef, 0, hint)
	ends := make([]int, len(blocks)) // block i is refs[ends[i-1]:ends[i]]
	for i, raw := range out.bufs {
		for rest := raw; len(rest) > 0; {
			rec, tail, err := serde.Next(rest)
			if err != nil {
				return Records{}, fmt.Errorf("shuffle: block %d: %w", i, err)
			}
			klen, vlen := len(rec.Key), len(rec.Value)
			refs = append(refs, recordRef{uint32(i), uint32(len(raw) - len(tail) - klen - vlen), uint32(klen), uint32(vlen)})
			out.bytes += klen + vlen
			rest = tail
		}
		ends[i] = len(refs)
	}
	out.refs = refs
	if !merge {
		return out, nil
	}
	// Merge the sorted blocks; equal keys go to the lowest block.
	heads := append([]int{0}, ends[:len(ends)-1]...)
	prefix := make([]uint64, len(heads)) // keyPrefix of each block's head record
	for i, h := range heads {
		if h < ends[i] {
			prefix[i] = keyPrefix(out.Key(h))
		}
	}
	merged := make([]recordRef, 0, len(refs))
	for len(merged) < len(refs) {
		best := -1
		for i, h := range heads {
			if h < ends[i] && (best < 0 || prefix[i] < prefix[best] ||
				prefix[i] == prefix[best] && bytes.Compare(out.Key(h), out.Key(heads[best])) < 0) {
				best = i
			}
		}
		merged = append(merged, refs[heads[best]])
		if heads[best]++; heads[best] < ends[best] {
			prefix[best] = keyPrefix(out.Key(heads[best]))
		}
	}
	out.refs = merged
	return out, nil
}

// ReadBlocks is ReadRecords with every record materialised, for callers
// that keep or compare records as a slice: the differential checkers, the
// experiments and the benchmark's probe.
func ReadBlocks(codec compress.Codec, blocks []Block) ([]Record, error) {
	view, err := ReadRecords(codec, blocks)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, view.Len())
	for i := range recs {
		recs[i] = Record{Key: view.Key(i), Value: view.Value(i)}
	}
	return recs, nil
}
