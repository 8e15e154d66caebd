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
	"repro/internal/group"
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
	// Combiner, if non-nil, merges values with equal keys map-side: the
	// constructors put a combiner in front of the writer.
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

// seal makes partition p's record stream raw into a block appended to
// blocks and folds its size into st; st.PartitionRecords must already hold
// the count. An empty stream makes no block. Under compress.None the block
// is raw itself: the writer hands its buffer over and never touches it
// again. A block lives as long as the engine keeps its map output, so a
// buffer more than an eighth of whose capacity is spare is first copied to
// its length. Any other codec returns memory of its own and leaves raw the
// writer's to reuse.
func seal(cfg *Config, blocks []Block, p int, raw []byte, sorted bool, st *Stats) []Block {
	if len(raw) == 0 {
		return blocks
	}
	data := raw
	if _, ok := cfg.Codec.(compress.None); !ok {
		data = cfg.Codec.Compress(raw)
	} else if cap(raw)-len(raw) > len(raw)/8 {
		data = append(make([]byte, 0, len(raw)), raw...)
	}
	n := st.PartitionRecords[p]
	st.RecordsOut += n
	st.RawBytes += int64(len(raw))
	st.WireBytes += int64(len(data))
	st.PartitionBytes[p] = int64(len(raw))
	return append(blocks, Block{
		Partition: p, Data: data, Records: n,
		RawBytes: int64(len(raw)), Sorted: sorted,
	})
}

// ---------------------------------------------------------------------------
// Map-side combining

// combiner is the writer NewHashWriter and NewSortWriter return for a
// Config with a Combiner: it numbers keys in a table and merges each value
// into its key's, and whenever the bytes of new keys reach the spill
// threshold (a spill) and at Close it writes one record per key, in
// ascending key order, to the writer behind it. That writer never spills
// on its own, so a sort writer sorts one run whose stable sort is the merge
// of the spilled runs, ties to the earliest, and a hash writer appends each
// partition's keys in order, spill after spill.
type combiner struct {
	w          Writer
	merge      func(a, b []byte) []byte
	threshold  int64
	keys       group.ByteKeyTable
	vals       [][]byte // by key number
	buffered   int64    // key and value bytes of the keys in the table
	in, spills int
	closed     bool
}

// newWriter fills cfg and builds a writer with mk, behind a combiner when
// cfg has a Combiner.
func newWriter(cfg Config, mk func(Config) Writer) (Writer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Combiner == nil {
		return mk(cfg), nil
	}
	c := &combiner{merge: cfg.Combiner, threshold: cfg.SpillThreshold}
	cfg.Combiner, cfg.SpillThreshold = nil, math.MaxInt64
	c.w = mk(cfg)
	return c, nil
}

func (c *combiner) Write(key, value []byte) error {
	if c.closed {
		return ErrClosed
	}
	c.in++
	if id, isNew := c.keys.ID(key); !isNew {
		c.vals[id] = c.merge(c.vals[id], value)
		return nil
	}
	c.vals = append(c.vals, append([]byte(nil), value...))
	if c.buffered += int64(len(key) + len(value)); c.buffered >= c.threshold {
		c.spills++
		return c.flush()
	}
	return nil
}

// flush writes the table's records to the writer behind, which copies
// them, and empties the table.
func (c *combiner) flush() error {
	for _, id := range KeyOrder(c.keys.Len(), c.keys.Key) {
		if err := c.w.Write(c.keys.Key(id), c.vals[id]); err != nil {
			return err
		}
	}
	c.keys, c.vals, c.buffered = group.ByteKeyTable{}, c.vals[:0], 0
	return nil
}

func (c *combiner) Close() ([]Block, Stats, error) {
	var err error
	if !c.closed {
		c.closed, err = true, c.flush()
	}
	blocks, st, cerr := c.w.Close()
	st.RecordsIn, st.Spills = c.in, st.Spills+c.spills
	if err != nil {
		return nil, st, err
	}
	return blocks, st, cerr
}

// ---------------------------------------------------------------------------
// Hash shuffle

// hashWriter appends framed records to one buffer per partition, which
// becomes that partition's block at Close. A spill, simulated, is only
// counted: the buffers stay where they are, since a spilled run read back
// at Close would give the same bytes in the same order. Output blocks are
// unsorted.
type hashWriter struct {
	cfg      Config
	bufs     [][]byte
	buffered int64
	stats    Stats
	closed   bool
}

// NewHashWriter returns a hash-shuffle writer.
func NewHashWriter(cfg Config) (Writer, error) {
	return newWriter(cfg, func(cfg Config) Writer {
		return &hashWriter{cfg: cfg, bufs: make([][]byte, cfg.Partitions), stats: newStats(&cfg)}
	})
}

func (w *hashWriter) Write(key, value []byte) error {
	if w.closed {
		return ErrClosed
	}
	w.stats.RecordsIn++
	p := w.cfg.Partitioner(key)
	w.bufs[p] = serde.AppendRecord(grow(w.bufs[p], serde.FramedLen(len(key), len(value))), key, value)
	w.stats.PartitionRecords[p]++
	if w.buffered += int64(len(key) + len(value)); w.buffered >= w.cfg.SpillThreshold {
		w.buffered = 0
		w.stats.Spills++
	}
	return nil
}

// presize gives each empty partition buffer room for its share of a
// WriteRecords batch of n records, estimated as if each took framed bytes
// as the first does, plus a sixteenth: since seal keeps a buffer with up
// to an eighth of it spare, a partition that gets within about a sixteenth
// of its share either way keeps its buffer as its block. One that gets
// more grows by doubling, and seal trims it.
func (w *hashWriter) presize(n, framed int) {
	if w.closed {
		return
	}
	share := (n + len(w.bufs) - 1) / len(w.bufs) * framed
	for p, b := range w.bufs {
		if cap(b) == 0 {
			w.bufs[p] = make([]byte, 0, share+share/16)
		}
	}
}

func (w *hashWriter) Close() ([]Block, Stats, error) {
	if w.closed {
		return nil, w.stats, ErrClosed
	}
	w.closed = true
	var blocks []Block
	for p, raw := range w.bufs {
		blocks = seal(&w.cfg, blocks, p, raw, false, &w.stats)
	}
	w.bufs = nil
	return blocks, w.stats, nil
}

// ---------------------------------------------------------------------------
// Sort shuffle

// sortEntry locates one buffered record — its key in the run's arena at
// off; its value right behind the key, or record idx of a WriteRecords
// batch — beside everything the sort compares, so ordering a run neither
// calls the partitioner nor, usually, reads the key.
type sortEntry struct {
	prefix                uint64 // first 8 key bytes, big-endian, zero-padded
	off, klen, vlen, part uint32
	batch, idx            uint32 // batch 0: the value is in the arena; else the writer's batches[batch-1]
}

// sortRun is one spill's worth of records: each record's key, and the value
// of a Write, back to back in arena, one entry each.
type sortRun struct {
	arena   []byte
	entries []sortEntry
}

// runFits reports whether n more bytes keep a run's arena 32-bit addressable.
func runFits(used, n int) bool { return uint64(used)+uint64(n) <= math.MaxUint32 }

// checkSize refuses a record too large for any run.
func checkSize(klen, vlen int) error {
	if n := klen + vlen; !runFits(0, n) {
		return fmt.Errorf("shuffle: %d-byte record: a sort run holds at most %d bytes", n, uint64(math.MaxUint32))
	}
	return nil
}

func (r *sortRun) key(e sortEntry) []byte { return r.arena[e.off : e.off+e.klen] }

// frame appends e's record to dst in the block format, taking a batch
// record's value from its batch's callback, which must append as many bytes
// as it did when the record was written.
func (r *sortRun) frame(dst []byte, e sortEntry, batches []func(dst []byte, i int) []byte) ([]byte, error) {
	kv := r.arena[e.off:]
	dst = append(serde.AppendHeader(dst, int(e.klen), int(e.vlen)), kv[:e.klen]...)
	if e.batch == 0 {
		return append(dst, kv[e.klen:e.klen+e.vlen]...), nil
	}
	n := len(dst)
	if dst = batches[e.batch-1](dst, int(e.idx)); len(dst)-n != int(e.vlen) {
		return nil, fmt.Errorf("shuffle: batch record %d: value of %d bytes at Close, %d when written", e.idx, len(dst)-n, e.vlen)
	}
	return dst, nil
}

// keyPrefix returns the first 8 bytes of key, zero-padded, as a big-endian
// integer: prefixes that differ order like the keys they come from.
func keyPrefix[K ~string | ~[]byte](key K) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// KeyOrder returns 0..n-1 arranged so that the keys ascend bytewise, the
// order sort.Strings gives their string forms; key(i) gives key i, the
// same bytes on every call. Short keys are radix sorted; otherwise, like
// the sort writer, it compares cached 8-byte prefixes and reads a key only
// on a tie.
func KeyOrder[K ~string | ~[]byte](n int, key func(i int32) K) []int32 {
	if n >= radixMin {
		if order, ok := radixOrder(n, key); ok {
			return order
		}
	}
	prefix, order := make([]uint64, n), make([]int32, n)
	for i := range order {
		order[i] = int32(i)
		prefix[i] = keyPrefix(key(order[i]))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(prefix[a], prefix[b]); c != 0 {
			return c
		}
		switch ka, kb := key(a), key(b); { // no copy: the conversions only feed comparisons
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
func radixOrder[K ~string | ~[]byte](n int, key func(i int32) K) ([]int32, bool) {
	var counts [9][256]int // by digit, as digit numbers them
	for i := range int32(n) {
		k := key(i)
		if len(k) > 8 {
			return nil, false
		}
		for d := range counts {
			counts[d][digit(k, d)]++
		}
	}
	order, spare := make([]int32, n), make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for d := 8; d >= 0; d-- {
		order, spare = countPass(order, spare, counts[d][:], func(i *int32) int { return int(digit(key(*i), d)) })
	}
	return order, true
}

// countPass is one pass of a stable counting sort: it moves es into spare
// by digit, given c, how many elements take each digit value, and returns
// the two swapped; unless one value holds every element, when the pass
// would move nothing and it returns them as they were. c is left as
// scratch. It is the sort writer's hot loop: kept small enough to inline,
// digit with it, and handed each element by pointer, not by copy.
func countPass[T any](es, spare []T, c []int, digit func(*T) int) ([]T, []T) {
	at := 0
	for v, k := range c {
		if k == len(es) {
			return es, spare
		}
		c[v], at = at, at+k
	}
	for i := range es {
		v := digit(&es[i])
		spare[c[v]] = es[i]
		c[v]++
	}
	return spare, es
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

// WriteRecords writes n records to w in index order: key and value append
// record i's key and value to the dst they are handed. A sort writer keeps
// each record's key and a handle on the batch, and its Close calls value
// again to frame the value straight into the output. So until w's Close
// returns, the callbacks must return the same bytes for a record each time
// they are called, and must only read what they encode: speculative copies
// of a task write one batch through writers of their own at once. Any other
// writer copies each record out of one reused scratch buffer, like a Write
// loop; a hash writer first sizes its partition buffers from the batch
// (presize).
func WriteRecords(w Writer, n int, key, value func(dst []byte, i int) []byte) error {
	if sw, ok := w.(*sortWriter); ok && uint64(n) <= math.MaxUint32 {
		return sw.writeBatch(n, key, value)
	}
	hw, _ := w.(*hashWriter)
	var buf []byte
	for i := 0; i < n; i++ {
		buf = key(buf[:0], i)
		klen := len(buf)
		buf = value(buf, i)
		if i == 0 && hw != nil {
			hw.presize(n, serde.FramedLen(klen, len(buf)-klen))
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
	for d := range counts {
		es, spare = countPass(es, spare, counts[d][:], func(e *sortEntry) int { return int(byte(e.prefix >> (8 * d))) })
	}
	es, _ = countPass(es, spare, byPart, func(e *sortEntry) int { return int(e.part) })
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

// sortWriter buffers each record's key, and the value of a Write, in the
// current run's arena, sorts every spill run by (partition, key) with equal
// keys in arrival order, and merges the runs at close into the framed
// output — the Spark "sort shuffle" design. Output blocks are key-sorted,
// which lets downstream merges stream.
type sortWriter struct {
	cfg      Config
	cur      sortRun
	buffered int64                            // key and value bytes of the current run, batch values included
	runs     []sortRun                        // each sorted by (partition, key)
	batches  []func(dst []byte, i int) []byte // the value callback of each WriteRecords call
	scratch  []byte                           // writeBatch's encoding of the record at hand
	stats    Stats                            // PartitionBytes is kept current so Close can size its output
	closed   bool
}

// NewSortWriter returns a sort-shuffle writer.
func NewSortWriter(cfg Config) (Writer, error) {
	return newWriter(cfg, func(cfg Config) Writer { return &sortWriter{cfg: cfg, stats: newStats(&cfg)} })
}

func (w *sortWriter) Write(key, value []byte) error {
	if w.closed {
		return ErrClosed
	}
	if err := checkSize(len(key), len(value)); err != nil {
		return err
	}
	w.stats.RecordsIn++
	w.add(key, value, 0, 0)
	if w.buffered += int64(len(key) + len(value)); w.buffered >= w.cfg.SpillThreshold {
		w.spill()
	}
	return nil
}

// writeBatch is WriteRecords for a sort writer: each
// record is encoded into scratch to learn its key and lengths, and only the
// key is kept. It spills where a Write loop over the same records would.
func (w *sortWriter) writeBatch(n int, key, value func(dst []byte, i int) []byte) error {
	if w.closed {
		return ErrClosed
	}
	w.batches = append(w.batches, value)
	batch := uint32(len(w.batches))
	for i := 0; i < n; i++ {
		buf := key(w.scratch[:0], i)
		klen := len(buf)
		buf = value(buf, i)
		w.scratch = buf
		if err := checkSize(klen, len(buf)-klen); err != nil {
			return err
		}
		if i == 0 || len(w.cur.entries) == 0 {
			w.reserve(n-i, klen, len(buf)-klen)
		}
		w.stats.RecordsIn++
		w.add(buf[:klen], buf[klen:], batch, uint32(i))
		if w.buffered += int64(len(buf)); w.buffered >= w.cfg.SpillThreshold {
			w.spill()
		}
	}
	return nil
}

// reserve grows the current run for n more batch records sized like one of
// klen key and vlen value bytes, or for as many as it takes before the spill
// threshold seals it. It sizes buffers and nothing else.
func (w *sortWriter) reserve(n, klen, vlen int) {
	if fit := (w.cfg.SpillThreshold-w.buffered)/int64(max(1, klen+vlen)) + 1; int64(n) > fit { // the record that crosses the threshold is still this run's
		n = int(fit)
	}
	w.cur.entries = slices.Grow(w.cur.entries, n)
	w.cur.arena = slices.Grow(w.cur.arena, n*klen)
}

// add files one record in the current run, first ending a run whose arena
// it would overflow. The arena takes the key, and the value too unless
// batch names the WriteRecords call that can give it again as record idx.
func (w *sortWriter) add(key, value []byte, batch, idx uint32) {
	kept := value
	if batch != 0 {
		kept = nil
	}
	if !runFits(len(w.cur.arena), len(key)+len(kept)) {
		w.spill()
	}
	p := w.cfg.Partitioner(key)
	w.cur.entries = append(grow(w.cur.entries, 1), sortEntry{
		prefix: keyPrefix(key),
		off:    uint32(len(w.cur.arena)), klen: uint32(len(key)), vlen: uint32(len(value)), part: uint32(p),
		batch: batch, idx: idx,
	})
	w.cur.arena = append(append(grow(w.cur.arena, len(key)+len(kept)), key...), kept...)
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

// endRun sorts the current run and files it with the finished ones.
func (w *sortWriter) endRun() {
	w.cur.sort(w.cfg.Partitions)
	w.runs = append(w.runs, w.cur)
	w.cur, w.buffered = sortRun{}, 0
}

// spill ends the current run and counts the spill.
func (w *sortWriter) spill() {
	w.endRun()
	w.stats.Spills++
}

func (w *sortWriter) Close() ([]Block, Stats, error) {
	if w.closed {
		return nil, w.stats, ErrClosed
	}
	w.closed = true
	if len(w.cur.entries) > 0 {
		w.endRun()
	}
	runs, batches := w.runs, w.batches
	w.runs, w.batches, w.scratch = nil, nil, nil
	// K-way merge of the sorted runs; equal records go to the lowest run.
	// Records leave in partition order. Under None each partition is framed
	// into a buffer of exactly its PartitionBytes, which seal keeps as its
	// block; a codec copies, so one buffer, sized for the largest
	// partition, frames each partition in turn.
	_, owned := w.cfg.Codec.(compress.None)
	var shared []byte
	if !owned {
		shared = make([]byte, 0, slices.Max(w.stats.PartitionBytes))
	}
	frameBuf := func(p uint32) []byte {
		if owned {
			return make([]byte, 0, w.stats.PartitionBytes[p])
		}
		return shared
	}
	buf := frameBuf(0)
	var blocks []Block
	part := uint32(0)
	heads := make([]int, len(runs))
	for {
		best := -1
		for r := range runs {
			run := &runs[r]
			if heads[r] < len(run.entries) && (best < 0 || compareEntries(run,
				run.entries[heads[r]], &runs[best], runs[best].entries[heads[best]]) < 0) {
				best = r
			}
		}
		if best < 0 {
			break
		}
		run := &runs[best]
		e := run.entries[heads[best]]
		heads[best]++
		if e.part != part {
			blocks = seal(&w.cfg, blocks, int(part), buf, true, &w.stats)
			buf, part = frameBuf(e.part), e.part
		}
		var err error
		if buf, err = run.frame(buf, e, batches); err != nil {
			return nil, w.stats, err
		}
	}
	return seal(&w.cfg, blocks, int(part), buf, true, &w.stats), w.stats, nil
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
// included, and never writes one, so its bytes may become strings in
// place (serde.Frozen). Key and Value return capacity-clipped slices of
// the buffers; a kept slice keeps its block's buffer alive.
type Records struct {
	bufs [][]byte
	refs []recordRef
}

// Len returns the number of records.
func (r Records) Len() int { return len(r.refs) }

// Key returns record i's key.
func (r Records) Key(i int) []byte { return r.key(r.refs[i]) }

func (r Records) key(e recordRef) []byte {
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
	out.bufs = [][]byte{buf}
	return out
}

// ReadRecords decodes the records of the given blocks (all for the same
// reduce partition) in place over each freshly decompressed block; no
// record aliases Block.Data. When every block is sorted, the blocks are
// merged as they are decoded, so the view's one index is in global key
// order; otherwise records appear in block order. Block.Records only
// pre-sizes the index.
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
	out.refs = make([]recordRef, 0, hint)
	if !merge {
		for i, raw := range out.bufs {
			for rest := raw; len(rest) > 0; {
				ref, tail, err := decodeRef(i, raw, rest)
				if err != nil {
					return Records{}, err
				}
				out.refs = append(out.refs, ref)
				rest = tail
			}
		}
		return out, nil
	}
	// Merge the sorted blocks, decoding each block's next record as its head
	// is taken; equal keys go to the lowest block.
	heads := make([]mergeHead, len(blocks))
	for i := range heads {
		if err := heads[i].next(i, out.bufs[i], out.bufs[i]); err != nil {
			return Records{}, err
		}
	}
	for {
		best := -1
		for i := range heads {
			h := &heads[i]
			if h.ok && (best < 0 || h.prefix < heads[best].prefix ||
				h.prefix == heads[best].prefix && bytes.Compare(out.key(h.ref), out.key(heads[best].ref)) < 0) {
				best = i
			}
		}
		if best < 0 {
			return out, nil
		}
		h := &heads[best]
		out.refs = append(out.refs, h.ref)
		if err := h.next(best, out.bufs[best], h.rest); err != nil {
			return Records{}, err
		}
	}
}

// decodeRef indexes the first record of rest, a suffix of block i's buffer
// buf, and returns what follows it.
func decodeRef(i int, buf, rest []byte) (recordRef, []byte, error) {
	rec, tail, err := serde.Next(rest)
	if err != nil {
		return recordRef{}, nil, fmt.Errorf("shuffle: block %d: %w", i, err)
	}
	klen, vlen := len(rec.Key), len(rec.Value)
	return recordRef{uint32(i), uint32(len(buf) - len(tail) - klen - vlen), uint32(klen), uint32(vlen)}, tail, nil
}

// mergeHead is one sorted block's place in ReadRecords' merge: its first
// record not yet taken, that record's key prefix, and the bytes behind it.
type mergeHead struct {
	ref    recordRef
	prefix uint64
	rest   []byte
	ok     bool // ref is a record; false once the block is used up
}

// next decodes the head from rest, the undecoded suffix of block i's
// buffer buf.
func (h *mergeHead) next(i int, buf, rest []byte) error {
	if h.ok = len(rest) > 0; !h.ok {
		return nil
	}
	ref, tail, err := decodeRef(i, buf, rest)
	if err != nil {
		return err
	}
	h.ref, h.rest = ref, tail
	h.prefix = keyPrefix(buf[ref.off : ref.off+ref.klen])
	return nil
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
