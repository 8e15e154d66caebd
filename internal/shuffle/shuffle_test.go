package shuffle

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/rng"
	"repro/internal/serde"
)

func writers(cfg Config) map[string]func(Config) (Writer, error) {
	return map[string]func(Config) (Writer, error){
		"hash": NewHashWriter,
		"sort": NewSortWriter,
	}
}

func TestRoundTripBothWriters(t *testing.T) {
	for name, mk := range writers(Config{}) {
		t.Run(name, func(t *testing.T) {
			w, err := mk(Config{Partitions: 4})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("key-%04d", i)
				v := fmt.Sprintf("val-%d", i)
				want[k] = v
				if err := w.Write([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			blocks, stats, err := w.Close()
			if err != nil {
				t.Fatal(err)
			}
			if stats.RecordsIn != 1000 || stats.RecordsOut != 1000 {
				t.Fatalf("stats = %+v", stats)
			}
			got := map[string]string{}
			seenParts := map[int]bool{}
			for _, b := range blocks {
				seenParts[b.Partition] = true
				recs, err := ReadBlocks(compress.None{}, []Block{b})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					got[string(r.Key)] = string(r.Value)
					// Record must belong to its block's partition.
					if p := Partition(r.Key, 4); p != b.Partition {
						t.Fatalf("key %q in partition %d, belongs in %d", r.Key, b.Partition, p)
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("got %d keys, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %q = %q, want %q", k, got[k], v)
				}
			}
			if len(seenParts) < 2 {
				t.Fatal("records did not spread across partitions")
			}
		})
	}
}

func TestSortWriterProducesSortedBlocks(t *testing.T) {
	w, err := NewSortWriter(Config{Partitions: 3, SpillThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(1)
	for i := 0; i < 500; i++ {
		k := make([]byte, 8)
		gen.Bytes(k)
		if err := w.Write(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	blocks, stats, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spills == 0 {
		t.Fatal("tiny spill threshold produced no spills")
	}
	for _, b := range blocks {
		if !b.Sorted {
			t.Fatal("sort writer produced unsorted block")
		}
		recs, err := ReadBlocks(compress.None{}, []Block{b})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(recs); i++ {
			if bytes.Compare(recs[i-1].Key, recs[i].Key) > 0 {
				t.Fatalf("partition %d not sorted at %d", b.Partition, i)
			}
		}
	}
}

func TestMergedReadPreservesGlobalOrder(t *testing.T) {
	// Two sorted map outputs for the same partition merge into one sorted
	// stream.
	var all []Block
	for m := 0; m < 3; m++ {
		w, _ := NewSortWriter(Config{Partitions: 1})
		for i := 0; i < 100; i++ {
			k := []byte(fmt.Sprintf("%03d-%d", i*3+m, m))
			_ = w.Write(k, []byte("v"))
		}
		blocks, _, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, blocks...)
	}
	recs, err := ReadBlocks(compress.None{}, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 300 {
		t.Fatalf("merged %d records, want 300", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if bytes.Compare(recs[i-1].Key, recs[i].Key) > 0 {
			t.Fatalf("merge broke order at %d: %q > %q", i, recs[i-1].Key, recs[i].Key)
		}
	}
}

func TestCombinerReducesRecords(t *testing.T) {
	add := func(a, b []byte) []byte {
		x, _ := serde.DecodeInt64(a)
		y, _ := serde.DecodeInt64(b)
		return serde.EncodeInt64(x + y)
	}
	for name, mk := range writers(Config{}) {
		t.Run(name, func(t *testing.T) {
			w, err := mk(Config{Partitions: 2, Combiner: add})
			if err != nil {
				t.Fatal(err)
			}
			// 100 distinct words, 50 occurrences each.
			for rep := 0; rep < 50; rep++ {
				for i := 0; i < 100; i++ {
					_ = w.Write([]byte(fmt.Sprintf("w%02d", i)), serde.EncodeInt64(1))
				}
			}
			blocks, stats, err := w.Close()
			if err != nil {
				t.Fatal(err)
			}
			if stats.RecordsIn != 5000 {
				t.Fatalf("in = %d", stats.RecordsIn)
			}
			if stats.RecordsOut != 100 {
				t.Fatalf("combiner emitted %d records, want 100", stats.RecordsOut)
			}
			total := int64(0)
			for _, b := range blocks {
				recs, _ := ReadBlocks(compress.None{}, []Block{b})
				for _, r := range recs {
					v, _ := serde.DecodeInt64(r.Value)
					if v != 50 {
						t.Fatalf("key %q count %d, want 50", r.Key, v)
					}
					total += v
				}
			}
			if total != 5000 {
				t.Fatalf("total count %d", total)
			}
		})
	}
}

func TestCompressionShrinksWireBytes(t *testing.T) {
	run := func(codec compress.Codec) Stats {
		w, _ := NewHashWriter(Config{Partitions: 2, Codec: codec})
		for i := 0; i < 2000; i++ {
			_ = w.Write([]byte(fmt.Sprintf("key-%d", i%20)), []byte("the same repetitive value payload"))
		}
		_, stats, _ := w.Close()
		return stats
	}
	plain := run(compress.None{})
	lz := run(compress.LZ{})
	if lz.WireBytes >= plain.WireBytes/2 {
		t.Fatalf("lz wire bytes %d vs plain %d: compression ineffective", lz.WireBytes, plain.WireBytes)
	}
	if lz.RawBytes != plain.RawBytes {
		t.Fatalf("raw bytes differ: %d vs %d", lz.RawBytes, plain.RawBytes)
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	w, _ := NewSortWriter(Config{Partitions: 3, Codec: compress.LZ{}})
	for i := 0; i < 500; i++ {
		_ = w.Write([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	blocks, _, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range blocks {
		recs, err := ReadBlocks(compress.LZ{}, []Block{b})
		if err != nil {
			t.Fatal(err)
		}
		n += len(recs)
	}
	if n != 500 {
		t.Fatalf("read back %d records", n)
	}
}

func TestRangePartitioner(t *testing.T) {
	rp := NewRangePartitioner([][]byte{[]byte("g"), []byte("p")})
	if rp.Partitions() != 3 {
		t.Fatalf("partitions = %d", rp.Partitions())
	}
	cases := map[string]int{"a": 0, "f": 0, "g": 1, "m": 1, "p": 2, "z": 2}
	for k, want := range cases {
		if got := rp.Partition([]byte(k)); got != want {
			t.Fatalf("Partition(%q) = %d, want %d", k, got, want)
		}
	}
}

func TestRangePartitionerPreservesOrderAcrossPartitions(t *testing.T) {
	f := func(a, b []byte) bool {
		rp := NewRangePartitioner([][]byte{{0x40}, {0x80}, {0xc0}})
		pa, pb := rp.Partition(a), rp.Partition(b)
		if bytes.Compare(a, b) < 0 {
			return pa <= pb
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAfterClose(t *testing.T) {
	for name, mk := range writers(Config{}) {
		w, _ := mk(Config{Partitions: 1})
		_, _, _ = w.Close()
		if err := w.Write([]byte("k"), []byte("v")); err != ErrClosed {
			t.Fatalf("%s: err = %v", name, err)
		}
		if _, _, err := w.Close(); err != ErrClosed {
			t.Fatalf("%s: double close err = %v", name, err)
		}
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := NewHashWriter(Config{}); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := NewSortWriter(Config{Partitions: -1}); err == nil {
		t.Fatal("negative partitions accepted")
	}
}

func TestHashVsSortEquivalence(t *testing.T) {
	// Property: both writers deliver exactly the same multiset of records.
	f := func(seed uint64) bool {
		gen := rng.New(seed)
		n := 200 + gen.Intn(300)
		type kv struct{ k, v string }
		var input []kv
		for i := 0; i < n; i++ {
			input = append(input, kv{
				k: fmt.Sprintf("k%d", gen.Intn(50)),
				v: fmt.Sprintf("v%d", gen.Intn(1000)),
			})
		}
		collect := func(mk func(Config) (Writer, error)) []string {
			w, _ := mk(Config{Partitions: 4})
			for _, r := range input {
				_ = w.Write([]byte(r.k), []byte(r.v))
			}
			blocks, _, _ := w.Close()
			var out []string
			for _, b := range blocks {
				recs, _ := ReadBlocks(compress.None{}, []Block{b})
				for _, r := range recs {
					out = append(out, string(r.Key)+"="+string(r.Value))
				}
			}
			sort.Strings(out)
			return out
		}
		h := collect(NewHashWriter)
		s := collect(NewSortWriter)
		if len(h) != len(s) {
			return false
		}
		for i := range h {
			if h[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// benchRecords returns n seeded 100-byte records: a 10-byte random key and
// a 90-byte value.
func benchRecords(seed uint64, n int) (keys [][]byte, val []byte) {
	gen := rng.New(seed)
	keys = make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, 10)
		gen.Bytes(keys[i])
	}
	return keys, bytes.Repeat([]byte("v"), 90)
}

// writeBatch writes keys with val each in one WriteRecords call, as the
// engine hands a writer a partition's batch.
func writeBatch(w Writer, keys [][]byte, val []byte) error {
	return WriteRecords(w, len(keys),
		func(dst []byte, i int) []byte { return append(dst, keys[i]...) },
		func(dst []byte, _ int) []byte { return append(dst, val...) })
}

// benchWrite times writers taking keys with val each in one batch.
func benchWrite(b *testing.B, mk func(Config) (Writer, error), cfg Config, keys [][]byte, val []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(keys) * (len(keys[0]) + len(val))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := mk(cfg)
		_ = writeBatch(w, keys, val)
		_, _, _ = w.Close()
	}
}

func benchWrite16(b *testing.B, mk func(Config) (Writer, error), codec compress.Codec) {
	gen := rng.New(1)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", gen.Intn(100000)))
	}
	benchWrite(b, mk, Config{Partitions: 16, Codec: codec}, keys, bytes.Repeat([]byte("v"), 90))
}

func BenchmarkHashWriter(b *testing.B)      { benchWrite16(b, NewHashWriter, compress.None{}) }
func BenchmarkSortWriter(b *testing.B)      { benchWrite16(b, NewSortWriter, compress.None{}) }
func BenchmarkHashWriterLZ(b *testing.B)    { benchWrite16(b, NewHashWriter, compress.LZ{}) }
func BenchmarkSortWriterFlate(b *testing.B) { benchWrite16(b, NewSortWriter, compress.Flate{}) }

// rangeConfig splits the first key byte evenly eight ways.
func rangeConfig() Config {
	var splits [][]byte
	for i := 1; i < 8; i++ {
		splits = append(splits, []byte{byte(i * 32)})
	}
	rp := NewRangePartitioner(splits)
	return Config{Partitions: rp.Partitions(), Partitioner: rp.Partition}
}

// BenchmarkSortWriterRange is one map task of a range-partitioned sort:
// 25 000 100-byte records into 8 sorted blocks, in a single run.
func BenchmarkSortWriterRange(b *testing.B) {
	keys, val := benchRecords(1, 25000)
	benchWrite(b, NewSortWriter, rangeConfig(), keys, val)
}

// BenchmarkReadBlocksSorted is one reduce task of the same sort: decode and
// merge the sorted blocks 8 map tasks wrote for one partition.
func BenchmarkReadBlocksSorted(b *testing.B) {
	var blocks []Block
	var records, size int64
	for m := uint64(0); m < 8; m++ {
		w, _ := NewSortWriter(rangeConfig())
		keys, val := benchRecords(m, 25000)
		for _, k := range keys {
			_ = w.Write(k, val)
		}
		bs, _, _ := w.Close()
		blocks = append(blocks, bs[0])
		records += int64(bs[0].Records)
		size += bs[0].RawBytes
	}
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := ReadBlocks(compress.None{}, blocks)
		if err != nil || int64(len(recs)) != records {
			b.Fatalf("read %d records, want %d: %v", len(recs), records, err)
		}
	}
}

// TestWritersCopyScratch: a caller may encode every record into the same
// scratch buffer. Both writers, with and without a combiner, must have
// copied what Write was handed by the time it returns: scribbling over the
// scratch after each Write changes no block.
func TestWritersCopyScratch(t *testing.T) {
	input := identityInput(11)
	concat := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }
	for name, mk := range writers(Config{}) {
		for _, combiner := range []func(a, b []byte) []byte{nil, concat} {
			cfg := Config{Partitions: 3, Combiner: combiner, SpillThreshold: 2048}
			stable, _ := mk(cfg)
			reused, _ := mk(cfg)
			var scratch []byte
			for _, r := range input {
				if err := stable.Write(r.k, r.v); err != nil {
					t.Fatal(err)
				}
				scratch = append(append(scratch[:0], r.k...), r.v...)
				if err := reused.Write(scratch[:len(r.k)], scratch[len(r.k):]); err != nil {
					t.Fatal(err)
				}
				for i := range scratch {
					scratch[i] = 0xEE
				}
			}
			want, wantStats, err := stable.Close()
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := reused.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("%s writer, combiner=%t: blocks written from reused scratch differ", name, combiner != nil)
			}
		}
	}
}

// TestWriteRecordsMatchesWriteLoop: WriteRecords hands each writer the
// same records a Write loop does, whether it copies them out of one scratch
// buffer (the hash writer) or frames their values from the batch at Close
// (the sort writer).
func TestWriteRecordsMatchesWriteLoop(t *testing.T) {
	input := identityInput(5)
	for name, mk := range writers(Config{}) {
		loop, _ := mk(Config{Partitions: 4})
		for _, r := range input {
			_ = loop.Write(r.k, r.v)
		}
		want, _, _ := loop.Close()
		batch, _ := mk(Config{Partitions: 4})
		err := WriteRecords(batch, len(input),
			func(dst []byte, i int) []byte { return append(dst, input[i].k...) },
			func(dst []byte, i int) []byte { return append(dst, input[i].v...) })
		if err != nil {
			t.Fatal(err)
		}
		if got, _, _ := batch.Close(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s writer: WriteRecords wrote different blocks", name)
		}
	}
}

// TestSortWriterBatchNotAliased: blocks a sort writer framed from a batch
// are its own. Once Close has returned, overwriting the batch's keys and
// values and the scratch its value callback encodes through changes no
// block.
func TestSortWriterBatchNotAliased(t *testing.T) {
	for _, codec := range []compress.Codec{compress.None{}, compress.LZ{}} {
		input := identityInput(13)
		var flat []byte // every value, back to back: the batch's source bytes
		for _, r := range input {
			flat = append(flat, r.v...)
		}
		vals := make([][]byte, len(input))
		for i, off := 0, 0; i < len(input); i++ {
			vals[i], off = flat[off:off+len(input[i].v)], off+len(input[i].v)
		}
		var scratch []byte // the value callback encodes here first
		cfg := Config{Partitions: 3, Codec: codec, SpillThreshold: 2048}
		want, _ := referenceSort(cfg, input)
		w, _ := NewSortWriter(cfg)
		err := WriteRecords(w, len(input),
			func(dst []byte, i int) []byte { return append(dst, input[i].k...) },
			func(dst []byte, i int) []byte {
				scratch = append(scratch[:0], vals[i]...)
				return append(dst, scratch...)
			})
		if err != nil {
			t.Fatal(err)
		}
		blocks, _, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range append([][]byte{flat, scratch[:cap(scratch)]}, keysOf(input)...) {
			for i := range b {
				b[i] = 0xEE
			}
		}
		if !reflect.DeepEqual(blocks, want) {
			t.Errorf("%s: overwriting the batch after Close changed its blocks", codec.Name())
		}
	}
}

func keysOf(input []kv) [][]byte {
	keys := make([][]byte, len(input))
	for i, r := range input {
		keys[i] = r.k
	}
	return keys
}

// TestSortWriterBatchValueMustNotChange: a value callback that returns a
// different length at Close than when its record was written breaks the
// frame the run sized, and Close says so rather than writing a block.
func TestSortWriterBatchValueMustNotChange(t *testing.T) {
	w, _ := NewSortWriter(Config{Partitions: 2})
	calls := 0
	err := WriteRecords(w, 3,
		func(dst []byte, i int) []byte { return append(dst, byte('a'+i)) },
		func(dst []byte, _ int) []byte { calls++; return append(dst, make([]byte, calls)...) })
	if err != nil {
		t.Fatal(err)
	}
	if blocks, _, err := w.Close(); err == nil {
		t.Fatalf("Close framed %d blocks from values that changed length", len(blocks))
	}
}

// TestSortWritersShareBatch: speculative copies of a map task write the
// same batch through writers of their own at the same time: sort writers
// frame values from it at Close, and LZ takes its scratch from a pool the
// copies share. Under -race this checks the batch path only reads the
// batch and no scratch is handed out twice; every copy's blocks match a
// lone writer's.
func TestSortWritersShareBatch(t *testing.T) {
	keys, val := benchRecords(3, 5000)
	for name, mk := range writers(Config{}) {
		for _, codec := range []compress.Codec{compress.None{}, compress.LZ{}} {
			cfg := rangeConfig()
			cfg.Codec = codec
			cfg.SpillThreshold = 64 << 10 // several runs, merged at Close
			lone, _ := mk(cfg)
			if err := writeBatch(lone, keys, val); err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := lone.Close()
			if err != nil {
				t.Fatal(err)
			}
			if wantStats.Spills == 0 {
				t.Fatal("the task is meant to spill")
			}
			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w, _ := mk(cfg)
					if err := writeBatch(w, keys, val); err != nil {
						t.Error(err)
						return
					}
					got, stats, err := w.Close()
					if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stats, wantStats) {
						t.Errorf("%s/%s copy %d: blocks differ from a lone writer's (%v)", name, codec.Name(), c, err)
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestRunFits: a run's arena may grow to exactly 2^32-1 bytes, the last
// offset sortEntry addresses, and not one byte past it — from empty (a
// record Write refuses) or from nearly full (one that ends the run).
func TestRunFits(t *testing.T) {
	const limit = math.MaxUint32
	for _, c := range []struct {
		used, n int
		want    bool
	}{
		{0, 0, true}, {0, limit, true}, {0, limit + 1, false},
		{limit - 100, 100, true}, {limit - 100, 101, false}, {limit, 0, true}, {limit, 1, false},
	} {
		if got := runFits(c.used, c.n); got != c.want {
			t.Errorf("runFits(%d, %d) = %t, want %t", c.used, c.n, got, c.want)
		}
	}
}

// TestKeyOrder: the order is sort.Strings' for both key forms, on the
// comparison path (keys past 8 bytes) and the radix path (short keys, the
// trailing-zero ties included), and each path allocates at most twice:
// prefixes and order, or order and its spare.
func TestKeyOrder(t *testing.T) {
	var long []string
	for _, r := range identityInput(9) {
		long = append(long, string(r.k))
	}
	short := []string{""}
	for n := 0; n < 8; n++ {
		short = append(short, "a"+strings.Repeat("\x00", n))
	}
	for _, n := range []int{1, 2, 3} {
		for i := 0; i < 1<<(2*n); i++ {
			var k []byte
			for j := 0; j < n; j++ {
				k = append(k, "abcd"[i>>(2*j)&3])
			}
			if string(k) != "a" {
				short = append(short, string(k))
			}
		}
	}
	if len(short) < radixMin {
		t.Fatalf("%d short keys: below the radix cutoff", len(short))
	}
	for name, strs := range map[string][]string{"long": long, "short": short} {
		keys := make([][]byte, len(strs))
		for i, s := range strs {
			keys[i] = []byte(s)
		}
		want := slices.Clone(strs)
		sort.Strings(want)
		byteKey := func(i int32) []byte { return keys[i] }
		strKey := func(i int32) string { return strs[i] }
		for j, i := range KeyOrder(len(keys), byteKey) {
			if string(keys[i]) != want[j] {
				t.Fatalf("%s []byte keys: position %d holds %q, want %q", name, j, keys[i], want[j])
			}
		}
		for j, i := range KeyOrder(len(strs), strKey) {
			if strs[i] != want[j] {
				t.Fatalf("%s string keys: position %d holds %q, want %q", name, j, strs[i], want[j])
			}
		}
		if n := testing.AllocsPerRun(5, func() { KeyOrder(len(keys), byteKey) }); n > 2 {
			t.Errorf("KeyOrder over %s []byte keys: %v allocations, want 2", name, n)
		}
		if n := testing.AllocsPerRun(5, func() { KeyOrder(len(strs), strKey) }); n > 2 {
			t.Errorf("KeyOrder over %s string keys: %v allocations, want 2", name, n)
		}
	}
}

// TestRecordsOf: the view built from a slice holds the slice's records, in
// order, in memory of its own.
func TestRecordsOf(t *testing.T) {
	recs := []Record{{Key: []byte("b"), Value: []byte("2")}, {Key: nil, Value: nil}, {Key: []byte("a"), Value: []byte("111")}}
	view := RecordsOf(recs)
	recs[0].Key[0] = 'x'
	if view.Len() != 3 {
		t.Fatalf("Len %d", view.Len())
	}
	for i, want := range []string{"b=2", "=", "a=111"} {
		if got := string(view.Key(i)) + "=" + string(view.Value(i)); got != want {
			t.Errorf("record %d = %q, want %q", i, got, want)
		}
	}
	if k := view.Key(2); cap(k) != len(k) {
		t.Errorf("key capacity %d over length %d: an append would reach the value", cap(k), len(k))
	}
}

// blockCase is one writer of the block-allocation pins: a writer kind, a
// codec, and whether spills cut the input, fed either in one WriteRecords
// batch, as the engine feeds a map task's writer, or through a Write loop,
// as the probes and combining writers are.
type blockCase struct {
	name  string
	mk    func(Config) (Writer, error)
	cfg   Config
	batch bool
}

func blockCases() []blockCase {
	var cases []blockCase
	for _, kind := range []string{"hash", "sort"} {
		for _, codec := range []compress.Codec{compress.None{}, compress.LZ{}} {
			for _, spill := range []int64{0, 64 << 10} {
				for _, batch := range []bool{true, false} {
					feed := "loop"
					if batch {
						feed = "batch"
					}
					cases = append(cases, blockCase{
						name:  fmt.Sprintf("%s/%s/spill=%t/%s", kind, codec.Name(), spill > 0, feed),
						mk:    writers(Config{})[kind],
						cfg:   Config{Partitions: 8, Codec: codec, SpillThreshold: spill},
						batch: batch,
					})
				}
			}
		}
	}
	return cases
}

// wideRecords returns n records shaped like the sort_wide benchmark's: a
// 10-byte random key and a 90-byte value of 45 random bytes and one of 16
// 45-byte phrases, so LZ finds some matches and not others.
func wideRecords(n int) (keys, vals [][]byte) {
	gen := rng.New(3)
	phrases := make([][]byte, 16)
	for i := range phrases {
		phrases[i] = []byte(fmt.Sprintf("%-45s", strings.Repeat(fmt.Sprintf("phrase %d ", i), 5)))[:45]
	}
	keys, vals = make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i], vals[i] = make([]byte, 10), make([]byte, 45, 90)
		gen.Bytes(keys[i])
		gen.Bytes(vals[i])
		vals[i] = append(vals[i], phrases[gen.Intn(len(phrases))]...)
	}
	return keys, vals
}

// write feeds the records to a fresh writer as c says and closes it.
func (c blockCase) write(keys, vals [][]byte) ([]Block, error) {
	w, err := c.mk(c.cfg)
	if err != nil {
		return nil, err
	}
	if c.batch {
		if err := WriteRecords(w, len(keys),
			func(dst []byte, i int) []byte { return append(dst, keys[i]...) },
			func(dst []byte, i int) []byte { return append(dst, vals[i]...) }); err != nil {
			return nil, err
		}
	} else {
		for i := range keys {
			if err := w.Write(keys[i], vals[i]); err != nil {
				return nil, err
			}
		}
	}
	blocks, _, err := w.Close()
	return blocks, err
}

// TestBlocksHoldNoSpareRoom: a block is the only allocation that holds its
// bytes and lives as long as its map output, so it carries little spare
// capacity: an LZ block none at all, and a codec-less block, which is the
// writer's own buffer, at most an eighth over all of a writer's blocks.
func TestBlocksHoldNoSpareRoom(t *testing.T) {
	keys, vals := wideRecords(4000)
	for _, c := range blockCases() {
		blocks, err := c.write(keys, vals)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var held, used int
		for _, b := range blocks {
			if _, lz := c.cfg.Codec.(compress.LZ); lz && cap(b.Data) != len(b.Data) {
				t.Errorf("%s: partition %d: lz block of %d bytes has capacity %d", c.name, b.Partition, len(b.Data), cap(b.Data))
			}
			held, used = held+cap(b.Data), used+len(b.Data)
		}
		if 8*held > 9*used {
			t.Errorf("%s: blocks hold %d bytes in %d of capacity, over 1.125 times", c.name, used, held)
		}
	}
}
