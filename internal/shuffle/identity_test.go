package shuffle

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/compress"
	"repro/internal/rng"
	"repro/internal/serde"
)

type kv struct{ k, v []byte }

// referenceSort is the sort writer's contract written the slow way: cut the
// input into spill runs (combining within a run), stable-sort everything by
// (partition, key) so equal keys stay in run order, and frame each partition
// with serde.Writer.
func referenceSort(cfg Config, input []kv) ([]Block, Stats) {
	_ = cfg.fill()
	st := Stats{
		RecordsIn:        len(input),
		PartitionRecords: make([]int, cfg.Partitions),
		PartitionBytes:   make([]int64, cfg.Partitions),
	}
	var recs []kv
	var buffered int64
	run := map[string][]byte{} // combiner state of the current run
	endRun := func() {
		keys := make([]string, 0, len(run))
		for k := range run {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			recs = append(recs, kv{[]byte(k), run[k]})
		}
		run, buffered = map[string][]byte{}, 0
	}
	for _, r := range input {
		prev, seen := run[string(r.k)]
		switch {
		case cfg.Combiner == nil:
			recs = append(recs, r)
			buffered += int64(len(r.k) + len(r.v))
		case seen:
			run[string(r.k)] = cfg.Combiner(prev, r.v)
		default:
			run[string(r.k)] = r.v
			buffered += int64(len(r.k) + len(r.v))
		}
		if buffered >= cfg.SpillThreshold {
			endRun()
			st.Spills++
		}
	}
	endRun()
	sort.SliceStable(recs, func(i, j int) bool {
		if pi, pj := cfg.Partitioner(recs[i].k), cfg.Partitioner(recs[j].k); pi != pj {
			return pi < pj
		}
		return bytes.Compare(recs[i].k, recs[j].k) < 0
	})
	bufs := make([]bytes.Buffer, cfg.Partitions)
	for _, r := range recs {
		p := cfg.Partitioner(r.k)
		_ = serde.NewWriter(&bufs[p]).Write(r.k, r.v)
		st.PartitionRecords[p]++
	}
	return referenceBlocks(cfg, bufs, true, &st), st
}

// referenceHash is the hash writer's contract written the slow way: each
// partition's records in arrival order; with a combiner, each partition's
// combined records in ascending key order, flushed whenever the bytes of
// new keys reach the threshold (a spill) and at Close (not one).
func referenceHash(cfg Config, input []kv) ([]Block, Stats) {
	_ = cfg.fill()
	st := Stats{
		RecordsIn:        len(input),
		PartitionRecords: make([]int, cfg.Partitions),
		PartitionBytes:   make([]int64, cfg.Partitions),
	}
	bufs := make([]bytes.Buffer, cfg.Partitions)
	frame := func(p int, k, v []byte) {
		_ = serde.NewWriter(&bufs[p]).Write(k, v)
		st.PartitionRecords[p]++
	}
	combined := make([]map[string][]byte, cfg.Partitions) // combiner state by partition
	var buffered int64
	flush := func() { // the first call makes the empty maps
		for p, m := range combined {
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				frame(p, []byte(k), m[k])
			}
			combined[p] = map[string][]byte{}
		}
		buffered = 0
	}
	flush()
	for _, r := range input {
		p := cfg.Partitioner(r.k)
		prev, seen := combined[p][string(r.k)]
		switch {
		case cfg.Combiner == nil:
			frame(p, r.k, r.v)
			buffered += int64(len(r.k) + len(r.v))
		case seen:
			combined[p][string(r.k)] = cfg.Combiner(prev, r.v)
		default:
			combined[p][string(r.k)] = r.v
			buffered += int64(len(r.k) + len(r.v))
		}
		if buffered >= cfg.SpillThreshold {
			flush()
			st.Spills++
		}
	}
	flush()
	return referenceBlocks(cfg, bufs, false, &st), st
}

// referenceBlocks compresses each partition's non-empty record stream into
// a block and folds its size into st, whose PartitionRecords already hold
// the counts.
func referenceBlocks(cfg Config, bufs []bytes.Buffer, sorted bool, st *Stats) []Block {
	var blocks []Block
	for p := range bufs {
		raw := bufs[p].Bytes()
		if len(raw) == 0 {
			continue
		}
		data := cfg.Codec.Compress(raw)
		st.RecordsOut += st.PartitionRecords[p]
		st.RawBytes += int64(len(raw))
		st.WireBytes += int64(len(data))
		st.PartitionBytes[p] = int64(len(raw))
		blocks = append(blocks, Block{Partition: p, Data: data, Records: st.PartitionRecords[p], RawBytes: int64(len(raw)), Sorted: sorted})
	}
	return blocks
}

// pinned pairs each writer with the reference that pins its bytes.
var pinned = []struct {
	name string
	mk   func(Config) (Writer, error)
	ref  func(Config, []kv) ([]Block, Stats)
}{{"sort", NewSortWriter, referenceSort}, {"hash", NewHashWriter, referenceHash}}

// identityInput mixes seeded records over a small key space (duplicates in
// and across runs) with the keys a cached 8-byte prefix cannot tell apart:
// the empty key, "a" zero-extended one byte at a time, keys differing only
// past byte 8, and empty values.
func identityInput(seed uint64) []kv {
	gen := rng.New(seed)
	tricky := [][]byte{{}, []byte("abcdefgh"), []byte("abcdefgh1"), []byte("abcdefgh2"), []byte("abcdefgh\x00")}
	for n := 0; n <= 9; n++ {
		tricky = append(tricky, append([]byte("a"), make([]byte, n)...))
	}
	var in []kv
	for i := 0; i < 600; i++ {
		var r kv
		if gen.Intn(3) == 0 {
			r.k = tricky[gen.Intn(len(tricky))]
		} else {
			r.k = []byte(fmt.Sprintf("%c%c-key-%d", 'a'+gen.Intn(20), 'a'+gen.Intn(3), gen.Intn(40)))
		}
		if gen.Intn(8) != 0 {
			r.v = []byte(fmt.Sprintf("value-%d-%d", i, gen.Intn(1000)))
		}
		in = append(in, r)
	}
	return in
}

// writeChunks writes input to w through WriteRecords, chunk records per
// call, or through a Write loop when chunk is 0.
func writeChunks(w Writer, input []kv, chunk int) error {
	if chunk == 0 {
		for _, r := range input {
			if err := w.Write(r.k, r.v); err != nil {
				return err
			}
		}
		return nil
	}
	for len(input) > 0 {
		c := input[:min(chunk, len(input))]
		err := WriteRecords(w, len(c),
			func(dst []byte, i int) []byte { return append(dst, c[i].k...) },
			func(dst []byte, i int) []byte { return append(dst, c[i].v...) })
		if err != nil {
			return err
		}
		input = input[len(c):]
	}
	return nil
}

func TestSortWriterByteIdentity(t *testing.T) {
	input := identityInput(7)
	var total int64
	for _, r := range input {
		total += int64(len(r.k) + len(r.v))
	}
	concat := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) } // order-sensitive on purpose
	rp := NewRangePartitioner([][]byte{[]byte("a\x00"), []byte("abcdefgh1"), []byte("k")})
	for _, part := range []struct {
		name string
		cfg  Config
	}{
		{"hash", Config{Partitions: 5}},
		{"range", Config{Partitions: rp.Partitions(), Partitioner: rp.Partition}},
	} {
		for _, spill := range []struct {
			name      string
			threshold int64
		}{{"0spills", 0}, {"1spill", total/2 + 64}, {"8spills", total / 8}} {
			for _, combiner := range []func(a, b []byte) []byte{nil, concat} {
				for _, codec := range []compress.Codec{compress.None{}, compress.LZ{}} {
					cfg := part.cfg
					cfg.SpillThreshold, cfg.Combiner, cfg.Codec = spill.threshold, combiner, codec
					name := fmt.Sprintf("%s/%s/combiner=%t/%s", part.name, spill.name, combiner != nil, codec.Name())
					// A Write loop, and WriteRecords batches that frame their
					// values at Close and size the run from each call's first
					// record: once for the whole input (reserve=exact), or
					// per chunk of 1 and of 7 records (reserve=wild), so a
					// spill falls inside a batch. None moves a byte, a
					// spill or a run boundary.
					for _, batched := range []struct {
						name   string
						chunks []int
					}{{"", []int{0}}, {"/reserve=exact", []int{len(input)}}, {"/reserve=wild", []int{1, 7}}} {
						t.Run(name+batched.name, func(t *testing.T) {
							for _, wr := range pinned {
								wantBlocks, wantStats := wr.ref(cfg, input)
								if combiner == nil && spill.threshold > 0 && wantStats.Spills == 0 {
									t.Fatal("case meant to spill did not")
								}
								for _, chunk := range batched.chunks {
									w, err := wr.mk(cfg)
									if err != nil {
										t.Fatal(err)
									}
									if err := writeChunks(w, input, chunk); err != nil {
										t.Fatal(err)
									}
									blocks, stats, err := w.Close()
									if err != nil {
										t.Fatal(err)
									}
									if !reflect.DeepEqual(stats, wantStats) {
										t.Fatalf("%s writer, chunks of %d: stats\n got %+v\nwant %+v", wr.name, chunk, stats, wantStats)
									}
									if len(blocks) != len(wantBlocks) {
										t.Fatalf("%s writer, chunks of %d: %d blocks, want %d", wr.name, chunk, len(blocks), len(wantBlocks))
									}
									for i, b := range blocks {
										if !reflect.DeepEqual(b, wantBlocks[i]) {
											t.Fatalf("%s writer, chunks of %d: block %d (partition %d) differs from the reference: %d records / %d raw bytes, want %d / %d",
												wr.name, chunk, i, b.Partition, b.Records, b.RawBytes, wantBlocks[i].Records, wantBlocks[i].RawBytes)
										}
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestReadBlocksRecordsAreCallerOwned: records are views into buffers
// ReadBlocks allocated, so a caller may append to and overwrite every one
// of them without touching a neighbour, a block, or a later read.
func TestReadBlocksRecordsAreCallerOwned(t *testing.T) {
	input := identityInput(3)
	for _, codec := range []compress.Codec{compress.None{}, compress.RLE{}, compress.LZ{}, compress.Flate{}} {
		for name, mk := range writers(Config{}) {
			t.Run(codec.Name()+"/"+name, func(t *testing.T) {
				var blocks []Block // two map outputs for one reduce partition: the sorted ones merge
				for m := 0; m < 2; m++ {
					w, _ := mk(Config{Partitions: 1, Codec: codec})
					for _, r := range input[m*300 : (m+1)*300] {
						_ = w.Write(r.k, r.v)
					}
					bs, _, err := w.Close()
					if err != nil {
						t.Fatal(err)
					}
					blocks = append(blocks, bs...)
				}
				var wire [][]byte
				for _, b := range blocks {
					wire = append(wire, append([]byte(nil), b.Data...))
				}
				snapshot := func(recs []Record) []Record {
					out := make([]Record, len(recs))
					for i, r := range recs {
						out[i] = Record{append([]byte{}, r.Key...), append([]byte{}, r.Value...)}
					}
					return out
				}
				recs, err := ReadBlocks(codec, blocks)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != len(input) {
					t.Fatalf("read %d records, want %d", len(recs), len(input))
				}
				want := snapshot(recs)
				for i := range recs {
					_ = append(recs[i].Key, "overrun"...)
					_ = append(recs[i].Value, "overrun"...)
				}
				if !reflect.DeepEqual(snapshot(recs), want) {
					t.Fatal("appending to one record's slices overwrote another record")
				}
				for _, r := range recs {
					for i := range r.Key {
						r.Key[i] ^= 0xff
					}
					for i := range r.Value {
						r.Value[i] ^= 0xff
					}
				}
				for i, b := range blocks {
					if !bytes.Equal(b.Data, wire[i]) {
						t.Fatalf("mutating records changed Block.Data of block %d", i)
					}
				}
				again, err := ReadBlocks(codec, blocks)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(snapshot(again), want) {
					t.Fatal("second ReadBlocks does not return the original records")
				}
			})
		}
	}
}
