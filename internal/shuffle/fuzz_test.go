package shuffle

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/compress"
	"repro/internal/serde"
)

// FuzzSortWriter: records cut from the fuzz bytes — a length byte, then a
// key of that many bytes mod 13, straddling the 8-byte prefix the run sort
// keys on, and a value naming the record's arrival — come out of each
// writer exactly as its reference (referenceSort, referenceHash) frames
// them: blocks and Stats, under a hash and a range partitioner, with 0, 1
// and many spills, with and without an order-sensitive combiner,
// uncompressed and LZ, written by a Write loop or by WriteRecords in chunks
// of 1, 5 or all records.
func FuzzSortWriter(f *testing.F) {
	f.Add([]byte("\x01a\x02a\x00\x01a\x03a\x00\x00\x00\x01a\x02a\x00")) // "a" vs "a\x00", duplicates
	f.Add([]byte("\x08abcdefgh\x09abcdefgh1\x09abcdefgh\x00\x0cabcdefgh2xyz\x09abcdefgh1\x08abcdefgh\x00"))
	var tricky []byte // keys sharing long prefixes, every length 0 to 12, each several times
	for rep := 0; rep < 6; rep++ {
		for n := 0; n <= 12; n++ {
			tricky = append(tricky, byte(n))
			tricky = append(tricky, "abcdefghijkl"[:n]...)
			if n > 0 {
				tricky[len(tricky)-1] += byte(rep % 3)
			}
		}
	}
	f.Add(tricky)
	concat := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }
	rp := NewRangePartitioner([][]byte{[]byte("a\x00"), []byte("abcdefgh1"), []byte("k")})
	f.Fuzz(func(t *testing.T, data []byte) {
		var input []kv
		var total int64
		for len(data) > 0 {
			n := min(int(data[0]%13), len(data)-1)
			input = append(input, kv{k: data[1 : 1+n], v: []byte{byte(len(input) >> 8), byte(len(input))}})
			total += int64(n + 2)
			data = data[1+n:]
		}
		for _, part := range []Config{{Partitions: 3}, {Partitions: rp.Partitions(), Partitioner: rp.Partition}} {
			for _, threshold := range []int64{0, total/2 + 1, max(1, total/8)} {
				for _, combiner := range []func(a, b []byte) []byte{nil, concat} {
					for _, codec := range []compress.Codec{compress.None{}, compress.LZ{}} {
						cfg := part
						cfg.SpillThreshold, cfg.Combiner, cfg.Codec = threshold, combiner, codec
						for _, wr := range pinned {
							wantBlocks, wantStats := wr.ref(cfg, input)
							for _, chunk := range []int{0, 1, 5, max(1, len(input))} {
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
								if !reflect.DeepEqual(stats, wantStats) || !reflect.DeepEqual(blocks, wantBlocks) {
									t.Fatalf("%s writer, %d records in chunks of %d, threshold %d, combiner %t, %s: writer and reference differ\nstats %+v\n want %+v",
										wr.name, len(input), chunk, threshold, combiner != nil, codec.Name(), stats, wantStats)
								}
							}
						}
					}
				}
			}
		}
	})
}

// FuzzReadBlocks feeds arbitrary bytes to ReadBlocks as the data of two
// blocks for one partition, flagged sorted or not, with a record count that
// may lie. It must agree with serde.Reader over the same bytes — the same
// records, or an error wrapping serde.ErrCorrupt — never panic, and never
// size its result from the count rather than from the data. The Records
// view ReadRecords builds over the same blocks must say the same thing as
// the slice, record for record and error for error.
func FuzzReadBlocks(f *testing.F) {
	for name, mk := range writers(Config{}) {
		w, _ := mk(Config{Partitions: 1})
		for _, r := range identityInput(5)[:40] {
			_ = w.Write(r.k, r.v)
		}
		blocks, _, err := w.Close()
		if err != nil {
			f.Fatal(err)
		}
		b := blocks[0]
		f.Add(b.Data, b.Records, name == "sort")
		f.Add(b.Data, -1, true)
		f.Add(b.Data, 1<<62, false)
		f.Add(b.Data[:len(b.Data)-3], b.Records, true) // truncated body
	}
	f.Add([]byte{}, 1<<40, true)
	f.Add([]byte{0x05, 0x01, 'a'}, 1, false)                                              // frame longer than the data
	f.Add([]byte{0x01}, 1, false)                                                         // value length missing
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0}, 1, true) // 2^63-ish key length
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 1, true)

	f.Fuzz(func(t *testing.T, data []byte, records int, sorted bool) {
		var want []Record
		var wantErr error
		for r := serde.NewReader(bytes.NewReader(data)); ; {
			rec, err := r.Read()
			if err != nil {
				if err != io.EOF {
					wantErr = err
				}
				break
			}
			want = append(want, Record{append([]byte{}, rec.Key...), append([]byte{}, rec.Value...)})
		}
		wire := append([]byte(nil), data...)
		block := Block{Data: data, Records: records, Sorted: sorted}
		got, err := ReadBlocks(compress.None{}, []Block{block, block})
		view, viewErr := ReadRecords(compress.None{}, []Block{block, block})
		if !bytes.Equal(data, wire) {
			t.Fatal("ReadBlocks wrote to Block.Data")
		}
		if (err == nil) != (viewErr == nil) || errors.Is(err, serde.ErrCorrupt) != errors.Is(viewErr, serde.ErrCorrupt) {
			t.Fatalf("ReadBlocks returned %v, ReadRecords %v", err, viewErr)
		}
		if view.Len() != len(got) || cap(view.refs) > 2*len(data)+4 {
			t.Fatalf("view of %d records (index capacity %d), slice of %d, from %d data bytes", view.Len(), cap(view.refs), len(got), len(data))
		}
		for i, r := range got {
			if !bytes.Equal(view.Key(i), r.Key) || !bytes.Equal(view.Value(i), r.Value) {
				t.Fatalf("record %d: view %q/%q, slice %q/%q", i, view.Key(i), view.Value(i), r.Key, r.Value)
			}
		}
		if wantErr != nil {
			if !errors.Is(err, serde.ErrCorrupt) {
				t.Fatalf("serde.Reader rejects the block (%v), ReadBlocks returned %v", wantErr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("serde.Reader accepts the block, ReadBlocks returned %v", err)
		}
		if len(got) != 2*len(want) {
			t.Fatalf("%d records from two copies of a %d-record block", len(got), len(want))
		}
		if cap(got) > 2*len(data)+4 {
			t.Fatalf("result capacity %d from %d data bytes and a Records hint of %d", cap(got), len(data), records)
		}
		expect := append(append([]Record(nil), want...), want...) // block order
		if sorted {
			if !sort.SliceIsSorted(want, func(i, j int) bool { return bytes.Compare(want[i].Key, want[j].Key) < 0 }) {
				return // "sorted" was a lie; any interleaving of the two copies will do
			}
			// Merging with ties to the first block is a stable sort of the two in a row.
			sort.SliceStable(expect, func(i, j int) bool { return bytes.Compare(expect[i].Key, expect[j].Key) < 0 })
		}
		for i, r := range got {
			if w := expect[i]; !bytes.Equal(r.Key, w.Key) || !bytes.Equal(r.Value, w.Value) {
				t.Fatalf("record %d = %q/%q, want %q/%q", i, r.Key, r.Value, w.Key, w.Value)
			}
		}
	})
}

// FuzzKeyOrder: distinct keys cut from the fuzz bytes — one starting at
// every offset, its length taken from the byte before it, so most are
// short enough for the radix path — come out in sort.Strings' order.
func FuzzKeyOrder(f *testing.F) {
	f.Add([]byte("a"))
	f.Add([]byte("\x08abcdefgh\x09abcdefghi\x00\x01a\x02a\x00"))
	seed := make([]byte, 200)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		seen := map[string]bool{}
		var keys [][]byte
		var strs []string
		for i, b := range data {
			k := data[i+1 : min(i+1+int(b%10), len(data))]
			if !seen[string(k)] {
				seen[string(k)] = true
				keys, strs = append(keys, k), append(strs, string(k))
			}
		}
		want := slices.Clone(strs)
		sort.Strings(want)
		for j, i := range KeyOrder(len(keys), func(i int32) []byte { return keys[i] }) {
			if string(keys[i]) != want[j] {
				t.Fatalf("[]byte keys: position %d holds %q, want %q", j, keys[i], want[j])
			}
		}
		for j, i := range KeyOrder(len(strs), func(i int32) string { return strs[i] }) {
			if strs[i] != want[j] {
				t.Fatalf("string keys: position %d holds %q, want %q", j, strs[i], want[j])
			}
		}
	})
}
