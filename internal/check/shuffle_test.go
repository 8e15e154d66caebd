package check

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/rng"
	"repro/internal/shuffle"
)

// makeInputs builds per-map-task record lists with colliding keys.
func makeInputs(tasks, recsPerTask int) [][]shuffle.Record {
	inputs := make([][]shuffle.Record, tasks)
	for t := 0; t < tasks; t++ {
		for i := 0; i < recsPerTask; i++ {
			inputs[t] = append(inputs[t], shuffle.Record{
				Key:   []byte(fmt.Sprintf("key-%03d", (t*recsPerTask+i)%17)),
				Value: []byte(fmt.Sprintf("v-%d-%d", t, i)),
			})
		}
	}
	return inputs
}

// runShuffle pushes inputs through real writers and reads each reduce
// partition back, mirroring the engine's map/fetch path.
func runShuffle(t *testing.T, inputs [][]shuffle.Record, partitions int, newWriter func() (shuffle.Writer, error)) [][]shuffle.Record {
	t.Helper()
	byPart := make([][]shuffle.Block, partitions)
	for _, task := range inputs {
		w, err := newWriter()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range task {
			if err := w.Write(rec.Key, rec.Value); err != nil {
				t.Fatal(err)
			}
		}
		blocks, _, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			byPart[b.Partition] = append(byPart[b.Partition], b)
		}
	}
	out := make([][]shuffle.Record, partitions)
	for p := range byPart {
		recs, err := shuffle.ReadBlocks(compress.None{}, byPart[p])
		if err != nil {
			t.Fatal(err)
		}
		out[p] = recs
	}
	return out
}

func TestReferenceShuffleHashWriter(t *testing.T) {
	const parts = 4
	inputs := makeInputs(3, 40)
	got := runShuffle(t, inputs, parts, func() (shuffle.Writer, error) {
		return shuffle.NewHashWriter(shuffle.Config{Partitions: parts})
	})
	if d := DiffShuffle("hash", got, inputs, parts, nil, false); !d.OK {
		t.Fatalf("hash writer vs reference: %s", d)
	}
}

func TestReferenceShuffleSortWriter(t *testing.T) {
	const parts = 4
	inputs := makeInputs(3, 40)
	got := runShuffle(t, inputs, parts, func() (shuffle.Writer, error) {
		return shuffle.NewSortWriter(shuffle.Config{Partitions: parts})
	})
	// Sort shuffle guarantees key order within each partition.
	if d := DiffShuffle("sort", got, inputs, parts, nil, true); !d.OK {
		t.Fatalf("sort writer vs reference: %s", d)
	}
}

func TestReferenceShuffleCustomPartitioner(t *testing.T) {
	const parts = 3
	inputs := makeInputs(2, 30)
	pick := func(key []byte) int { return int(key[len(key)-1]) % parts }
	got := runShuffle(t, inputs, parts, func() (shuffle.Writer, error) {
		return shuffle.NewHashWriter(shuffle.Config{Partitions: parts, Partitioner: pick})
	})
	if d := DiffShuffle("custom", got, inputs, parts, pick, false); !d.OK {
		t.Fatalf("custom partitioner vs reference: %s", d)
	}
}

func TestDiffShuffleCatchesTampering(t *testing.T) {
	const parts = 2
	inputs := makeInputs(2, 10)
	got := ReferenceShuffle(inputs, parts, nil, false)
	// Drop one record from one partition.
	for p := range got {
		if len(got[p]) > 0 {
			got[p] = got[p][1:]
			break
		}
	}
	if d := DiffShuffle("dropped", got, inputs, parts, nil, false); d.OK {
		t.Fatal("dropped record not detected")
	}
	// Partition-count mismatch.
	if d := DiffShuffle("shape", got[:1], inputs, parts, nil, false); d.OK {
		t.Fatal("partition count mismatch not detected")
	}

	// 100-byte random records over many partitions, the first of each
	// partition dropped: every partition is counted, though the details
	// fill up long before the last, and a detail names a dropped record by
	// its first 16 key bytes.
	const many = 8
	gen := rng.New(3)
	random := make([][]shuffle.Record, 3)
	for task := range random {
		for range 200 {
			b := make([]byte, 100)
			for i := range b {
				b[i] = byte(gen.Intn(256))
			}
			random[task] = append(random[task], shuffle.Record{Key: b[:50], Value: b[50:]})
		}
	}
	for _, sorted := range []bool{false, true} {
		got := ReferenceShuffle(random, many, nil, sorted)
		var dropped []shuffle.Record
		kept := 0
		for p := range got {
			dropped, got[p] = append(dropped, got[p][0]), got[p][1:]
			kept += len(got[p])
		}
		d := DiffShuffle("random", got, random, many, nil, sorted)
		if d.OK || d.Compared != kept {
			t.Fatalf("sorted=%t: OK=%t, %d compared, want a failure with %d compared", sorted, d.OK, d.Compared, kept)
		}
		named := false
		for _, detail := range d.Details {
			for i := range detail { // every quoted element in the detail
				q, err := strconv.QuotedPrefix(detail[i:])
				if err != nil {
					continue
				}
				raw, _ := strconv.Unquote(q)
				for _, r := range dropped {
					named = named || strings.Contains(raw, string(r.Key[:16]))
				}
			}
		}
		if !named {
			t.Fatalf("sorted=%t: no detail shows 16 key bytes of a dropped record: %s", sorted, d)
		}
	}
}

func TestDiffShuffleSortedOrderMatters(t *testing.T) {
	const parts = 1
	inputs := [][]shuffle.Record{{
		{Key: []byte("b"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("2")},
	}}
	// Unsorted comparison accepts input order...
	if d := DiffShuffle("multiset", inputs, inputs, parts, func([]byte) int { return 0 }, false); !d.OK {
		t.Fatalf("multiset comparison: %s", d)
	}
	// ...sorted comparison demands key order.
	if d := DiffShuffle("ordered", inputs, inputs, parts, func([]byte) int { return 0 }, true); d.OK {
		t.Fatal("unsorted records passed a sorted comparison")
	}
}
