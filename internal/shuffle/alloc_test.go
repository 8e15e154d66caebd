//go:build !race

// The race detector changes what escapes to the heap, so the ceilings here
// hold only in a plain build.

package shuffle

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/serde"
)

// sortTask is what BenchmarkSortWriterRange's map task — 25 000 100-byte
// records, range-partitioned into one run — allocates when write feeds it.
type sortTask struct {
	allocs        [2]float64 // at half and at all of the records
	perRec        float64    // bytes per record
	klen, vlen    int
	framed, entry float64 // one record's frame and sortEntry, in bytes
	reused        float64 // the reused partition buffer, per record: the largest partition's share of a frame
}

func measureSortTask(t *testing.T, write func(w Writer, keys [][]byte, val []byte) error) sortTask {
	keys, val := benchRecords(1, 25000)
	cfg := rangeConfig()
	var st Stats
	task := func(keys [][]byte) func() {
		return func() {
			w, _ := NewSortWriter(cfg)
			if err := write(w, keys, val); err != nil {
				t.Fatal(err)
			}
			var err error
			if _, st, err = w.Close(); err != nil || st.Spills != 0 {
				t.Fatalf("%d spills, %v: the task is meant to be one run", st.Spills, err)
			}
		}
	}
	var m sortTask
	// The whole task first: while a fresh process's heap is still growing,
	// the first runs it measures take one allocation more.
	m.allocs[1] = testing.AllocsPerRun(5, task(keys))
	m.allocs[0] = testing.AllocsPerRun(5, task(keys[:len(keys)/2]))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		task(keys)()
	}
	runtime.ReadMemStats(&after)
	n := float64(len(keys))
	m.perRec = float64(after.TotalAlloc-before.TotalAlloc) / runs / n
	m.klen, m.vlen = len(keys[0]), len(val)
	m.framed = float64(serde.FramedLen(m.klen, m.vlen))
	m.entry = float64(unsafe.Sizeof(sortEntry{}))
	m.reused = float64(slices.Max(st.PartitionBytes)) / n
	t.Logf("%v / %v allocations, %.1f B per record", m.allocs[0], m.allocs[1], m.perRec)
	return m
}

// TestSortWriterAllocCeiling holds a Write loop into BenchmarkSortWriterRange's
// map task to its allocations and bytes. Per record it may allocate its key
// and value in the arena and its entry, both doubled as they fill with no
// size hint to go by (at this size they allocate 2.15 times what they hold;
// allowed 2.25), the radix sort's spare entry, one framed copy and the
// reused partition buffer's share, plus 4 bytes of page rounding; under none
// the framed copy is the block itself and no buffer is reused.
// Each doubling is one allocation: 47 at 12 500 records, 48 at 25 000. It
// reads 417.3 B per record (430.4 while seal copied each block); with a
// Reserve sizing the run, a fresh buffer per partition and 24-byte entries
// it read 29 allocations and 355.3 B.
func TestSortWriterAllocCeiling(t *testing.T) {
	m := measureSortTask(t, func(w Writer, keys [][]byte, val []byte) error {
		for _, k := range keys {
			if err := w.Write(k, val); err != nil {
				return err
			}
		}
		return nil
	})
	for i, ceiling := range []float64{47, 48} {
		if m.allocs[i] > ceiling {
			t.Errorf("%v allocations, ceiling %v", m.allocs[i], ceiling)
		}
	}
	held := float64(m.klen+m.vlen) + m.entry
	if ceiling := 2.25*held + m.entry + m.framed + m.reused + 4; m.perRec > ceiling {
		t.Errorf("%.1f bytes per record, ceiling %.1f", m.perRec, ceiling)
	}
}

// TestSortWriterBatchAllocCeiling is the same task written as the engine
// writes it, through WriteRecords: the run, sized from the batch, keeps the
// key and not the value, and Close frames the value straight from the
// batch. Per record it may allocate its key, its entry and the spare, one
// framed copy and the reused buffer's share, plus 4 bytes of page
// rounding, in a fixed number of allocations. It reads 25 and 177.7 B (26
// and 190.8 while seal copied each block).
func TestSortWriterBatchAllocCeiling(t *testing.T) {
	m := measureSortTask(t, writeBatch)
	for _, allocs := range m.allocs {
		if allocs > 26 {
			t.Errorf("%v allocations, ceiling 26", allocs)
		}
	}
	if ceiling := float64(m.klen) + 2*m.entry + m.framed + m.reused + 4; m.perRec > ceiling {
		t.Errorf("%.1f bytes per record, ceiling %.1f", m.perRec, ceiling)
	}
}

// blockCeilings pins, in bytes per 100-byte record, what each block case
// allocates to write and close 4 000 records. Fed one batch, a codec-less
// hash writer presizes its eight buffers (102 B of frame per record, plus
// a sixteenth); here two partitions get more than that, and each doubles
// and is trimmed: it reads 188.8. The sort writer adds its run's keys and
// entries. LZ adds the exact-length blocks it returns. A Write loop grows
// each buffer by doubling: 392.6 for the hash writer.
// Before each block was sized up front and sealed without a copy, the hash
// writer read 532 with or without a batch, and the sort writer's batch
// 229. Ceilings are the measured values plus 5 %. Putting seal's copy back
// adds a framed copy of every record under none; growing in append's 1.25x
// steps allocates a Write loop's buffers several times over.
var blockCeilings = map[string]float64{
	"hash/none/spill=false/batch": 198,
	"hash/none/spill=false/loop":  413,
	"hash/none/spill=true/batch":  198,
	"hash/none/spill=true/loop":   413,
	"hash/lz/spill=false/batch":   233,
	"hash/lz/spill=false/loop":    372,
	"hash/lz/spill=true/batch":    233,
	"hash/lz/spill=true/loop":     372,
	"sort/none/spill=false/batch": 197,
	"sort/none/spill=false/loop":  485,
	"sort/none/spill=true/batch":  198,
	"sort/none/spill=true/loop":   494,
	"sort/lz/spill=false/batch":   171,
	"sort/lz/spill=false/loop":    459,
	"sort/lz/spill=true/batch":    172,
	"sort/lz/spill=true/loop":     468,
}

func TestBlockWriteByteCeiling(t *testing.T) {
	keys, vals := wideRecords(4000)
	for _, c := range blockCases() {
		// The least of five runs: a collection during any one empties
		// LZ's scratch pool, and that run allocates it again.
		per := math.Inf(1)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.write(keys, vals); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			per = min(per, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(keys)))
		}
		t.Logf("%-28s %6.1f B per record", c.name, per)
		if ceiling := blockCeilings[c.name]; per > ceiling {
			t.Errorf("%s: %.1f bytes per record, ceiling %.1f", c.name, per, ceiling)
		}
	}
}
