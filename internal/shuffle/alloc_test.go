//go:build !race

// The race detector changes what escapes to the heap, so the ceilings here
// hold only in a plain build.

package shuffle

import (
	"runtime"
	"testing"

	"repro/internal/serde"
)

// TestSortWriterAllocCeiling holds BenchmarkSortWriterRange's map task — a
// Reserved, single-run, range-partitioned Close — to a fixed number of
// allocations, the same at 12 500 records as at 25 000. Per record it may
// allocate its copy in the arena, 48 bytes of entries (the run's and the
// radix sort's spare), the framed blocks (the partition streams and the
// codec's copy of them) and 4 bytes of page rounding. It reads 29
// allocations and 355.3 B per record; sorting 40-byte entries in place,
// with no spare and no partition counts, made 27 and 347.1 B.
func TestSortWriterAllocCeiling(t *testing.T) {
	keys, val := benchRecords(1, 25000)
	cfg := rangeConfig()
	write := func(keys [][]byte) func() {
		return func() {
			w, _ := NewSortWriter(cfg)
			w.Reserve(len(keys), int64(len(keys)*(len(keys[0])+len(val))))
			for _, k := range keys {
				if err := w.Write(k, val); err != nil {
					t.Fatal(err)
				}
			}
			if _, st, err := w.Close(); err != nil || st.Spills != 0 {
				t.Fatalf("%d spills, %v: the task is meant to be one run", st.Spills, err)
			}
		}
	}
	for _, n := range []int{len(keys) / 2, len(keys)} {
		if allocs := testing.AllocsPerRun(5, write(keys[:n])); allocs > 29 {
			t.Errorf("%d records: %v allocations, ceiling 29", n, allocs)
		}
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		write(keys)()
	}
	runtime.ReadMemStats(&after)
	perRec := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(keys))
	framed := serde.FramedLen(len(keys[0]), len(val))
	if ceiling := float64(len(keys[0]) + len(val) + 48 + 2*framed + 4); perRec > ceiling {
		t.Errorf("%.1f bytes per record, ceiling %.0f", perRec, ceiling)
	}
}
