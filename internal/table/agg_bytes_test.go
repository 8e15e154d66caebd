//go:build !race

// The race detector changes what escapes to the heap, so the ceiling here
// holds only in a plain build.

package table

import (
	"math"
	"runtime"
	"testing"
)

// aggTableCeiling pins, in bytes per group, what grouping 20 000 distinct
// Int64 keys through one map task and one reduce task allocates with COUNT
// and SUM over a Float64 column: two key tables (the map side's typed, a
// key, a hash and slot ids per group; the reduce side's on bytes, a span, a
// hash, slot ids and the arena; all grown by doubling), the map side's
// sortable keys (8 bytes per group, encoded once at emit), two state tables
// (an int64 and a float64 per group, grown in step with the key table), the
// shuffle block and its index, the sort order and the output columns. It
// reads 365.4. With an 8-byte end offset per group beside each numeric
// sortable key, it read 373.6 (ceiling 392). With the map side on bytes too,
// as before it numbered the key column by its type, it read 383.4 (ceiling
// 403); a 40-byte slot per group and aggregate grown by append's steps, as
// before the state moved into typed vectors, read 1174; a 24-byte slice
// header per key instead of its span read 506. The ceiling is the measured
// value plus 5 %.
const aggTableCeiling = 384

func TestAggTableByteCeiling(t *testing.T) {
	const groups = 20_000
	schema := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "v", Type: Float64}}}
	rows := make([]Row, groups)
	for i := range rows {
		rows[i] = Row{int64(i*7919) % groups, float64(i) / 4}
	}
	tb := mustTable(t, testEngine(), schema, rows, 1)
	run := func() {
		res, err := tb.GroupBy("k").Agg(1, Agg{Op: Count}, Agg{Op: Sum, Col: "v"})
		if err != nil {
			t.Fatal(err)
		}
		batches, err := res.run()
		if err != nil {
			t.Fatal(err)
		}
		if n := batches[0].n; len(batches) != 1 || n != groups {
			t.Fatalf("%d batches, %d groups; want 1 and %d", len(batches), n, groups)
		}
	}
	run()
	per := math.Inf(1) // the least of five runs: a collection may land in any one
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		per = min(per, float64(after.TotalAlloc-before.TotalAlloc)/groups)
	}
	t.Logf("%.1f bytes per group", per)
	if per > aggTableCeiling {
		t.Errorf("%.1f bytes per group, ceiling %d", per, aggTableCeiling)
	}
}
