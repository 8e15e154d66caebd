package table

import (
	"fmt"
	"runtime"
	"testing"
)

// The ceilings below keep per-row boxing and per-row state from creeping
// back into the operators: every input has allocRows rows, enough that what
// a job costs whatever its size — tasks, shuffle blocks, one batch per
// partition, a few thousand allocations in all — stays well under the
// ceiling and any per-row allocation goes well over it. The row-at-a-time
// operators spent 2 to 6 allocations per input row on these plans.
const allocRows = 100_000

func allocsPerRow(t *testing.T, run func() error) float64 {
	t.Helper()
	perRow := testing.AllocsPerRun(2, func() {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}) / allocRows
	t.Logf("%.4f allocations per row", perRow)
	return perRow
}

func groupedRows(n, regions, products int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{fmt.Sprintf("region-%d", i%regions), fmt.Sprintf("product-%d", i/regions%products),
			int64(i % 17), float64(i%1000) / 8}
	}
	return rows
}

func TestGroupByAggAllocBudget(t *testing.T) {
	tb := mustTable(t, testEngine(), salesSchema(), groupedRows(allocRows, 10, 10), 8)
	perRow := allocsPerRow(t, func() error {
		res, err := tb.GroupBy("region", "product").Agg(4, Agg{Op: Sum, Col: "units"}, Agg{Op: Avg, Col: "price"})
		if err != nil {
			return err
		}
		if rows, err := res.Collect(); err != nil || len(rows) != 100 {
			return fmt.Errorf("%d groups, %v", len(rows), err)
		}
		return nil
	})
	if perRow > 0.05 {
		t.Fatalf("%.3f allocations per input row, budget 0.05", perRow)
	}
}

func TestScanFilterAllocCeiling(t *testing.T) {
	eng := testEngine()
	ct, err := BuildColumnar(salesSchema(), salesRows(allocRows, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	preds := []ColPredicate{{Col: 2, Keep: func(v int64) bool { return v > 3 }}}
	perRow := allocsPerRow(t, func() error {
		scan, err := ct.Scan(eng, preds, []int{0, 2, 3}, nil)
		if err != nil {
			return err
		}
		n, err := scan.Filter(func(b *Batch, keep []bool) {
			for i, price := range b.Cols[2].Floats {
				keep[i] = price < 50
			}
		}).Count()
		if n == 0 || n > allocRows/2 {
			return fmt.Errorf("%d rows, %v", n, err)
		}
		return err
	})
	if perRow > 0.02 {
		t.Fatalf("%.3f allocations per scanned row, ceiling 0.02", perRow)
	}
}

func joinAllocTables(t *testing.T) (left, right *Table) {
	eng := testEngine()
	ls := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "tag", Type: String}, {Name: "v", Type: Float64}}}
	rs := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "name", Type: String}}}
	lrows, rrows := make([]Row, allocRows), make([]Row, allocRows/100)
	for i := range lrows {
		lrows[i] = Row{int64(i % (2 * len(rrows))), "row", float64(i) / 4} // half the keys match
	}
	for i := range rrows {
		rrows[i] = Row{int64(i), "dim"}
	}
	return mustTable(t, eng, ls, lrows, 8), mustTable(t, eng, rs, rrows, 2)
}

func TestBroadcastJoinAllocCeiling(t *testing.T) {
	left, right := joinAllocTables(t)
	perRow := allocsPerRow(t, func() error {
		j, err := left.BroadcastJoin(right, "k", "k")
		if err != nil {
			return err
		}
		if n, err := j.Count(); err != nil || n != allocRows/2 {
			return fmt.Errorf("%d rows, %v", n, err)
		}
		return nil
	})
	if perRow > 0.05 {
		t.Fatalf("%.3f allocations per probe row, ceiling 0.05", perRow)
	}
}

// TestJoinAggAllocCeiling bounds what an aggregate over a join allocates
// per match below one gathered int64 column: 640 rows a side on four join
// keys make 102 400 matches in 200 groups. What is left is per row and per
// group. Measured: 4.3 B per match over the shuffle join and 2.7 B over the
// broadcast join (4.5 and 2.9 under -race); building the joined batch
// first, as the commit before JoinGroupBy did, costs 52 B and 77 B.
func TestJoinAggAllocCeiling(t *testing.T) {
	const sideRows, joinKeys = 640, 4
	const pairs = sideRows * sideRows / joinKeys
	eng := testEngine()
	ls := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "g", Type: Int64}, {Name: "v", Type: Float64}}}
	rs := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "w", Type: Float64}}}
	lrows, rrows := make([]Row, sideRows), make([]Row, sideRows)
	for i := range lrows {
		lrows[i], rrows[i] = Row{int64(i % joinKeys), int64(i % 200), float64(i) / 4}, Row{int64(i % joinKeys), float64(i) / 8}
	}
	left, right := mustTable(t, eng, ls, lrows, 4), mustTable(t, eng, rs, rrows, 2)
	for _, joinParts := range []int{4, 0} {
		run := func() {
			res, err := left.JoinGroupBy(right, "k", "k", joinParts, nil, "g").Agg(4, Agg{Op: Count}, Agg{Op: Sum, Col: "w"}, Agg{Op: Avg, Col: "v"})
			if err != nil {
				t.Fatal(err)
			}
			if rows, err := res.Collect(); err != nil || len(rows) != 200 {
				t.Fatalf("%d groups, %v", len(rows), err)
			}
		}
		run()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		perPair := float64(after.TotalAlloc-before.TotalAlloc) / runs / pairs
		t.Logf("join parts %d: %.2f bytes per match", joinParts, perPair)
		if perPair >= 8 {
			t.Errorf("join parts %d: %.2f bytes per match, ceiling 8 (one gathered int64 column)", joinParts, perPair)
		}
	}
}

func TestHashJoinAllocCeiling(t *testing.T) {
	left, right := joinAllocTables(t)
	perRow := allocsPerRow(t, func() error {
		j, err := left.HashJoin(right, "k", "k", 4)
		if err != nil {
			return err
		}
		if n, err := j.Count(); err != nil || n != allocRows/2 {
			return fmt.Errorf("%d rows, %v", n, err)
		}
		return nil
	})
	if perRow > 0.1 {
		t.Fatalf("%.3f allocations per input row, ceiling 0.1", perRow)
	}
}
