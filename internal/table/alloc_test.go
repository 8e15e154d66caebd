package table

import (
	"fmt"
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
