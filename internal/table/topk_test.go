package table

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// topKSchema has one column of each type; topKTable fills it from domains
// small enough that keys tie and whole rows repeat: NaN, both zeros and
// both infinities among the floats, strings holding NUL beside their
// prefixes.
func topKSchema() Schema {
	return Schema{Cols: []Col{{Name: "i", Type: Int64}, {Name: "f", Type: Float64}, {Name: "s", Type: String}}}
}

var topKStrings = []string{"", "a", "a\x00", "a\x00b", "\x00", "\x00\x00", "b"}

// topKTable spreads random rows over five partitions of uneven size, one of
// them empty, and repeats some rows in other partitions.
func topKTable(t *testing.T, seed uint64) (*Table, int) {
	t.Helper()
	gen := rng.New(seed)
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25}
	sizes := []int{7, 0, 13, 1, 4 + gen.Intn(6)}
	parts := make([][]Row, len(sizes))
	for p, n := range sizes {
		for i := 0; i < n; i++ {
			parts[p] = append(parts[p], Row{int64(gen.Intn(5) - 2), floats[gen.Intn(len(floats))], topKStrings[gen.Intn(len(topKStrings))]})
		}
	}
	for _, p := range []int{0, 2, 4} { // a partition's row again, elsewhere
		src := parts[(p+2)%len(parts)]
		if len(src) > 0 {
			parts[p] = append(parts[p], src[gen.Intn(len(src))])
		}
	}
	largest := 0
	for _, rows := range parts {
		largest = max(largest, len(rows))
	}
	tb, err := FromSource(testEngine(), topKSchema(), len(parts), func(part int) []Row { return parts[part] })
	if err != nil {
		t.Fatal(err)
	}
	return tb, largest
}

// TestTopKMatchesOrderByThenHead holds TopK to what it replaces in a query
// plan: OrderByCols, Head(k) on every partition, and the first k rows of
// the concatenation — row for row, float bits included — for every column
// type as the primary key in both directions, with the full column list
// (a total order) and with the primary column alone (ties between
// distinct rows).
func TestTopKMatchesOrderByThenHead(t *testing.T) {
	names := topKSchema().Names()
	for seed := uint64(1); seed <= 6; seed++ {
		tb, largest := topKTable(t, seed)
		total, err := tb.Count()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 3, largest + 1, int(total) + 5} {
			for _, primary := range names {
				full := []string{primary}
				for _, c := range names {
					if c != primary {
						full = append(full, c)
					}
				}
				for _, desc := range []bool{false, true} {
					for _, cols := range [][]string{full, full[:1]} {
						dirs := make([]bool, len(cols))
						dirs[0] = desc
						sorted, err := tb.OrderByCols(cols, dirs, 3)
						if err != nil {
							t.Fatal(err)
						}
						head, err := sorted.Head(k)
						if err != nil {
							t.Fatal(err)
						}
						want, err := head.Collect()
						if err != nil {
							t.Fatal(err)
						}
						want = want[:min(k, len(want))]
						top, err := tb.TopK(cols, dirs, k)
						if err != nil {
							t.Fatal(err)
						}
						got, err := top.Collect()
						if err != nil {
							t.Fatal(err)
						}
						if top.Partitions() != 1 || bitRows(got) != bitRows(want) {
							t.Fatalf("seed %d k=%d cols=%v desc=%v: TopK (%d partitions)\n%s\nOrderByCols+Head\n%s",
								seed, k, cols, desc, top.Partitions(), bitRows(got), bitRows(want))
						}
					}
				}
			}
		}
	}
	tb, _ := topKTable(t, 1)
	if _, err := tb.TopK([]string{"i"}, nil, -1); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := tb.TopK(nil, nil, 3); err == nil {
		t.Fatal("empty column list accepted")
	}
	if _, err := tb.TopK([]string{"i"}, []bool{true, false}, 3); err == nil {
		t.Fatal("desc length mismatch accepted")
	}
}

// TestOrderByOnePartitionSkipsSampling: with one output partition there are
// no split points to find, so OrderByCols runs one job — a map stage and a
// result stage, computing each input partition once — where more output
// partitions add a sampling job that computes the input a second time.
// Both give the same rows in the same order.
func TestOrderByOnePartitionSkipsSampling(t *testing.T) {
	tb, _ := topKTable(t, 9)
	eng := tb.eng
	cols, desc := []string{"f", "s", "i"}, []bool{true, false, false}
	run := func(parts int) (rows []Row, stages, computed int64) {
		var n atomic.Int64
		counted := tb.Peek(func(int, int) { n.Add(1) })
		before := eng.Reg.Counter("stages_run").Value()
		sorted, err := counted.OrderByCols(cols, desc, parts)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err = sorted.Collect(); err != nil {
			t.Fatal(err)
		}
		return rows, eng.Reg.Counter("stages_run").Value() - before, n.Load()
	}
	one, stages, computed := run(1)
	if stages != 2 || computed != int64(tb.Partitions()) {
		t.Fatalf("one output partition: %d stages, input computed %d times over %d partitions; want 2 and %d", stages, computed, tb.Partitions(), tb.Partitions())
	}
	two, stages, computed := run(2)
	if stages != 3 || computed != 2*int64(tb.Partitions()) {
		t.Fatalf("two output partitions: %d stages, input computed %d times; want 3 and %d", stages, computed, 2*tb.Partitions())
	}
	if bitRows(one) != bitRows(two) {
		t.Fatalf("one partition\n%s\ntwo partitions\n%s", bitRows(one), bitRows(two))
	}
}
