package table

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
)

// bitRows renders rows in order with every float as its bits, so NaN
// payloads and the sign of zero count.
func bitRows(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&b, "f%x ", math.Float64bits(f))
			} else {
				fmt.Fprintf(&b, "%#v ", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// edgeFloats puts NaN, both zeros and both infinities beside values whose
// sums round differently in different orders.
var edgeFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 0.1, 1e16, -2.25}

func joinAggSides(t *testing.T, eng *core.Engine, seed uint64, nl, pl, nr, pr int) (left, right *Table) {
	gen := rng.New(seed)
	side := func(prefix string, n, parts int) *Table {
		s := Schema{Cols: []Col{{Name: "k", Type: Float64}, {Name: prefix + "i", Type: Int64},
			{Name: prefix + "f", Type: Float64}, {Name: prefix + "s", Type: String}}}
		rows := make([]Row, n)
		for i := range rows { // five join keys for any number of rows: duplicates on both sides
			rows[i] = Row{edgeFloats[gen.Intn(5)], int64(gen.Intn(7) - 3), edgeFloats[gen.Intn(len(edgeFloats))], string(rune('a' + gen.Intn(3)))}
		}
		return mustTable(t, eng, s, rows, parts)
	}
	return side("l", nl, pl), side("r", nr, pr)
}

// TestJoinAggMatchesUnfused checks JoinGroupBy against the join it never
// builds: for both strategies, group keys from the left, the right, both
// and the join column, every aggregate operator and float edge values,
// the result — row order and float bits included — and each join
// partition's match count equal HashJoin's or BroadcastJoin's followed by
// GroupBy(...).Agg, also while tasks fail and retry.
func TestJoinAggMatchesUnfused(t *testing.T) {
	keySets := [][]string{
		nil, {"ls"}, {"li", "lf"}, // left only: one lookup per left row
		{"rs"}, {"rf"}, // right only
		{"ls", "rs"}, {"rf", "li"}, // mixed
		{"k"}, {"right_k"}, // the join column
	}
	aggs := []Agg{{Op: Count}, {Op: Sum, Col: "li"}, {Op: Sum, Col: "lf"}, {Op: Sum, Col: "rf"},
		{Op: Avg, Col: "ri"}, {Op: Avg, Col: "lf"}, {Op: Min, Col: "rf"}, {Op: Max, Col: "lf"},
		{Op: Min, Col: "rs"}, {Op: Max, Col: "ls"}, {Op: Min, Col: "k"}, {Op: Max, Col: "ri"}}
	shapes := []struct{ nl, pl, nr, pr int }{
		{60, 3, 40, 2},
		{0, 2, 10, 2}, // empty left
		{10, 3, 0, 1}, // empty right
		{3, 5, 4, 4},  // more partitions than rows
		{80, 4, 1, 1},
	}
	for _, failProb := range []float64{0, 0.3} {
		fab := netsim.NewFabric(topology.TwoTier(2, 2, 2), netsim.RDMA40G)
		cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
		eng := core.NewEngine(core.Config{Cluster: cl, TaskFailProb: failProb, Seed: 11, MaxTaskRetries: 50, RetryBackoff: -1})
		for si, sh := range shapes {
			left, right := joinAggSides(t, eng, uint64(si+1), sh.nl, sh.pl, sh.nr, sh.pr)
			for _, joinParts := range []int{0, 3} { // broadcast, shuffle
				for _, keys := range keySets {
					name := fmt.Sprintf("fail=%v shape=%d join parts=%d keys=%v", failProb, si, joinParts, keys)
					var join *Table
					var err error
					if joinParts == 0 {
						join, err = left.BroadcastJoin(right, "k", "k")
					} else {
						join, err = left.HashJoin(right, "k", "k", joinParts)
					}
					if err != nil {
						t.Fatal(err)
					}
					wantPairs := make([]atomic.Int64, join.Partitions())
					want, err := join.Peek(func(part, n int) { wantPairs[part].Store(int64(n)) }).GroupBy(keys...).Agg(2, aggs...)
					if err != nil {
						t.Fatal(err)
					}
					gotPairs := make([]atomic.Int64, join.Partitions())
					got, err := left.JoinGroupBy(right, "k", "k", joinParts, func(part, n int) { gotPairs[part].Store(int64(n)) }, keys...).Agg(2, aggs...)
					if err != nil {
						t.Fatal(err)
					}
					wantRows, err := want.Collect()
					if err != nil {
						t.Fatal(err)
					}
					gotRows, err := got.Collect()
					if err != nil {
						t.Fatal(err)
					}
					if w, g := bitRows(wantRows), bitRows(gotRows); w != g {
						t.Fatalf("%s: fused\n%s\nunfused\n%s", name, g, w)
					}
					if w, g := fmt.Sprint(loadAll(wantPairs)), fmt.Sprint(loadAll(gotPairs)); w != g {
						t.Fatalf("%s: fused join partitions matched %s, unfused %s", name, g, w)
					}
				}
			}
		}
		if retries := eng.Reg.Counter("task_retries").Value(); (retries > 0) != (failProb > 0) {
			t.Fatalf("fail probability %v: %d task retries", failProb, retries)
		}
	}
}

func loadAll(slots []atomic.Int64) []int64 {
	out := make([]int64, len(slots))
	for i := range slots {
		out[i] = slots[i].Load()
	}
	return out
}
