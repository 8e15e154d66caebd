//go:build !race

// The race detector changes what escapes to the heap, so the ceiling here
// holds only in a normal build.

package query_test

import (
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

// TestPlanStarAllocCeiling pins what planning alone — parse, optimize,
// compile, no execution — allocates for the eight star texts at
// BenchmarkSQLStar's data and options. When the planner derived each
// node's schema and its row estimate in two recursive passes, rerun from
// scratch at almost every node, the suite took 2 224 allocations; when
// pushdown and column demand walked both inputs of every join again for
// their names, 1 228.
func TestPlanStarAllocCeiling(t *testing.T) {
	const ceiling = 1178
	env := query.NewEnv(testEngine(), nil)
	if err := query.RegisterStar(env, query.GenStar(42, 40_000, 4_000, 200, 365), 4); err != nil {
		t.Fatal(err)
	}
	opts := query.Options{Optimize: true, Parts: 4, BroadcastRows: 10_000}
	suite := query.StarQueries()
	got := testing.AllocsPerRun(20, func() {
		for _, q := range suite {
			if _, err := env.SQL(q.SQL, opts); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f allocations to plan the suite", got)
	if got > ceiling {
		t.Fatalf("planning the star suite: %.0f allocations, ceiling %d", got, ceiling)
	}
}

// chainPlan registers a fact table probing k dimensions, each with column
// names of its own and one row fewer than the one before, and returns a
// plan that filters the fact table, joins it to every dimension in a
// left-deep chain, largest first (so the optimizer reverses the chain), and
// selects one fact column and each dimension's name: 2k+3 nodes.
func chainPlan(t *testing.T, k int) (*query.Env, *query.Logical) {
	env := query.NewEnv(testEngine(), nil)
	fact := table.Schema{Cols: []table.Col{{Name: "v", Type: table.Int64}}}
	for i := range k {
		fact.Cols = append(fact.Cols, table.Col{Name: fmt.Sprintf("fk%d", i), Type: table.Int64})
	}
	var rows []table.Row
	for r := range 4 {
		row := table.Row{int64(r)}
		for range k {
			row = append(row, int64(r))
		}
		rows = append(rows, row)
	}
	if err := env.Register("fact", fact, rows, 2); err != nil {
		t.Fatal(err)
	}
	lp := query.Scan("fact").Where(query.Cmp("v", query.Ge, int64(1)))
	out := []string{"v"}
	for i := range k {
		id, name, dim := fmt.Sprintf("id%d", i), fmt.Sprintf("name%d", i), fmt.Sprintf("dim%d", i)
		schema := table.Schema{Cols: []table.Col{{Name: id, Type: table.Int64}, {Name: name, Type: table.String}, {Name: fmt.Sprintf("w%d", i), Type: table.Int64}}}
		var dimRows []table.Row
		for r := range k + 4 - i {
			dimRows = append(dimRows, table.Row{int64(r), fmt.Sprintf("n%d", r), int64(r)})
		}
		if err := env.Register(dim, schema, dimRows, 1); err != nil {
			t.Fatal(err)
		}
		lp = lp.Join(query.Scan(dim), fmt.Sprintf("fk%d", i), id)
		out = append(out, name)
	}
	return env, lp.Project(out, nil)
}

// TestPlanChainAllocsGrowLinearly plans left-deep chains of 8 and 32 joins
// and holds the longer one's allocations to 4.4 times the shorter one's.
// Its plan has 67 nodes to 19, 3.5 times as many; the allocations read
// 3.5 times too (1 589 to 453). When the optimizer walked both inputs of
// every join again for their column names, they read 5.1 times (2 781 to
// 547).
func TestPlanChainAllocsGrowLinearly(t *testing.T) {
	allocs := func(k int) float64 {
		env, lp := chainPlan(t, k)
		opts := query.Options{Optimize: true}
		return testing.AllocsPerRun(20, func() {
			if _, err := env.Build(lp, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(8), allocs(32)
	t.Logf("%.0f allocations for 8 joins, %.0f for 32: %.2f times", short, long, long/short)
	if long > 4.4*short {
		t.Fatalf("planning 32 joins takes %.2f times the allocations of 8 (%.0f to %.0f), ceiling 4.4", long/short, long, short)
	}
}
