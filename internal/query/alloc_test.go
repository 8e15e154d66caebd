//go:build !race

// The race detector changes what escapes to the heap, so the ceiling here
// holds only in a normal build.

package query_test

import (
	"testing"

	"repro/internal/query"
)

// TestPlanStarAllocCeiling pins what planning alone — parse, optimize,
// compile, no execution — allocates for the eight star texts at
// BenchmarkSQLStar's data and options. When the planner derived each
// node's schema and its row estimate in two recursive passes, rerun from
// scratch at almost every node, the suite took 2 224 allocations.
func TestPlanStarAllocCeiling(t *testing.T) {
	const ceiling = 1228
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
