package query_test

import (
	"testing"

	"repro/internal/query"
)

// BenchmarkSQLStar runs the repository benchmark's sql_star workload — its
// eight texts (query.StarQueries) over GenStar at its sizes and planner
// options — one sub-benchmark per query plus all eight in a row, so
// -cpuprofile/-memprofile give the workload's profile without bench/.
func BenchmarkSQLStar(b *testing.B) {
	env := query.NewEnv(testEngine(), nil)
	if err := query.RegisterStar(env, query.GenStar(42, 40_000, 4_000, 200, 365), 4); err != nil {
		b.Fatal(err)
	}
	opts := query.Options{Optimize: true, Parts: 4, BroadcastRows: 10_000}
	suite := query.StarQueries()
	run := func(b *testing.B, queries []query.StarQuery) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				plan, err := env.SQL(q.SQL, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := plan.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for i, q := range suite {
		b.Run(q.ID, func(b *testing.B) { run(b, suite[i:i+1]) })
	}
	b.Run("all", func(b *testing.B) { run(b, suite) })
}
