package query_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/topology"
)

func testEngine() *core.Engine {
	fab := netsim.NewFabric(topology.TwoTier(2, 2, 2), netsim.RDMA40G)
	cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
	return core.NewEngine(core.Config{Cluster: cl})
}

func starEnv(t *testing.T, factRows int) *query.Env {
	t.Helper()
	env := query.NewEnv(testEngine(), nil)
	if err := query.RegisterStar(env, query.GenStar(7, factRows, 60, 25, 48), 4); err != nil {
		t.Fatal(err)
	}
	return env
}

func runSQL(t *testing.T, env *query.Env, sql string, opts query.Options) (*query.Plan, []table.Row) {
	t.Helper()
	plan, err := env.SQL(sql, opts)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, err := plan.Execute()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return plan, rows
}

// TestStarSuiteDifferential runs every E-SQL query with the optimizer
// on and off and checks both against the naive reference evaluator.
func TestStarSuiteDifferential(t *testing.T) {
	env := starEnv(t, 800)
	for _, q := range query.StarQueries() {
		for _, optimize := range []bool{false, true} {
			plan, rows := runSQL(t, env, q.SQL, query.Options{Optimize: optimize})
			d := check.DiffQueryEnv(q.ID, rows, plan.Logical, env)
			if !d.OK {
				t.Errorf("optimize=%v %s: %s\n%s", optimize, q.ID, d, plan.Explain())
			}
		}
	}
}

// TestJoinStrategySelection asserts the cost-based choices the ISSUE
// calls for: broadcast for a small dimension, shuffle for large-large.
func TestJoinStrategySelection(t *testing.T) {
	env := starEnv(t, 800)
	dimJoin := "SELECT prod_category, SUM(units) AS total_units FROM sales JOIN product ON prod_id = prod_id GROUP BY prod_category ORDER BY prod_category"
	plan, _ := runSQL(t, env, dimJoin, query.Options{Optimize: true})
	if n := plan.FindNodes("join[broadcast]"); len(n) != 1 {
		t.Fatalf("small dimension join should broadcast:\n%s", plan.Explain())
	}
	factJoin := "SELECT cust_id, SUM(ship_cost) AS cost FROM sales JOIN shipments ON cust_id = cust_id GROUP BY cust_id ORDER BY cost DESC LIMIT 10"
	plan, _ = runSQL(t, env, factJoin, query.Options{Optimize: true, BroadcastRows: 100})
	if n := plan.FindNodes("join[shuffle]"); len(n) != 1 {
		t.Fatalf("large-large join should shuffle:\n%s", plan.Explain())
	}
	// Optimizer off: always shuffle.
	plan, _ = runSQL(t, env, dimJoin, query.Options{Optimize: false})
	if n := plan.FindNodes("join[broadcast]"); len(n) != 0 {
		t.Fatalf("optimizer off must not broadcast:\n%s", plan.Explain())
	}
}

// TestJoinNamesStayUniqueThroughChains joins three (k, v) tables on k, so
// c's columns collide with a's and with b's prefixed ones and take a second
// prefix. Every query must answer as the reference evaluator does, with the
// optimizer on and off, whether c is smaller than b (a reorder candidate)
// or larger.
func TestJoinNamesStayUniqueThroughChains(t *testing.T) {
	schema := table.Schema{Cols: []table.Col{{Name: "k", Type: table.Int64}, {Name: "v", Type: table.Int64}}}
	rel := func(n, base int) []table.Row {
		var rows []table.Row
		for i := 0; i < n; i++ {
			rows = append(rows, table.Row{int64(i % 4), int64(base + i)})
		}
		return rows
	}
	const from = " FROM a JOIN b ON k = k JOIN c ON k = k"
	for _, sizes := range [][2]int{{12, 6}, {6, 12}} {
		env := query.NewEnv(testEngine(), nil)
		for _, r := range []struct {
			name string
			rows []table.Row
		}{{"a", rel(8, 0)}, {"b", rel(sizes[0], 100)}, {"c", rel(sizes[1], 200)}} {
			if err := env.Register(r.name, schema, r.rows, 2); err != nil {
				t.Fatal(err)
			}
		}
		for _, sql := range []string{"SELECT *" + from, "SELECT right_right_v" + from, "SELECT right_right_k, v" + from} {
			for _, optimize := range []bool{false, true} {
				plan, rows := runSQL(t, env, sql, query.Options{Optimize: optimize})
				if d := check.DiffQueryEnv(sql, rows, plan.Logical, env); !d.OK {
					t.Errorf("sizes %v optimize=%v: %s\n%s", sizes, optimize, d, plan.Explain())
				}
			}
		}
	}
}

// TestPushdownReducesDecode asserts the obs counters show predicate +
// projection pushdown decoding fewer bytes and rows than the naive
// plan for the same query.
func TestPushdownReducesDecode(t *testing.T) {
	sql := "SELECT cust_id, units FROM sales WHERE units >= 8"
	naiveEnv := starEnv(t, 800)
	_, naiveRows := runSQL(t, naiveEnv, sql, query.Options{Optimize: false})
	optEnv := starEnv(t, 800)
	_, optRows := runSQL(t, optEnv, sql, query.Options{Optimize: true})
	if len(naiveRows) != len(optRows) {
		t.Fatalf("row counts diverge: %d vs %d", len(naiveRows), len(optRows))
	}
	naiveDecoded := naiveEnv.Reg.Counter(table.CtrBytesDecoded).Value()
	optDecoded := optEnv.Reg.Counter(table.CtrBytesDecoded).Value()
	if optDecoded >= naiveDecoded {
		t.Fatalf("pushdown decoded %d bytes, naive %d", optDecoded, naiveDecoded)
	}
	if optEnv.Reg.Counter(table.CtrBytesSkipped).Value() == 0 {
		t.Fatal("pushdown skipped no bytes")
	}
	if naiveEnv.Reg.Counter(table.CtrBytesSkipped).Value() != 0 {
		t.Fatal("naive plan should decode everything")
	}
}

// TestResidualColumnsStayOutOfShuffle: a shuffle join over a scan whose
// multi-column residual filter reads units and amount, which nothing above
// the join reads. Pruning inserts a projection above the filter, so only
// cust_id crosses the join's shuffle (7 349 bytes); when a scan passed its
// residual's inputs on with the columns demanded of it, 19 328 bytes did.
func TestResidualColumnsStayOutOfShuffle(t *testing.T) {
	env := starEnv(t, 2000)
	lp := query.Scan("sales").
		Where(query.Or(query.Cmp("units", query.Lt, int64(4)), query.Cmp("amount", query.Gt, 5000.0))).
		Join(query.Scan("customer"), "cust_id", "cust_id").
		GroupBy([]string{"cust_region"}, table.Agg{Op: table.Count})
	plan, err := env.Build(lp, query.Options{Optimize: true, Parts: 4, BroadcastRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if d := check.DiffQueryEnv("residual", rows, lp, env); !d.OK {
		t.Fatalf("%s\n%s", d, plan.Explain())
	}
	if joins := plan.FindNodes("join[shuffle]"); len(joins) != 1 {
		t.Fatalf("want one shuffle join:\n%s", plan.Explain())
	}
	const parent = 19328
	if got := env.Reg.Counter("shuffle_wire_bytes").Value(); got >= parent {
		t.Fatalf("shuffled %d bytes, %d when the residual's inputs crossed the join\n%s", got, parent, plan.Explain())
	}
}

// TestZonePruning: a range predicate on a clustered column prunes
// whole partitions via zone maps.
func TestZonePruning(t *testing.T) {
	env := query.NewEnv(testEngine(), nil)
	schema := table.Schema{Cols: []table.Col{
		{Name: "ts", Type: table.Int64},
		{Name: "v", Type: table.Int64},
	}}
	var rows []table.Row
	for i := 0; i < 400; i++ {
		rows = append(rows, table.Row{int64(i % 4 * 1000), int64(i)})
	}
	if err := env.Register("events", schema, rows, 4); err != nil {
		t.Fatal(err)
	}
	plan, got := runSQL(t, env, "SELECT v FROM events WHERE ts >= 3000", query.Options{Optimize: true})
	if len(got) != 100 {
		t.Fatalf("got %d rows, want 100", len(got))
	}
	if pruned := env.Reg.Counter(table.CtrRowsPruned).Value(); pruned != 300 {
		t.Fatalf("pruned %d rows, want 300\n%s", pruned, plan.Explain())
	}
}

// TestExplainShape: EXPLAIN carries estimates before execution and
// actuals after.
func TestExplainShape(t *testing.T) {
	env := starEnv(t, 400)
	plan, err := env.SQL("SELECT cust_id, units FROM sales WHERE units >= 8", query.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	before := plan.Explain()
	if !strings.Contains(before, "est=") || !strings.Contains(before, "actual=-") {
		t.Fatalf("pre-run explain:\n%s", before)
	}
	if _, err := plan.Execute(); err != nil {
		t.Fatal(err)
	}
	after := plan.Explain()
	if strings.Contains(after, "actual=-") {
		t.Fatalf("post-run explain still has unexecuted nodes:\n%s", after)
	}
	if !strings.Contains(after, "scan sales") {
		t.Fatalf("explain lost the scan:\n%s", after)
	}
	scans := plan.FindNodes("scan")
	if len(scans) != 1 || scans[0].Actual() == 0 {
		t.Fatalf("scan actuals missing:\n%s", after)
	}
}

// TestActualsCountEachPartitionOnce: below a sort, the sampling job is the
// only job that runs the map stages, and fault injection reruns tasks; the
// actuals must come out as if every partition had been computed once.
func TestActualsCountEachPartitionOnce(t *testing.T) {
	q4 := query.StarQueries()[3]
	var runs [][]int64
	for _, failProb := range []float64{0, 0.3} {
		fab := netsim.NewFabric(topology.TwoTier(2, 2, 2), netsim.RDMA40G)
		cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
		eng := core.NewEngine(core.Config{Cluster: cl, TaskFailProb: failProb, Seed: 5, MaxTaskRetries: 50, RetryBackoff: -1})
		env := query.NewEnv(eng, nil)
		if err := query.RegisterStar(env, query.GenStar(7, 800, 60, 25, 48), 4); err != nil {
			t.Fatal(err)
		}
		plan, _ := runSQL(t, env, q4.SQL, query.Options{Optimize: true})
		if retries := eng.Reg.Counter("task_retries").Value(); (retries > 0) != (failProb > 0) {
			t.Fatalf("fail probability %v: %d task retries", failProb, retries)
		}
		runs = append(runs, actuals(plan.Root, nil))

		sales, _ := env.Rows("sales")
		want := int64(0)
		for _, r := range sales {
			if r[3].(int64) >= 3 {
				want++
			}
		}
		if scan := plan.FindNodes("scan")[0]; !strings.HasPrefix(scan.Detail, "sales ") || scan.Actual() != want {
			t.Fatalf("scan %q reports %d rows, %d sales rows have units >= 3\n%s", scan.Detail, scan.Actual(), want, plan.Explain())
		}
	}
	if fmt.Sprint(runs[0]) != fmt.Sprint(runs[1]) {
		t.Fatalf("actuals differ under task failures: clean %v, faulty %v", runs[0], runs[1])
	}
}

// TestJoinReorder: a star join whose big dimension is written first
// gets reordered so the small one joins first.
func TestJoinReorder(t *testing.T) {
	env := starEnv(t, 800)
	// shipments (large) written before product (small): optimizer should
	// join product first. Both probe columns live on the fact table.
	sql := "SELECT prod_category, SUM(ship_cost) AS cost FROM sales JOIN shipments ON cust_id = cust_id JOIN product ON prod_id = prod_id GROUP BY prod_category ORDER BY prod_category"
	plan, rows := runSQL(t, env, sql, query.Options{Optimize: true, BroadcastRows: 100})
	d := check.DiffQueryEnv("reorder", rows, plan.Logical, env)
	if !d.OK {
		t.Fatalf("reordered join diverged: %s\n%s", d, plan.Explain())
	}
	joins := plan.FindNodes("join[broadcast]")
	if len(joins) == 0 {
		t.Fatalf("expected the small product dimension to broadcast after reorder:\n%s", plan.Explain())
	}
	// The product join must sit below the shipments join (deeper in the
	// tree) after reordering: its subtree should not contain the other join.
	var contains func(n *query.Node, kind string) bool
	contains = func(n *query.Node, kind string) bool {
		if n.Kind == kind {
			return true
		}
		for _, c := range n.Children {
			if contains(c, kind) {
				return true
			}
		}
		return false
	}
	shuffles := plan.FindNodes("join[shuffle]")
	if len(shuffles) != 1 {
		t.Fatalf("expected one shuffle join for shipments:\n%s", plan.Explain())
	}
	if contains(joins[0], "join[shuffle]") {
		t.Fatalf("small join should be below the large join after reorder:\n%s", plan.Explain())
	}
}

// TestFluentAPI builds a plan without SQL and checks it against the
// oracle.
func TestFluentAPI(t *testing.T) {
	env := starEnv(t, 400)
	lp := query.Scan("sales").
		Where(query.And(query.Cmp("units", query.Ge, int64(3)), query.Cmp("amount", query.Lt, 5000.0))).
		Join(query.Scan("customer"), "cust_id", "cust_id").
		GroupBy([]string{"cust_region"}, table.Agg{Op: table.Sum, Col: "amount", As: "revenue"}, table.Agg{Op: table.Count}).
		OrderBy("revenue", true)
	plan, err := env.Build(lp, query.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if d := check.DiffQueryEnv("fluent", rows, lp, env); !d.OK {
		t.Fatalf("%s\n%s", d, plan.Explain())
	}
	if len(rows) == 0 {
		t.Fatal("no output rows")
	}
}

// TestParseErrors: malformed queries fail cleanly.
func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT a b FROM t",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a ==",
		"SELECT * FROM t WHERE a = ",
		"SELECT * FROM t LIMIT 5",         // LIMIT without ORDER BY
		"SELECT a FROM t GROUP BY a",      // GROUP BY without aggregates
		"SELECT a, SUM(b) AS s FROM t",    // bare column not grouped
		"SELECT SUM(*) FROM t",            // SUM(*)
		"SELECT COUNT(x) FROM t",          // COUNT(col)
		"SELECT a FROM t ORDER BY b",      // ORDER BY not in select list
		"SELECT * FROM t WHERE a = 'oops", // unterminated string
		"SELECT * FROM t extra",           // trailing tokens
		"SELECT a AS x, b AS x FROM t",    // duplicate aliases surface at Build
	}
	env := starEnv(t, 10)
	for _, sql := range bad {
		if sql == "SELECT a AS x, b AS x FROM t" {
			continue // checked below via Build
		}
		if _, err := query.Parse(sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
	if _, err := env.SQL("SELECT cust_id AS x, units AS x FROM sales", query.Options{}); err == nil {
		t.Error("duplicate aliases accepted")
	}
	if _, err := env.SQL("SELECT nope FROM sales", query.Options{}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := env.SQL("SELECT cust_id FROM nope", query.Options{}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := env.SQL("SELECT cust_id FROM sales WHERE cust_id = 'x'", query.Options{}); err == nil {
		t.Error("type-mismatched literal accepted")
	}
}

// TestEmptyTables: every operator behaves over zero-row inputs.
func TestEmptyTables(t *testing.T) {
	env := query.NewEnv(testEngine(), nil)
	schema := table.Schema{Cols: []table.Col{
		{Name: "k", Type: table.Int64},
		{Name: "v", Type: table.Float64},
	}}
	if err := env.Register("empty", schema, nil, 3); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT * FROM empty",
		"SELECT k FROM empty WHERE v > 1.5",
		"SELECT k, SUM(v) AS s FROM empty GROUP BY k ORDER BY s DESC LIMIT 3",
		"SELECT COUNT(*) AS n, SUM(v) AS s FROM empty",
		"SELECT k FROM empty JOIN empty ON k = k",
	} {
		for _, optimize := range []bool{false, true} {
			plan, rows := runSQL(t, env, sql, query.Options{Optimize: optimize})
			if d := check.DiffQueryEnv(sql, rows, plan.Logical, env); !d.OK {
				t.Errorf("optimize=%v %s: %s", optimize, sql, d)
			}
			if len(rows) != 0 {
				t.Errorf("optimize=%v %s: %d rows from empty input", optimize, sql, len(rows))
			}
		}
	}
}

// TestAnalyzeStats sanity-checks the statistics the optimizer costs
// plans with.
func TestAnalyzeStats(t *testing.T) {
	schema := table.Schema{Cols: []table.Col{
		{Name: "a", Type: table.Int64},
		{Name: "s", Type: table.String},
	}}
	rows := []table.Row{
		{int64(1), "x"}, {int64(2), "x"}, {int64(2), "y"}, {int64(9), "x"},
	}
	st := query.Analyze(schema, rows)
	if st.Rows != 4 {
		t.Fatalf("rows = %d", st.Rows)
	}
	a := st.Cols["a"]
	if a.Distinct != 3 || a.Min.(int64) != 1 || a.Max.(int64) != 9 {
		t.Fatalf("a stats = %+v", a)
	}
	s := st.Cols["s"]
	if s.Distinct != 2 || s.Min.(string) != "x" || s.Max.(string) != "y" {
		t.Fatalf("s stats = %+v", s)
	}
}
