package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/topology"
)

// sqlCounters is a snapshot of the columnar-scan pushdown counters;
// they are cumulative per registry, so rows report deltas.
type sqlCounters struct {
	scanned, pruned, decoded, skipped int64
}

func snapSQLCounters(reg *metrics.Registry) sqlCounters {
	return sqlCounters{
		scanned: reg.Counter(table.CtrRowsScanned).Value(),
		pruned:  reg.Counter(table.CtrRowsPruned).Value(),
		decoded: reg.Counter(table.CtrBytesDecoded).Value(),
		skipped: reg.Counter(table.CtrBytesSkipped).Value(),
	}
}

func (a sqlCounters) delta(b sqlCounters) sqlCounters {
	return sqlCounters{
		scanned: a.scanned - b.scanned,
		pruned:  a.pruned - b.pruned,
		decoded: a.decoded - b.decoded,
		skipped: a.skipped - b.skipped,
	}
}

func (a sqlCounters) add(b sqlCounters) sqlCounters {
	return sqlCounters{
		scanned: a.scanned + b.scanned,
		pruned:  a.pruned + b.pruned,
		decoded: a.decoded + b.decoded,
		skipped: a.skipped + b.skipped,
	}
}

// sqlStarEnv loads the star schema into a fresh engine.
func sqlStarEnv(factRows, custN, prodN, parts int) (*query.Env, *core.Engine, error) {
	fab := netsim.NewFabric(topology.TwoTier(2, 4, 2), netsim.RDMA40G)
	cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
	eng := core.NewEngine(core.Config{Cluster: cl})
	env := query.NewEnv(eng, nil)
	if err := query.RegisterStar(env, query.GenStar(7, factRows, custN, prodN, 48), parts); err != nil {
		return nil, nil, err
	}
	return env, eng, nil
}

// joinKinds summarizes a plan's join strategy choices, e.g. "1bc+1sh".
func joinKinds(p *query.Plan) string {
	b := len(p.FindNodes("join[broadcast]"))
	s := len(p.FindNodes("join[shuffle]"))
	switch {
	case b == 0 && s == 0:
		return "-"
	case b == 0:
		return fmt.Sprintf("%dsh", s)
	case s == 0:
		return fmt.Sprintf("%dbc", b)
	default:
		return fmt.Sprintf("%dbc+%dsh", b, s)
	}
}

// ESQLPlanner runs the TPC-derived star-schema suite twice per query —
// naive compilation and cost-based optimization — and diffs both
// against the naive single-process reference evaluator. The decode
// column shows predicate+projection pushdown working: bytes decoded by
// the columnar scans drop from the naive to the optimized plan while
// the outputs stay identical. A final row replays one star query under
// the "crash" chaos preset (a worker killed mid-job and revived later)
// to show the planner's output survives recovery, still oracle-exact.
func ESQLPlanner(p Params) *Table {
	factRows := pick(p.Scale, 800, 8000)
	custN := pick(p.Scale, 60, 400)
	prodN := pick(p.Scale, 25, 80)
	const parts = 4
	// Broadcast threshold scaled to the fact size: dimensions (<= custN
	// rows) stay under it, the half-fact shipments table lands over it —
	// so the suite demonstrates both strategy choices at every scale.
	broadcastRows := int64(factRows / 4)

	t := &Table{
		ID:    "E-SQL",
		Title: "SQL planner: cost-based optimization vs naive plans, differentially checked",
		Note: fmt.Sprintf("star schema, %d-row fact, %d customers, %d products; "+
			"est/actual are optimizer cardinality vs observed output rows; decoded bytes "+
			"compare the naive plan's columnar scans to the optimized plan's; "+
			"every row (both modes) is diffed against the reference evaluator", factRows, custN, prodN),
		Cols: []string{"query", "rows", "joins", "est", "actual", "decoded naive", "decoded opt", "skipped", "oracle"},
	}

	env, _, err := sqlStarEnv(factRows, custN, prodN, parts)
	if err != nil {
		panic(fmt.Sprintf("E-SQL: %v", err))
	}
	reg := env.Reg

	var totNaive, totOpt sqlCounters
	for _, q := range query.StarQueries() {
		run := func(optimize bool) (*query.Plan, []table.Row, sqlCounters, check.Diff) {
			name := "E-SQL/" + q.ID
			if !optimize {
				name += "/naive"
			}
			before := snapSQLCounters(reg)
			plan, err := env.SQL(q.SQL, query.Options{Optimize: optimize, Parts: parts, BroadcastRows: broadcastRows})
			if err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
			rows, err := plan.Execute()
			if err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
			d := t.recordCheck(check.DiffQueryEnv(name, rows, plan.Logical, env))
			return plan, rows, snapSQLCounters(reg).delta(before), d
		}
		_, _, naiveC, naiveDiff := run(false)
		plan, rows, optC, optDiff := run(true)
		totNaive = totNaive.add(naiveC)
		totOpt = totOpt.add(optC)
		verdict := "ok"
		if !naiveDiff.OK || !optDiff.OK {
			verdict = "FAIL"
		}
		t.AddRow(q.ID,
			fmt.Sprintf("%d", len(rows)),
			joinKinds(plan),
			fmt.Sprintf("%.0f", plan.Root.Est),
			fmt.Sprintf("%d", plan.Root.Actual()),
			fmt.Sprintf("%d", naiveC.decoded),
			fmt.Sprintf("%d", optC.decoded),
			fmt.Sprintf("%d", optC.skipped),
			verdict)
	}
	if totOpt.decoded > 0 {
		t.AddObs(fmt.Sprintf("pushdown: decoded %d B naive vs %d B optimized (%.1fx less), %d B skipped undecoded, %d rows zone-pruned",
			totNaive.decoded, totOpt.decoded, float64(totNaive.decoded)/float64(totOpt.decoded), totOpt.skipped, totOpt.pruned))
	}

	// EXPLAIN for the two-dimension star join, post-run: estimated vs
	// actual rows per operator, with the filters fused into the scans.
	explain := query.StarQueries()[3]
	if plan, err := env.SQL(explain.SQL, query.Options{Optimize: true, Parts: parts, BroadcastRows: broadcastRows}); err == nil {
		if _, err := plan.Execute(); err == nil {
			t.AddObs("EXPLAIN " + explain.ID + ":")
			for _, line := range strings.Split(strings.TrimRight(plan.Explain(), "\n"), "\n") {
				t.AddObs(line)
			}
		}
	}

	// Chaos row: the same star join with a worker crashed mid-job and
	// revived later. Lineage recomputation must reproduce the exact
	// relational answer, so the row is oracle-checked like the others.
	chaosEnv, eng, err := sqlStarEnv(factRows, custN, prodN, parts)
	if err != nil {
		panic(fmt.Sprintf("E-SQL/chaos: %v", err))
	}
	sched, err := chaos.Preset("crash", 8)
	if err != nil {
		panic(err)
	}
	ctl := chaos.New(sched, 11, chaos.Targets{Nodes: 8, Compute: eng.Cluster(), Engine: eng}, eng.Reg)
	eng.SetChaos(ctl)
	q := query.StarQueries()[3]
	plan, err := chaosEnv.SQL(q.SQL, query.Options{Optimize: true, Parts: parts, BroadcastRows: broadcastRows})
	if err != nil {
		panic(fmt.Sprintf("E-SQL/chaos: %v", err))
	}
	rows, err := plan.Execute()
	if err != nil {
		panic(fmt.Sprintf("E-SQL/chaos: %v", err))
	}
	job := "E-SQL/" + q.ID + "/chaos-crash"
	diff := t.recordCheck(check.DiffQueryEnv(job, rows, plan.Logical, chaosEnv))
	t.recordFaults(job, ctl)
	t.AddRow(q.ID+"/chaos-crash",
		fmt.Sprintf("%d", len(rows)),
		joinKinds(plan),
		fmt.Sprintf("%.0f", plan.Root.Est),
		fmt.Sprintf("%d", plan.Root.Actual()),
		"-", "-", "-",
		verdictCell(diff))
	t.AddObs(fmt.Sprintf("chaos: %d/%d events applied, retries=%d",
		ctl.Applied(), len(sched), eng.Reg.Counter("task_retries").Value()))
	return t
}
