package query_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"regexp"
	"testing"

	"repro/internal/check"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/table"
)

// fingerprint digests the rows' canonical form in order.
func fingerprint(rows []table.Row) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(check.FormatRow(r)))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// pinnedCounters are the engine and scan counters a query may not move.
var pinnedCounters = []string{
	"shuffle_wire_bytes", "shuffle_records_written",
	table.CtrRowsScanned, table.CtrRowsPruned, table.CtrRowsOut,
	table.CtrBytesDecoded, table.CtrBytesSkipped, table.CtrPredEvals,
}

func counterValues(env *query.Env) []int64 {
	out := make([]int64, len(pinnedCounters))
	for i, name := range pinnedCounters {
		out[i] = env.Reg.Counter(name).Value()
	}
	return out
}

func actuals(n *query.Node, into []int64) []int64 {
	into = append(into, n.Actual())
	for _, c := range n.Children {
		into = actuals(c, into)
	}
	return into
}

// starPin is what one star query answered and moved on the row-at-a-time
// implementation (the commit before typed column batches): the ordered
// result fingerprint, the deltas of pinnedCounters, and every node's actual
// row count depth-first — 0 where that implementation lost the count of a
// subtree below a shuffle under a sort.
type starPin struct {
	print    uint64
	counters [8]int64
	actuals  []int64
}

// The bytes decoded and skipped (counters 6 and 7) were re-pinned, and
// nothing else moved, when int columns were bit-packed and float columns
// stored fixed-width: optimized, q1–q8 decoded 10872, 38740, 8498, 48321,
// 26226, 15942, 40082, 42752 and skipped 40082, 12214, 42931, 4548,
// 46170, 36660, 10872, 8202 bytes; naive, q1–q8 decoded 50954, 50954,
// 51429, 52869, 72396, 52602, 101908, 50954.
var starPins = map[bool][]starPin{
	true: {
		{0x5abf56858247231f, [8]int64{0, 0, 4000, 0, 1195, 6780, 38792, 4000}, []int64{1195, 1195}},
		// Re-pinned, with q4, q5 and q7, when ORDER BY … LIMIT became one
		// topk node: only each partition's first k rows cross one
		// single-partition shuffle, no sampling job recomputes the input (q7
		// scanned sales twice), and the topk node's actual is the k rows it
		// returns. Was {37542, 1867, …} and actuals {40, 400, 400, 400, 0}.
		{0xe35b264574b28c4f, [8]int64{27522, 1507, 4000, 0, 4000, 36652, 8920, 0}, []int64{10, 400, 400, 4000}},
		{0x57d40fe08cf6a3ce, [8]int64{339, 25, 4080, 0, 4080, 6008, 39971, 0}, []int64{5, 5, 5, 0, 0, 80}},
		// Was {2686, 100, …} and actuals {20, 20, 20, 20, 0, 0, 0, 0, 69, 400}.
		{0xd86e0f7c3e2a3763, [8]int64{2350, 92, 4480, 0, 3684, 43371, 3676, 4029}, []int64{5, 20, 20, 2766, 2766, 2766, 3215, 69, 400}},
		// Was {74416, 6798, …} and actuals {40, 399, 399, 399, 0, 0, 0}.
		{0x9e30224fbb1784e, [8]int64{64426, 6439, 6000, 0, 6000, 22980, 43008, 0}, []int64{10, 399, 399, 19972, 4000, 2000}},
		{0xcb7342e9ef53a57b, [8]int64{354, 15, 4436, 12, 4412, 10579, 36217, 9}, []int64{3, 3, 3, 0, 0, 0, 12, 400}},
		// Was {44263, 1223, 8000, 0, 8000, 80164, 21744, 0} and actuals {80, 1223, 1223, 1223}.
		{0xd8d4d2f953aefa95, [8]int64{2898, 80, 4000, 0, 4000, 37792, 7780, 0}, []int64{20, 1223, 1223}},
		{0x95b1258db35ceae5, [8]int64{64, 4, 4000, 0, 3909, 38792, 6780, 4000}, []int64{1, 1, 3909}},
	},
	false: {
		{0x5abf56858247231f, [8]int64{0, 0, 4000, 0, 4000, 45572, 0, 0}, []int64{1195, 1195, 4000}},
		{0xe35b264574b28c4f, [8]int64{37542, 1867, 4000, 0, 4000, 45572, 0, 0}, []int64{40, 400, 400, 400, 0}},
		{0x57d40fe08cf6a3ce, [8]int64{70393, 4104, 4080, 0, 4080, 45979, 0, 0}, []int64{5, 5, 5, 0, 0, 0}},
		{0xd86e0f7c3e2a3763, [8]int64{222522, 8572, 4480, 0, 4480, 47047, 0, 0}, []int64{20, 20, 20, 20, 0, 0, 0, 0, 0, 0}},
		{0x9e30224fbb1784e, [8]int64{129231, 6798, 6000, 0, 6000, 65988, 0, 0}, []int64{40, 399, 399, 399, 0, 0, 0}},
		{0xcb7342e9ef53a57b, [8]int64{169384, 8463, 4448, 0, 4448, 46796, 0, 0}, []int64{3, 3, 3, 0, 0, 0, 0, 0, 0}},
		{0xd8d4d2f953aefa95, [8]int64{44263, 1223, 8000, 0, 8000, 91144, 0, 0}, []int64{80, 1223, 1223, 1223, 4000}},
		{0x95b1258db35ceae5, [8]int64{64, 4, 4000, 0, 4000, 45572, 0, 0}, []int64{1, 1, 3909, 4000}},
	},
}

// TestStarSuiteIdentity runs the benchmark's eight texts, optimized and
// naive, and pins results (row order included), shuffle traffic and scan
// counters to the parent's. Actual row counts the parent printed non-zero
// are unchanged; where a scan runs once and feeds no residual filter, the
// scans' actuals add up to the rows the scans emitted.
func TestStarSuiteIdentity(t *testing.T) {
	for _, optimize := range []bool{true, false} {
		env := query.NewEnv(testEngine(), nil)
		if err := query.RegisterStar(env, query.GenStar(42, 4000, 400, 80, 48), 4); err != nil {
			t.Fatal(err)
		}
		for i, q := range query.StarQueries() {
			pin := starPins[optimize][i]
			before := counterValues(env)
			plan, rows := runSQL(t, env, q.SQL, query.Options{Optimize: optimize, Parts: 4, BroadcastRows: 1000})
			var delta [8]int64
			for k, v := range counterValues(env) {
				delta[k] = v - before[k]
			}
			if p := fingerprint(rows); p != pin.print || delta != pin.counters {
				t.Errorf("optimize=%v %s: print %#x counters %v, pinned %#x %v", optimize, q.ID, p, delta, pin.print, pin.counters)
			}
			got := actuals(plan.Root, nil)
			for k, want := range pin.actuals {
				if k >= len(got) || got[k] == 0 || (want != 0 && got[k] != want) {
					t.Errorf("optimize=%v %s: actuals %v, parent's %v\n%s", optimize, q.ID, got, pin.actuals, plan.Explain())
					break
				}
			}
			var scanned int64
			for _, n := range plan.FindNodes("scan") {
				scanned += n.Actual()
			}
			if rowsOut := delta[4]; optimize && q.ID != "q7_residual_or" && scanned != rowsOut {
				t.Errorf("%s: scan actuals sum to %d, scans emitted %d rows\n%s", q.ID, scanned, rowsOut, plan.Explain())
			}
		}
	}
}

// TestStarExplainIdentity pins what EXPLAIN prints for the eight star
// queries, optimized and executed — tree, kinds, details, est and actual —
// to the hash of the parent's text, recorded when every join still built
// its joined batch and re-recorded (was 0xd8b7d351fd72ebd4) when each
// ORDER BY … LIMIT became one topk node in place of its limit and sort.
// E-SQL prints these lines.
func TestStarExplainIdentity(t *testing.T) {
	env := query.NewEnv(testEngine(), nil)
	if err := query.RegisterStar(env, query.GenStar(42, 4000, 400, 80, 48), 4); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var text string
	for _, q := range query.StarQueries() {
		plan, _ := runSQL(t, env, q.SQL, query.Options{Optimize: true, Parts: 4, BroadcastRows: 1000})
		text += plan.Explain()
	}
	if h.Write([]byte(text)); h.Sum64() != 0xe56c505328aa172d {
		t.Fatalf("EXPLAIN hash %#x, parent's 0xe56c505328aa172d:\n%s", h.Sum64(), text)
	}
}

// TestPlanShapesPinned pins what EXPLAIN prints before execution, actual
// rows left out, for the naive and the optimized plan of every
// FuzzPlanEquivalence seed and of 500 inputs drawn from fixed seeds, each
// plan joining at most once, to the hash of the parent's text.
func TestPlanShapesPinned(t *testing.T) {
	inputs := append([][]byte(nil), planSeeds...)
	r := rng.New(44)
	for i := 0; i < 500; i++ {
		data := make([]byte, 400)
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		inputs = append(inputs, data)
	}
	actual := regexp.MustCompile(` actual=\S*`)
	h := fnv.New64a()
	for _, data := range inputs {
		env, lp, g := fuzzPlan(t, data, 1)
		for _, optimize := range []bool{false, true} {
			plan, err := env.Build(lp, query.Options{Optimize: optimize, BroadcastRows: int64(g.intn(2) * 1000)})
			if err != nil {
				t.Fatalf("build optimize=%v: %v", optimize, err)
			}
			h.Write([]byte(actual.ReplaceAllString(plan.Explain(), "")))
		}
	}
	if h.Sum64() != 0x83ba87e23e97327c {
		t.Fatalf("EXPLAIN hash %#x, parent's 0x83ba87e23e97327c", h.Sum64())
	}
}

// floatEdgeEnv registers two small tables whose float columns hold NaN,
// both zeros and both infinities next to ordinary values.
func floatEdgeEnv(t *testing.T) *query.Env {
	t.Helper()
	edge := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25, 1.5}
	env := query.NewEnv(testEngine(), nil)
	es := table.Schema{Cols: []table.Col{
		{Name: "k", Type: table.Float64}, {Name: "v", Type: table.Float64},
		{Name: "s", Type: table.String}, {Name: "i", Type: table.Int64},
	}}
	var rows []table.Row
	for i := 0; i < 48; i++ {
		rows = append(rows, table.Row{edge[i%len(edge)], edge[(i/3)%len(edge)], string(rune('a' + i%3)), int64(i % 5)})
	}
	if err := env.Register("e", es, rows, 3); err != nil {
		t.Fatal(err)
	}
	ds := table.Schema{Cols: []table.Col{{Name: "dk", Type: table.Float64}, {Name: "name", Type: table.String}}}
	var dims []table.Row
	for i, f := range edge[:6] {
		dims = append(dims, table.Row{f, fmt.Sprintf("d%d", i)})
	}
	if err := env.Register("d", ds, dims, 2); err != nil {
		t.Fatal(err)
	}
	return env
}

// floatEdgeModes: optimized with broadcast joins, optimized with shuffle
// joins only, naive.
var floatEdgeModes = []query.Options{
	{Optimize: true, Parts: 3, BroadcastRows: 1000},
	{Optimize: true, Parts: 3, BroadcastRows: -1},
	{Parts: 3},
}

// TestFloatEdgeIdentity pins NaN, both zeros and both infinities in every
// position a float can take — predicate operand, join key, group key,
// MIN/MAX/SUM/AVG input, sort key — to the parent's answers, and to the
// reference evaluator's wherever the parent agreed with it.
func TestFloatEdgeIdentity(t *testing.T) {
	operands := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	var preds []*query.Logical
	for op := query.Eq; op <= query.Ge; op++ {
		for _, x := range operands {
			// Two columns, so the optimizer leaves a residual as well.
			preds = append(preds, query.Scan("e").Where(query.Or(query.Cmp("v", op, x), query.Cmp("i", query.Eq, int64(4)))))
			preds = append(preds, query.Scan("e").Where(query.Cmp("k", op, x)))
		}
	}
	cases := []struct {
		name  string
		plans []*query.Logical
		// Recorded on the row-at-a-time implementation, per mode: fingerprint
		// over all plans' rows, and how many plans check.ReferenceQuery
		// disagreed with. Two rows were re-pinned when two wrong answers
		// were fixed, and every count is 0 since.
		print    [3]uint64
		disagree [3]int
	}{
		// Re-pinned: optimized, 4 of the 48 plans used to lose rows (print
		// 0xf5ff937ae5662fb3) — a chunk whose first value was NaN got a NaN
		// zone map, and < and > pruned on it. Zone maps now leave NaN out,
		// and the optimized plans answer what the naive plan always did.
		{"predicate operand", preds, [3]uint64{0xfd59d9b59890bcff, 0xfd59d9b59890bcff, 0xfd59d9b59890bcff}, [3]int{}},
		{"join key", []*query.Logical{query.Scan("e").Join(query.Scan("d"), "k", "dk")},
			[3]uint64{0xc5937132fa580959, 0xeda1457e42261261, 0xeda1457e42261261}, [3]int{}},
		{"group key", []*query.Logical{query.Scan("e").GroupBy([]string{"k"},
			table.Agg{Op: table.Count}, table.Agg{Op: table.Sum, Col: "i"})},
			[3]uint64{0xf40dd2d4ea221753, 0xf40dd2d4ea221753, 0xf40dd2d4ea221753}, [3]int{}},
		{"min/max input", []*query.Logical{query.Scan("e").GroupBy([]string{"s"},
			table.Agg{Op: table.Min, Col: "v"}, table.Agg{Op: table.Max, Col: "v"},
			table.Agg{Op: table.Sum, Col: "v"}, table.Agg{Op: table.Avg, Col: "v"})},
			// Re-pinned: MIN/MAX compared with < and >, which skip NaN and tie
			// the zeros (print 0x8468526a1591c68f, one plan off the reference);
			// they now use the sort key's total order, as the reference does.
			[3]uint64{0xfe78e1c48d313a84, 0xfe78e1c48d313a84, 0xfe78e1c48d313a84}, [3]int{}},
		{"sort key", []*query.Logical{query.Scan("e").OrderBy("v", false), query.Scan("e").OrderBy("k", true).Limit(7)},
			[3]uint64{0x2e099f5d86dbcfa9, 0x2e099f5d86dbcfa9, 0x2e099f5d86dbcfa9}, [3]int{}},
	}
	for _, c := range cases {
		for m, opts := range floatEdgeModes {
			env := floatEdgeEnv(t)
			var all []table.Row
			disagree := 0
			for _, lp := range c.plans {
				plan, err := env.Build(lp, opts)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := plan.Execute()
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, rows...)
				if !check.DiffQueryEnv(c.name, rows, lp, env).OK {
					disagree++
				}
			}
			if p := fingerprint(all); p != c.print[m] || disagree != c.disagree[m] {
				t.Errorf("%s mode %d: print %#x, oracle disagrees on %d plans, pinned %#x %d", c.name, m, p, disagree, c.print[m], c.disagree[m])
			}
		}
	}
}
