package table

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/topology"
)

func testEngine() *core.Engine { return spillingEngine(0) }

// spillingEngine is the test engine with the given shuffle spill
// threshold in bytes (0 = the engine's default).
func spillingEngine(threshold int64) *core.Engine {
	fab := netsim.NewFabric(topology.TwoTier(2, 2, 2), netsim.RDMA40G)
	cl := cluster.New(cluster.Config{Fabric: fab, SlotsPerNode: 2})
	return core.NewEngine(core.Config{Cluster: cl, SpillThreshold: threshold})
}

func salesSchema() Schema {
	return Schema{Cols: []Col{
		{Name: "region", Type: String},
		{Name: "product", Type: String},
		{Name: "units", Type: Int64},
		{Name: "price", Type: Float64},
	}}
}

func salesRows(n int, seed uint64) []Row {
	gen := rng.New(seed)
	regions := []string{"emea", "apac", "amer"}
	products := []string{"widget", "gadget", "doohickey", "gizmo"}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			regions[gen.Intn(len(regions))],
			products[gen.Intn(len(products))],
			int64(1 + gen.Intn(10)),
			float64(gen.Intn(10000)) / 100,
		}
	}
	return rows
}

func mustTable(t *testing.T, eng *core.Engine, schema Schema, rows []Row, parts int) *Table {
	t.Helper()
	tb, err := FromSlice(eng, schema, rows, parts)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestFromSliceValidation(t *testing.T) {
	eng := testEngine()
	schema := salesSchema()
	if _, err := FromSlice(eng, schema, []Row{{"emea", "widget", "oops", 1.0}}, 2); err == nil {
		t.Fatal("wrong-typed row accepted")
	}
	if _, err := FromSlice(eng, schema, []Row{{"emea"}}, 2); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := FromSlice(eng, Schema{}, nil, 2); err == nil {
		t.Fatal("empty schema accepted")
	}
}

func TestCollectAndCount(t *testing.T) {
	eng := testEngine()
	rows := salesRows(100, 1)
	tb := mustTable(t, eng, salesSchema(), rows, 4)
	n, err := tb.Count()
	if err != nil || n != 100 {
		t.Fatalf("count = %d, %v", n, err)
	}
	got, err := tb.Collect()
	if err != nil || len(got) != 100 {
		t.Fatalf("collect = %d rows, %v", len(got), err)
	}
}

func TestSelect(t *testing.T) {
	eng := testEngine()
	tb := mustTable(t, eng, salesSchema(), salesRows(50, 2), 4)
	proj, err := tb.Select("units", "region")
	if err != nil {
		t.Fatal(err)
	}
	if names := proj.Schema().Names(); names[0] != "units" || names[1] != "region" {
		t.Fatalf("schema = %v", names)
	}
	rows, err := proj.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r) != 2 {
			t.Fatalf("row width %d", len(r))
		}
		if _, ok := r[0].(int64); !ok {
			t.Fatal("units not int64 after projection")
		}
	}
	if _, err := tb.Select("nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestWhere(t *testing.T) {
	eng := testEngine()
	tb := mustTable(t, eng, salesSchema(), salesRows(200, 3), 4)
	ui, _ := tb.Schema().MustIndex("units")
	big := tb.Where(func(r Row) bool { return r[ui].(int64) >= 5 })
	rows, err := big.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[ui].(int64) < 5 {
			t.Fatal("filter leaked")
		}
	}
	if len(rows) == 0 || len(rows) == 200 {
		t.Fatalf("filter kept %d of 200", len(rows))
	}
}

func TestWithColumn(t *testing.T) {
	eng := testEngine()
	tb := mustTable(t, eng, salesSchema(), salesRows(50, 4), 2)
	rev, err := tb.WithColumn("revenue", Float64, func(r Row) any {
		return float64(r[2].(int64)) * r[3].(float64)
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := rev.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		want := float64(r[2].(int64)) * r[3].(float64)
		if r[4].(float64) != want {
			t.Fatalf("revenue %v, want %v", r[4], want)
		}
	}
	if _, err := tb.WithColumn("region", String, nil); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestGroupByAgg(t *testing.T) {
	eng := testEngine()
	rows := salesRows(500, 5)
	tb := mustTable(t, eng, salesSchema(), rows, 8)
	res, err := tb.GroupBy("region").Agg(4,
		Agg{Op: Sum, Col: "units"},
		Agg{Op: Count},
		Agg{Op: Min, Col: "price"},
		Agg{Op: Max, Col: "price"},
		Agg{Op: Avg, Col: "units", As: "avg_units"},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Reference aggregation.
	type ref struct {
		sum, count int64
		min, max   float64
	}
	want := map[string]*ref{}
	for _, r := range rows {
		k := r[0].(string)
		w, ok := want[k]
		if !ok {
			w = &ref{min: math.Inf(1), max: math.Inf(-1)}
			want[k] = w
		}
		w.sum += r[2].(int64)
		w.count++
		if p := r[3].(float64); p < w.min {
			w.min = p
		}
		if p := r[3].(float64); p > w.max {
			w.max = p
		}
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %d, want %d", len(got), len(want))
	}
	for _, r := range got {
		k := r[0].(string)
		w := want[k]
		if w == nil {
			t.Fatalf("unexpected group %q", k)
		}
		if r[1].(int64) != w.sum {
			t.Fatalf("%s sum = %v, want %d", k, r[1], w.sum)
		}
		if r[2].(int64) != w.count {
			t.Fatalf("%s count = %v, want %d", k, r[2], w.count)
		}
		if r[3].(float64) != w.min || r[4].(float64) != w.max {
			t.Fatalf("%s min/max = %v/%v, want %v/%v", k, r[3], r[4], w.min, w.max)
		}
		wantAvg := float64(w.sum) / float64(w.count)
		if math.Abs(r[5].(float64)-wantAvg) > 1e-9 {
			t.Fatalf("%s avg = %v, want %v", k, r[5], wantAvg)
		}
	}
	// Output schema names and types.
	names := res.Schema().Names()
	if names[0] != "region" || names[1] != "sum_units" || names[2] != "count" ||
		names[5] != "avg_units" {
		t.Fatalf("output schema = %v", names)
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	eng := testEngine()
	rows := salesRows(300, 6)
	tb := mustTable(t, eng, salesSchema(), rows, 4)
	res, err := tb.GroupBy("region", "product").Agg(4, Agg{Op: Count})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	keys := map[string]bool{}
	for _, r := range got {
		k := r[0].(string) + "|" + r[1].(string)
		if keys[k] {
			t.Fatalf("duplicate group %q", k)
		}
		keys[k] = true
		total += r[2].(int64)
	}
	if total != 300 {
		t.Fatalf("total count %d", total)
	}
}

func TestGroupByRejectsBadSpecs(t *testing.T) {
	eng := testEngine()
	tb := mustTable(t, eng, salesSchema(), salesRows(10, 7), 2)
	if _, err := tb.GroupBy("region").Agg(2, Agg{Op: Sum, Col: "product"}); err == nil {
		t.Fatal("sum over string accepted")
	}
	if _, err := tb.GroupBy("nope").Agg(2, Agg{Op: Count}); err == nil {
		t.Fatal("unknown group key accepted")
	}
	if _, err := tb.GroupBy("region").Agg(2); err == nil {
		t.Fatal("no aggregates accepted")
	}
}

// TestJoinSchemaNamesUnique: a right column re-prefixes until its name is
// unique, whether it collides with a left column, with one the left side
// already carries prefixed, or with an earlier right column.
func TestJoinSchemaNamesUnique(t *testing.T) {
	schema := func(names ...string) Schema {
		var s Schema
		for _, n := range names {
			s.Cols = append(s.Cols, Col{Name: n, Type: Int64})
		}
		return s
	}
	cases := []struct {
		left, right Schema
		want        string
	}{
		{schema("k", "v"), schema("k", "v"), "[k v right_k right_v]"},
		{schema("k", "v", "right_k", "right_v"), schema("k", "v"), "[k v right_k right_v right_right_k right_right_v]"},
		{schema("x", "right_x"), schema("right_x", "x"), "[x right_x right_right_x right_right_right_x]"},
		{schema("x"), schema("x", "right_x"), "[x right_x right_right_x]"},
		{schema("a"), schema("b"), "[a b]"},
	}
	for _, c := range cases {
		got := JoinSchema(c.left, c.right)
		seen := map[string]bool{}
		for _, n := range got.Names() {
			if seen[n] {
				t.Errorf("JoinSchema(%v, %v) names %q twice: %v", c.left.Names(), c.right.Names(), n, got.Names())
			}
			seen[n] = true
		}
		if fmt.Sprint(got.Names()) != c.want {
			t.Errorf("JoinSchema(%v, %v) = %v, want %s", c.left.Names(), c.right.Names(), got.Names(), c.want)
		}
	}
}

func TestHashJoin(t *testing.T) {
	eng := testEngine()
	users, _ := FromSlice(eng, Schema{Cols: []Col{
		{Name: "uid", Type: Int64}, {Name: "name", Type: String},
	}}, []Row{
		{int64(1), "alice"}, {int64(2), "bob"}, {int64(3), "carol"},
	}, 2)
	orders, _ := FromSlice(eng, Schema{Cols: []Col{
		{Name: "uid", Type: Int64}, {Name: "amount", Type: Float64},
	}}, []Row{
		{int64(1), 10.0}, {int64(1), 20.0}, {int64(3), 5.0}, {int64(9), 1.0},
	}, 2)
	joined, err := users.HashJoin(orders, "uid", "uid", 2)
	if err != nil {
		t.Fatal(err)
	}
	names := joined.Schema().Names()
	if fmt.Sprint(names) != "[uid name right_uid amount]" {
		t.Fatalf("join schema = %v", names)
	}
	rows, err := joined.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("joined %d rows, want 3", len(rows))
	}
	total := 0.0
	for _, r := range rows {
		if r[0].(int64) != r[2].(int64) {
			t.Fatal("join key mismatch in output")
		}
		total += r[3].(float64)
	}
	if total != 35 {
		t.Fatalf("joined amounts %v", total)
	}
}

func TestHashJoinTypeMismatch(t *testing.T) {
	eng := testEngine()
	a, _ := FromSlice(eng, Schema{Cols: []Col{{Name: "k", Type: Int64}}}, []Row{{int64(1)}}, 1)
	b, _ := FromSlice(eng, Schema{Cols: []Col{{Name: "k", Type: String}}}, []Row{{"1"}}, 1)
	if _, err := a.HashJoin(b, "k", "k", 1); err == nil {
		t.Fatal("mismatched join types accepted")
	}
}

func TestOrderByAscDesc(t *testing.T) {
	eng := testEngine()
	rows := salesRows(400, 8)
	tb := mustTable(t, eng, salesSchema(), rows, 8)
	for _, desc := range []bool{false, true} {
		res, err := tb.OrderBy("price", desc, 4)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := res.run()
		if err != nil {
			t.Fatal(err)
		}
		var prices []float64
		for _, part := range parts {
			prices = append(prices, part.Cols[3].Floats...)
		}
		if len(prices) != 400 {
			t.Fatalf("ordered %d rows", len(prices))
		}
		for i := 1; i < len(prices); i++ {
			if !desc && prices[i-1] > prices[i] {
				t.Fatalf("asc order broken at %d", i)
			}
			if desc && prices[i-1] < prices[i] {
				t.Fatalf("desc order broken at %d", i)
			}
		}
	}
}

func TestOrderByString(t *testing.T) {
	eng := testEngine()
	tb := mustTable(t, eng, salesSchema(), salesRows(100, 9), 4)
	res, err := tb.OrderBy("product", false, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r[1].(string))
	}
	if !sort.StringsAreSorted(names) {
		t.Fatal("string order broken")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	schema := salesSchema()
	f := func(region, product string, units int64, price float64) bool {
		if math.IsNaN(price) {
			return true
		}
		b := batchFromRows(schema, []Row{{region, product, units, price}}, 0, 1)
		if err := b.decodeRow(schema, b.appendRow(nil, schema, 0)); err != nil {
			return false
		}
		got := make(Row, 4)
		b.readRow(schema, 1, got)
		return got[0] == region && got[1] == product && got[2] == units && got[3] == price
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	// The kitchen sink: derive, filter, join, group, order.
	eng := testEngine()
	sales := mustTable(t, eng, salesSchema(), salesRows(600, 10), 8)
	regions, _ := FromSlice(eng, Schema{Cols: []Col{
		{Name: "region", Type: String}, {Name: "manager", Type: String},
	}}, []Row{
		{"emea", "ada"}, {"apac", "grace"}, {"amer", "katherine"},
	}, 1)

	withRev, err := sales.WithColumn("revenue", Float64, func(r Row) any {
		return float64(r[2].(int64)) * r[3].(float64)
	})
	if err != nil {
		t.Fatal(err)
	}
	joined, err := withRev.HashJoin(regions, "region", "region", 4)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := joined.GroupBy("manager").Agg(2,
		Agg{Op: Sum, Col: "revenue", As: "total"},
		Agg{Op: Count},
	)
	if err != nil {
		t.Fatal(err)
	}
	final, err := grouped.OrderBy("total", true, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := final.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("managers = %d", len(rows))
	}
	var counts int64
	for _, r := range rows {
		counts += r[2].(int64)
	}
	if counts != 600 {
		t.Fatalf("row counts sum to %d", counts)
	}
	// Descending by total.
	if rows[0][1].(float64) < rows[1][1].(float64) || rows[1][1].(float64) < rows[2][1].(float64) {
		t.Fatalf("not ordered by total desc: %v", rows)
	}
}

func BenchmarkGroupByAgg(b *testing.B) {
	eng := testEngine()
	rows := salesRows(20000, 1)
	tb, err := FromSlice(eng, salesSchema(), rows, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tb.GroupBy("region", "product").Agg(4,
			Agg{Op: Sum, Col: "units"}, Agg{Op: Avg, Col: "price"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinDupKeys joins two 10 000-row sides on 2 000 keys, five
// rows a side per key: 50 000 output rows.
func BenchmarkHashJoinDupKeys(b *testing.B) {
	eng := testEngine()
	schema := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "tag", Type: String}, {Name: "v", Type: Float64}}}
	rows := make([]Row, 10000)
	for i := range rows {
		rows[i] = Row{int64(i % 2000), "row", float64(i) / 4}
	}
	left, err := FromSlice(eng, schema, rows, 8)
	if err != nil {
		b.Fatal(err)
	}
	right, err := FromSlice(eng, schema, rows, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := left.HashJoin(right, "k", "k", 4)
		if err != nil {
			b.Fatal(err)
		}
		if n, err := j.Count(); err != nil || n != 50000 {
			b.Fatalf("count = %d, %v", n, err)
		}
	}
}

// BenchmarkColumnarScan scans three of four columns of 20 000 rows under
// one pushed predicate.
func BenchmarkColumnarScan(b *testing.B) {
	eng := testEngine()
	ct, err := BuildColumnar(salesSchema(), salesRows(20000, 1), 8)
	if err != nil {
		b.Fatal(err)
	}
	preds := []ColPredicate{{Col: 2, Keep: func(v int64) bool { return v > 3 }}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := ct.Scan(eng, preds, []int{0, 2, 3}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tb.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}
