package table

// Edge cases the query planner exercises: empty partitions, one-sided
// and all-duplicate joins, parts=1 plans, OrderBy with fewer sampled
// keys than partitions, broadcast joins, Head and Renamed.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

func TestEmptyTableOps(t *testing.T) {
	eng := testEngine()
	empty := mustTable(t, eng, salesSchema(), nil, 4)
	n, err := empty.Count()
	if err != nil || n != 0 {
		t.Fatalf("count = %d, %v", n, err)
	}
	sorted, err := empty.OrderBy("price", false, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sorted.Collect()
	if err != nil || len(rows) != 0 {
		t.Fatalf("sorted empty = %d rows, %v", len(rows), err)
	}
	agg, err := empty.GroupBy("region").Agg(2, Agg{Op: Count})
	if err != nil {
		t.Fatal(err)
	}
	rows, err = agg.Collect()
	if err != nil || len(rows) != 0 {
		t.Fatalf("agg over empty = %d rows, %v", len(rows), err)
	}
}

func TestPartsOne(t *testing.T) {
	eng := testEngine()
	rows := salesRows(60, 21)
	tb, err := FromSlice(eng, salesSchema(), rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Partitions() != 1 {
		t.Fatalf("partitions = %d", tb.Partitions())
	}
	res, err := tb.GroupBy("region").Agg(1, Agg{Op: Sum, Col: "units"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Collect()
	if err != nil || len(got) == 0 {
		t.Fatalf("agg with parts=1: %d rows, %v", len(got), err)
	}
	sorted, err := tb.OrderBy("units", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	srows, err := sorted.Collect()
	if err != nil || len(srows) != 60 {
		t.Fatalf("sort with parts=1: %d rows, %v", len(srows), err)
	}
}

func TestJoinEmptySides(t *testing.T) {
	eng := testEngine()
	schema := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "v", Type: String}}}
	full := mustTable(t, eng, schema, []Row{{int64(1), "a"}, {int64(2), "b"}}, 2)
	empty := mustTable(t, eng, schema, nil, 2)
	for name, pair := range map[string][2]*Table{
		"left-empty":  {empty, full},
		"right-empty": {full, empty},
		"both-empty":  {empty, empty},
	} {
		j, err := pair[0].HashJoin(pair[1], "k", "k", 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := j.Collect()
		if err != nil || len(rows) != 0 {
			t.Fatalf("%s: %d rows, %v", name, len(rows), err)
		}
		b, err := pair[0].BroadcastJoin(pair[1], "k", "k")
		if err != nil {
			t.Fatalf("%s broadcast: %v", name, err)
		}
		rows, err = b.Collect()
		if err != nil || len(rows) != 0 {
			t.Fatalf("%s broadcast: %d rows, %v", name, len(rows), err)
		}
	}
}

func TestJoinAllDuplicateKeys(t *testing.T) {
	eng := testEngine()
	schema := Schema{Cols: []Col{{Name: "k", Type: Int64}, {Name: "v", Type: Int64}}}
	var lrows, rrows []Row
	for i := 0; i < 20; i++ {
		lrows = append(lrows, Row{int64(7), int64(i)})
	}
	for i := 0; i < 15; i++ {
		rrows = append(rrows, Row{int64(7), int64(100 + i)})
	}
	left := mustTable(t, eng, schema, lrows, 3)
	right := mustTable(t, eng, schema, rrows, 3)
	for name, join := range map[string]func() (*Table, error){
		"hash":      func() (*Table, error) { return left.HashJoin(right, "k", "k", 4) },
		"broadcast": func() (*Table, error) { return left.BroadcastJoin(right, "k", "k") },
	} {
		j, err := join()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := j.Collect()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != 20*15 {
			t.Fatalf("%s: cross product = %d rows, want 300", name, len(rows))
		}
	}
}

func TestBroadcastJoinMatchesHashJoin(t *testing.T) {
	eng := testEngine()
	sales := mustTable(t, eng, salesSchema(), salesRows(200, 31), 4)
	dims, _ := FromSlice(eng, Schema{Cols: []Col{
		{Name: "region", Type: String}, {Name: "manager", Type: String},
	}}, []Row{{"emea", "ada"}, {"apac", "grace"}}, 1) // amer intentionally missing
	h, err := sales.HashJoin(dims, "region", "region", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sales.BroadcastJoin(dims, "region", "region")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Schema().Names(), h.Schema().Names(); len(got) != len(want) {
		t.Fatalf("schemas differ: %v vs %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("schemas differ: %v vs %v", got, want)
			}
		}
	}
	hr, err := h.Collect()
	if err != nil {
		t.Fatal(err)
	}
	br, err := b.Collect()
	if err != nil {
		t.Fatal(err)
	}
	count := func(rows []Row) map[string]int {
		m := map[string]int{}
		for _, r := range rows {
			m[fmt.Sprintf("%q", []any(r))]++
		}
		return m
	}
	hm, bm := count(hr), count(br)
	if len(hm) != len(bm) {
		t.Fatalf("distinct rows %d vs %d", len(hm), len(bm))
	}
	for k, n := range hm {
		if bm[k] != n {
			t.Fatalf("multiset mismatch on %q: %d vs %d", k, n, bm[k])
		}
	}
	if eng.Reg.Counter("broadcast_bytes").Value() == 0 {
		t.Fatal("broadcast join charged no broadcast bytes")
	}
}

func TestOrderByFewerSamplesThanParts(t *testing.T) {
	eng := testEngine()
	// 3 rows, 8 requested partitions: sampled split points < parts.
	rows := []Row{
		{"emea", "widget", int64(3), 1.0},
		{"apac", "widget", int64(1), 2.0},
		{"amer", "widget", int64(2), 3.0},
	}
	tb := mustTable(t, eng, salesSchema(), rows, 2)
	sorted, err := tb.OrderBy("units", false, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sorted.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("sorted %d rows", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1][2].(int64) > got[i][2].(int64) {
			t.Fatal("order broken")
		}
	}
}

func TestOrderByColsTiebreak(t *testing.T) {
	eng := testEngine()
	rows := []Row{
		{"emea", "b", int64(1), 1.0},
		{"emea", "a", int64(1), 1.0},
		{"apac", "c", int64(1), 2.0},
		{"apac", "a", int64(2), 2.0},
	}
	tb := mustTable(t, eng, salesSchema(), rows, 2)
	sorted, err := tb.OrderByCols([]string{"units", "product"}, []bool{true, false}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sorted.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("%d rows", len(got))
	}
	// units desc first, then product asc within ties.
	if got[0][2].(int64) != 2 {
		t.Fatalf("primary desc broken: %v", got)
	}
	if got[1][1].(string) != "a" || got[2][1].(string) != "b" || got[3][1].(string) != "c" {
		t.Fatalf("tiebreak broken: %v", got)
	}
	if _, err := tb.OrderByCols(nil, nil, 2); err == nil {
		t.Fatal("empty column list accepted")
	}
	if _, err := tb.OrderByCols([]string{"units"}, []bool{true, false}, 2); err == nil {
		t.Fatal("desc length mismatch accepted")
	}
}

func TestHeadAndRenamed(t *testing.T) {
	eng := testEngine()
	tb := mustTable(t, eng, salesSchema(), salesRows(100, 41), 4)
	h, err := tb.Head(5)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := h.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) > 4*5 {
		t.Fatalf("head kept %d rows across 4 partitions", len(rows))
	}
	if _, err := tb.Head(-1); err == nil {
		t.Fatal("negative head accepted")
	}
	rn, err := tb.Renamed(map[string]string{"units": "qty"})
	if err != nil {
		t.Fatal(err)
	}
	if rn.Schema().Index("qty") != 2 || rn.Schema().Index("units") != -1 {
		t.Fatalf("rename schema = %v", rn.Schema().Names())
	}
	if _, err := tb.Renamed(map[string]string{"nope": "x"}); err == nil {
		t.Fatal("rename of unknown column accepted")
	}
	if _, err := tb.Renamed(map[string]string{"units": "region"}); err == nil {
		t.Fatal("rename collision accepted")
	}
}

func TestColumnarScanPushdown(t *testing.T) {
	eng := testEngine()
	rows := salesRows(400, 51)
	ct, err := BuildColumnar(salesSchema(), rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Partitions() != 4 {
		t.Fatalf("columnar shape: parts=%d", ct.Partitions())
	}

	// Full scan: everything decodes.
	full := metrics.NewRegistry()
	all, err := ct.Scan(eng, nil, nil, full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := all.Collect()
	if err != nil || len(got) != 400 {
		t.Fatalf("full scan = %d rows, %v", len(got), err)
	}
	if full.Counter(CtrBytesSkipped).Value() != 0 {
		t.Fatalf("full scan skipped %d bytes", full.Counter(CtrBytesSkipped).Value())
	}

	// Pushed predicate + projection: units >= 5, only region out.
	reg := metrics.NewRegistry()
	pred := ColPredicate{
		Col:  2,
		Keep: func(v int64) bool { return v >= 5 },
		SkipAll: func(min, max any) bool {
			return max.(int64) < 5
		},
	}
	scan, err := ct.Scan(eng, []ColPredicate{pred}, []int{0}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if names := scan.Schema().Names(); len(names) != 1 || names[0] != "region" {
		t.Fatalf("scan schema = %v", names)
	}
	prows, err := scan.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range rows {
		if r[2].(int64) >= 5 {
			want++
		}
	}
	if len(prows) != want {
		t.Fatalf("pushdown kept %d rows, want %d", len(prows), want)
	}
	if reg.Counter(CtrRowsOut).Value() != int64(want) {
		t.Fatalf("rows_out counter = %d, want %d", reg.Counter(CtrRowsOut).Value(), want)
	}
	// product and price chunks must never decode.
	if reg.Counter(CtrBytesSkipped).Value() == 0 {
		t.Fatal("projection pushdown skipped no bytes")
	}
	if reg.Counter(CtrBytesDecoded).Value() >= full.Counter(CtrBytesDecoded).Value() {
		t.Fatalf("pushdown decoded %d bytes, full scan %d",
			reg.Counter(CtrBytesDecoded).Value(), full.Counter(CtrBytesDecoded).Value())
	}
}

func TestColumnarZonePruning(t *testing.T) {
	eng := testEngine()
	schema := Schema{Cols: []Col{{Name: "ts", Type: Int64}, {Name: "v", Type: String}}}
	// Sorted timestamps: round-robin partitioning still leaves each
	// partition covering the full range, so build contiguous partitions
	// by hand via sorted input and parts=4 stripes of a sorted sequence
	// interleaved — instead use blocks: rows 0..99 have ts in [0,99], etc.
	var rows []Row
	for i := 0; i < 400; i++ {
		rows = append(rows, Row{int64(i % 4 * 1000), "x"}) // part p gets ts=p*1000
	}
	ct, err := BuildColumnar(schema, rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	pred := ColPredicate{
		Col:     0,
		Keep:    func(v int64) bool { return v >= 3000 },
		SkipAll: func(min, max any) bool { return max.(int64) < 3000 },
	}
	scan, err := ct.Scan(eng, []ColPredicate{pred}, []int{0, 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scan.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("kept %d rows, want 100", len(got))
	}
	if reg.Counter(CtrRowsPruned).Value() != 300 {
		t.Fatalf("pruned %d rows, want 300", reg.Counter(CtrRowsPruned).Value())
	}
	if reg.Counter(CtrRowsScanned).Value() != 100 {
		t.Fatalf("scanned %d rows, want 100", reg.Counter(CtrRowsScanned).Value())
	}
}

// TestZoneMapLeavesNaNOut: a chunk that starts with NaN is pruned by what
// its other values say, never by the NaN; a chunk of nothing but NaN has no
// zone entry and is scanned.
func TestZoneMapLeavesNaNOut(t *testing.T) {
	nan := math.NaN()
	schema := Schema{Cols: []Col{{Name: "v", Type: Float64}}}
	// Round-robin over 3 parts: {NaN, 1, 9}, {NaN, NaN, NaN}, {NaN, 2, 3}.
	rows := []Row{{nan}, {nan}, {nan}, {1.0}, {nan}, {2.0}, {9.0}, {nan}, {3.0}}
	ct, err := BuildColumnar(schema, rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mn, mx := ct.parts[0].mins[0], ct.parts[0].maxs[0]; mn != 1.0 || mx != 9.0 {
		t.Fatalf("zone of {NaN, 1, 9} = [%v, %v]", mn, mx)
	}
	if mn, mx := ct.parts[1].mins[0], ct.parts[1].maxs[0]; mn != nil || mx != nil {
		t.Fatalf("zone of an all-NaN chunk = [%v, %v], want none", mn, mx)
	}
	reg := metrics.NewRegistry()
	pred := ColPredicate{
		Col:     0,
		Keep:    func(v float64) bool { return v > 5 },
		SkipAll: func(_, max any) bool { return max.(float64) <= 5 },
	}
	scan, err := ct.Scan(testEngine(), []ColPredicate{pred}, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scan.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != 9.0 {
		t.Fatalf("v > 5 kept %v, want [[9]]", got)
	}
	if pruned := reg.Counter(CtrRowsPruned).Value(); pruned != 3 {
		t.Fatalf("pruned %d rows, want the 3 of {NaN, 2, 3}", pruned)
	}
}

func TestColumnarEmptyAndBadArgs(t *testing.T) {
	eng := testEngine()
	ct, err := BuildColumnar(salesSchema(), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := ct.Scan(eng, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := scan.Collect()
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty columnar scan = %d rows, %v", len(rows), err)
	}
	if _, err := BuildColumnar(Schema{}, nil, 2); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := BuildColumnar(salesSchema(), []Row{{int64(1)}}, 2); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := ct.Scan(eng, nil, []int{99}, nil); err == nil {
		t.Fatal("out-of-range needed column accepted")
	}
	if _, err := ct.Scan(eng, []ColPredicate{{Col: 99, Keep: func(int64) bool { return true }}}, nil, nil); err == nil {
		t.Fatal("out-of-range predicate column accepted")
	}
	if _, err := ct.Scan(eng, []ColPredicate{{Col: 0}}, nil, nil); err == nil {
		t.Fatal("nil Keep accepted")
	}
	if _, err := ct.Scan(eng, []ColPredicate{{Col: 0, Keep: func(int64) bool { return true }}}, nil, nil); err == nil {
		t.Fatal("int64 Keep on a string column accepted")
	}
}

// batchCopy deep-copies the partitions' vectors.
func batchCopy(parts []*Batch) [][]Vector {
	out := make([][]Vector, len(parts))
	for i, b := range parts {
		for _, v := range b.Cols {
			out[i] = append(out[i], Vector{
				Ints:    append([]int64(nil), v.Ints...),
				Floats:  append([]float64(nil), v.Floats...),
				Strings: append([]string(nil), v.Strings...),
			})
		}
	}
	return out
}

// TestBatchesAreReadOnly runs plan A, then plan B, which reaches the same
// source batches through header-only Select and Head, then A again: the
// answers match and no operator has written into the shared vectors.
func TestBatchesAreReadOnly(t *testing.T) {
	eng := testEngine()
	sales := mustTable(t, eng, salesSchema(), salesRows(400, 77), 4)
	dims := mustTable(t, eng, Schema{Cols: []Col{
		{Name: "region", Type: String}, {Name: "manager", Type: String},
	}}, []Row{{"emea", "ada"}, {"apac", "grace"}, {"amer", "katherine"}}, 1)
	source, err := sales.run()
	if err != nil {
		t.Fatal(err)
	}
	before := batchCopy(source)

	planA := func() []Row {
		joined, err := sales.Where(func(r Row) bool { return r[2].(int64) > 2 }).HashJoin(dims, "region", "region", 3)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := joined.GroupBy("manager", "product").Agg(2, Agg{Op: Sum, Col: "price"}, Agg{Op: Max, Col: "units"})
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := agg.OrderByCols([]string{"manager", "product"}, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sorted.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	first := planA()

	proj, err := sales.Select("price", "region", "units")
	if err != nil {
		t.Fatal(err)
	}
	head, err := proj.Head(60)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := head.run()
	if err != nil {
		t.Fatal(err)
	}
	for p, b := range shared { // header-only: the very memory of the source
		if &b.Cols[0].Floats[0] != &source[p].Cols[3].Floats[0] || &b.Cols[1].Strings[0] != &source[p].Cols[0].Strings[0] || b.Len() != 60 {
			t.Fatalf("partition %d: Select/Head copied their input", p)
		}
	}
	doubled, err := head.WithColumn("double", Float64, func(r Row) any { return 2 * r[0].(float64) })
	if err != nil {
		t.Fatal(err)
	}
	bj, err := doubled.Filter(func(_ *Batch, keep []bool) {
		for i := range keep {
			keep[i] = i%3 != 0
		}
	}).BroadcastJoin(dims, "region", "region")
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := bj.OrderByCols([]string{"double", "units"}, []bool{true, false}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := sorted.Collect(); err != nil || len(rows) != 4*40 {
		t.Fatalf("plan B: %d rows, %v", len(rows), err)
	}

	if again := planA(); fmt.Sprintf("%q", again) != fmt.Sprintf("%q", first) {
		t.Fatalf("plan A changed its answer after plan B ran:\n%q\n%q", first, again)
	}
	if after := batchCopy(source); !reflect.DeepEqual(after, before) {
		t.Fatal("an operator wrote into the source's vectors")
	}
}
