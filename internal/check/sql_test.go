package check

import (
	"math"
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

func sqlInputs() map[string]QueryInput {
	sales := QueryInput{
		Schema: table.Schema{Cols: []table.Col{
			{Name: "cust_id", Type: table.Int64},
			{Name: "units", Type: table.Int64},
			{Name: "amount", Type: table.Float64},
		}},
		Rows: []table.Row{
			{int64(1), int64(3), 10.5},
			{int64(1), int64(1), 2.25},
			{int64(2), int64(7), 100.0},
			{int64(3), int64(2), 0.75},
		},
	}
	customer := QueryInput{
		Schema: table.Schema{Cols: []table.Col{
			{Name: "cust_id", Type: table.Int64},
			{Name: "region", Type: table.String},
		}},
		Rows: []table.Row{
			{int64(1), "emea"},
			{int64(2), "apac"},
			// cust 3 has no dimension row: drops out of the join
		},
	}
	return map[string]QueryInput{"sales": sales, "customer": customer}
}

func TestReferenceQueryJoinAggSort(t *testing.T) {
	lp := query.Scan("sales").
		Join(query.Scan("customer"), "cust_id", "cust_id").
		GroupBy([]string{"region"},
			table.Agg{Op: table.Sum, Col: "amount", As: "rev"},
			table.Agg{Op: table.Count}).
		OrderBy("rev", true)
	schema, rows, err := ReferenceQuery(lp, sqlInputs())
	if err != nil {
		t.Fatal(err)
	}
	if got := schema.Names(); len(got) != 3 || got[0] != "region" || got[1] != "rev" || got[2] != "count" {
		t.Fatalf("schema = %v", got)
	}
	want := []table.Row{
		{"apac", 100.0, int64(1)},
		{"emea", 12.75, int64(2)},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if FormatRow(rows[i]) != FormatRow(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
}

// TestReferenceSumOfNegativeZero: a float SUM or AVG over only -0 is -0,
// the engine's answer; starting the sum at +0 answered +0.
func TestReferenceSumOfNegativeZero(t *testing.T) {
	in := map[string]QueryInput{"t": {
		Schema: table.Schema{Cols: []table.Col{{Name: "k", Type: table.Int64}, {Name: "x", Type: table.Float64}}},
		Rows:   []table.Row{{int64(1), math.Copysign(0, -1)}, {int64(2), math.Copysign(0, -1)}, {int64(2), 0.0}},
	}}
	lp := query.Scan("t").GroupBy([]string{"k"},
		table.Agg{Op: table.Sum, Col: "x", As: "s"}, table.Agg{Op: table.Avg, Col: "x", As: "a"})
	_, rows, err := ReferenceQuery(lp, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatRow(rows[0]) + " " + FormatRow(rows[1]); got != "1|-0|-0 2|0|0" {
		t.Fatalf("rows %s, want 1|-0|-0 2|0|0", got)
	}
}

func TestReferenceQueryFilterProject(t *testing.T) {
	lp := query.Scan("sales").
		Where(query.Cmp("units", query.Ge, int64(2))).
		Project([]string{"cust_id", "amount"}, []string{"c", "a"})
	_, rows, err := ReferenceQuery(lp, sqlInputs())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if len(r) != 2 {
			t.Fatalf("row width = %v", r)
		}
	}
}

// TestDiffQueryTeeth proves the oracle actually bites: correct output
// passes, and dropped rows, corrupted values, wrong multiplicities and
// misordered sorted output all fail.
func TestDiffQueryTeeth(t *testing.T) {
	inputs := sqlInputs()
	unordered := query.Scan("sales").Where(query.Cmp("units", query.Ge, int64(2)))
	_, want, err := ReferenceQuery(unordered, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffQuery("ok", want, unordered, inputs); !d.OK {
		t.Fatalf("correct output flagged: %s", d)
	}

	if d := DiffQuery("dropped", want[:len(want)-1], unordered, inputs); d.OK {
		t.Fatal("dropped row not detected")
	}
	corrupt := append([]table.Row(nil), want...)
	corrupt[0] = append(table.Row(nil), corrupt[0]...)
	corrupt[0][2] = corrupt[0][2].(float64) + 0.25
	if d := DiffQuery("corrupt", corrupt, unordered, inputs); d.OK {
		t.Fatal("corrupted value not detected")
	}
	dup := append(append([]table.Row(nil), want...), want[0])
	if d := DiffQuery("dup", dup, unordered, inputs); d.OK {
		t.Fatal("duplicated row not detected")
	}
	// Unordered plans accept any permutation.
	rev := make([]table.Row, len(want))
	for i, r := range want {
		rev[len(want)-1-i] = r
	}
	if d := DiffQuery("permuted", rev, unordered, inputs); !d.OK {
		t.Fatalf("permutation of unordered output flagged: %s", d)
	}

	// Ordered plans reject the same permutation.
	ordered := unordered.OrderBy("amount", false)
	_, sorted, err := ReferenceQuery(ordered, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffQuery("sorted-ok", sorted, ordered, inputs); !d.OK {
		t.Fatalf("correct sorted output flagged: %s", d)
	}
	srev := make([]table.Row, len(sorted))
	for i, r := range sorted {
		srev[len(sorted)-1-i] = r
	}
	if d := DiffQuery("sorted-permuted", srev, ordered, inputs); d.OK {
		t.Fatal("misordered sorted output not detected")
	}
}

func TestReferenceQueryErrors(t *testing.T) {
	if _, _, err := ReferenceQuery(query.Scan("nope"), sqlInputs()); err == nil {
		t.Fatal("unknown table accepted")
	}
	bad := query.Scan("sales").Where(query.Cmp("nope", query.Eq, int64(1)))
	if _, _, err := ReferenceQuery(bad, sqlInputs()); err == nil {
		t.Fatal("unknown filter column accepted")
	}
	d := DiffQuery("bad", nil, bad, sqlInputs())
	if d.OK {
		t.Fatal("reference error must fail the diff")
	}
}
