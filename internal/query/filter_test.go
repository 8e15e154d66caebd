package query_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/table"
)

// TestVectorizedFilterMatchesRowFilter: for every comparison operator and
// column type, and for AND/OR trees of them, table.Where over the
// row-at-a-time binding (what the reference evaluator runs) and
// table.Filter over the vectorized binding select the same rows in the
// same order.
func TestVectorizedFilterMatchesRowFilter(t *testing.T) {
	schema := table.Schema{Cols: []table.Col{
		{Name: "i", Type: table.Int64}, {Name: "f", Type: table.Float64}, {Name: "s", Type: table.String},
	}}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25}
	strs := []string{"", "a", "a\x00", "ab", "b"}
	gen := rng.New(11)
	value := func(col int) any {
		switch col {
		case 0:
			return int64(gen.Intn(7) - 3)
		case 1:
			return floats[gen.Intn(len(floats))]
		}
		return strs[gen.Intn(len(strs))]
	}
	rows := make([]table.Row, 300)
	for r := range rows {
		rows[r] = table.Row{value(0), value(1), value(2)}
	}
	tb, err := table.FromSlice(testEngine(), schema, rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	var preds []*query.Expr
	for col, c := range schema.Cols {
		for op := query.Eq; op <= query.Ge; op++ {
			for k := 0; k < 4; k++ {
				preds = append(preds, query.Cmp(c.Name, op, value(col)))
			}
		}
	}
	for k := 0; k+2 < len(preds); k += 3 { // trees over the leaves, mixing columns
		preds = append(preds, query.Or(query.And(preds[k], preds[k+1]), preds[k+2]), query.And(preds[k], query.Or(preds[k+1], preds[k+2])))
	}
	preds = append(preds, query.Cmp("f", query.Lt, int64(1)), nil) // an int literal on a float column; no predicate at all
	for _, pred := range preds {
		byRow, err := pred.Bind(schema)
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		byBatch, err := pred.BindBatch(schema)
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		want, err := tb.Where(byRow).Collect()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tb.Filter(byBatch).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
			t.Errorf("%s: vectorized filter kept %d rows, row filter %d", pred, len(got), len(want))
		}
	}
	if _, err := query.Cmp("nope", query.Eq, int64(1)).BindBatch(schema); err == nil {
		t.Error("unknown column bound")
	}
	if _, err := query.And(query.Cmp("i", query.Eq, int64(1)), query.Cmp("s", query.Eq, 2.5)).BindBatch(schema); err == nil {
		t.Error("float literal bound to a string column")
	}
}
