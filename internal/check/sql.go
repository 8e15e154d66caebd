package check

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/query"
	"repro/internal/table"
)

// QueryInput is one base table for the reference evaluator.
type QueryInput struct {
	Schema table.Schema
	Rows   []table.Row
}

// ReferenceQuery evaluates a logical query plan naively in a single
// process — nested maps and sorts over in-memory rows, no dataflow
// engine, no optimizer — and returns the output schema and rows. It is
// the ground truth the distributed planner is differentially checked
// against. Semantics deliberately mirror internal/table's: join and
// group keys compare floats by IEEE bits, integer sums wrap, sorts are
// total orders (primary column first, remaining columns as ascending
// tiebreaks, floats ordered by sign-flipped bits).
func ReferenceQuery(lp *query.Logical, tables map[string]QueryInput) (table.Schema, []table.Row, error) {
	base := func(name string) (table.Schema, error) {
		in, ok := tables[name]
		if !ok {
			return table.Schema{}, fmt.Errorf("check: unknown table %q", name)
		}
		return in.Schema, nil
	}
	schema, err := lp.OutSchema(base)
	if err != nil {
		return table.Schema{}, nil, err
	}
	rows, err := evalQuery(lp, tables)
	if err != nil {
		return table.Schema{}, nil, err
	}
	return schema, rows, nil
}

func evalQuery(lp *query.Logical, tables map[string]QueryInput) ([]table.Row, error) {
	base := func(name string) (table.Schema, error) {
		in, ok := tables[name]
		if !ok {
			return table.Schema{}, fmt.Errorf("check: unknown table %q", name)
		}
		return in.Schema, nil
	}
	switch lp.Op {
	case query.OpScan:
		in, ok := tables[lp.TableName]
		if !ok {
			return nil, fmt.Errorf("check: unknown table %q", lp.TableName)
		}
		return append([]table.Row(nil), in.Rows...), nil
	case query.OpFilter:
		rows, err := evalQuery(lp.Input, tables)
		if err != nil {
			return nil, err
		}
		schema, err := lp.Input.OutSchema(base)
		if err != nil {
			return nil, err
		}
		keep, err := lp.Pred.Bind(schema)
		if err != nil {
			return nil, err
		}
		var out []table.Row
		for _, r := range rows {
			if keep(r) {
				out = append(out, r)
			}
		}
		return out, nil
	case query.OpProject:
		rows, err := evalQuery(lp.Input, tables)
		if err != nil {
			return nil, err
		}
		schema, err := lp.Input.OutSchema(base)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(lp.Cols))
		for i, c := range lp.Cols {
			j, err := schema.MustIndex(c)
			if err != nil {
				return nil, err
			}
			idx[i] = j
		}
		out := make([]table.Row, len(rows))
		for i, r := range rows {
			proj := make(table.Row, len(idx))
			for k, j := range idx {
				proj[k] = r[j]
			}
			out[i] = proj
		}
		return out, nil
	case query.OpJoin:
		leftRows, err := evalQuery(lp.Input, tables)
		if err != nil {
			return nil, err
		}
		rightRows, err := evalQuery(lp.Right, tables)
		if err != nil {
			return nil, err
		}
		leftSchema, err := lp.Input.OutSchema(base)
		if err != nil {
			return nil, err
		}
		rightSchema, err := lp.Right.OutSchema(base)
		if err != nil {
			return nil, err
		}
		li, err := leftSchema.MustIndex(lp.LeftCol)
		if err != nil {
			return nil, err
		}
		ri, err := rightSchema.MustIndex(lp.RightCol)
		if err != nil {
			return nil, err
		}
		build := map[any][]table.Row{}
		for _, r := range rightRows {
			build[joinKey(r[ri])] = append(build[joinKey(r[ri])], r)
		}
		var out []table.Row
		for _, l := range leftRows {
			for _, r := range build[joinKey(l[li])] {
				joined := make(table.Row, 0, len(l)+len(r))
				joined = append(joined, l...)
				joined = append(joined, r...)
				out = append(out, joined)
			}
		}
		return out, nil
	case query.OpAgg:
		return evalAgg(lp, tables)
	case query.OpSort:
		rows, err := evalQuery(lp.Input, tables)
		if err != nil {
			return nil, err
		}
		schema, err := lp.Input.OutSchema(base)
		if err != nil {
			return nil, err
		}
		primary, err := schema.MustIndex(lp.SortCol)
		if err != nil {
			return nil, err
		}
		// Total order: primary column (desc-aware), then every remaining
		// column ascending — matching the engine's compiled sort.
		order := []int{primary}
		for i := range schema.Cols {
			if i != primary {
				order = append(order, i)
			}
		}
		out := append([]table.Row(nil), rows...)
		sort.SliceStable(out, func(a, b int) bool {
			for k, idx := range order {
				c := cmpSortable(out[a][idx], out[b][idx])
				if c == 0 {
					continue
				}
				if k == 0 && lp.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		return out, nil
	case query.OpLimit:
		rows, err := evalQuery(lp.Input, tables)
		if err != nil {
			return nil, err
		}
		if len(rows) > lp.N {
			rows = rows[:lp.N]
		}
		return rows, nil
	}
	return nil, fmt.Errorf("check: unknown operator %d", lp.Op)
}

// joinKey mirrors the engine's equality encoding: floats compare by
// IEEE bits (NaN == NaN, -0 != +0), other types by value.
func joinKey(v any) any {
	if f, ok := v.(float64); ok {
		return math.Float64bits(f)
	}
	return v
}

// cmpSortable mirrors internal/serde's sortable key order: ints and
// strings naturally, floats by IEEE total order (sign-flipped bits),
// so -NaN < -Inf < ... < -0 < +0 < ... < +Inf < +NaN.
func cmpSortable(a, b any) int {
	switch av := a.(type) {
	case int64:
		bv := b.(int64)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case float64:
		ak, bk := floatOrd(av), floatOrd(b.(float64))
		switch {
		case ak < bk:
			return -1
		case ak > bk:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.(string), b.(string))
	}
}

func floatOrd(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

type aggCell struct {
	sumI  int64
	sumF  float64
	count int64
	mmSet bool
	mm    any
}

func evalAgg(lp *query.Logical, tables map[string]QueryInput) ([]table.Row, error) {
	rows, err := evalQuery(lp.Input, tables)
	if err != nil {
		return nil, err
	}
	base := func(name string) (table.Schema, error) {
		in, ok := tables[name]
		if !ok {
			return table.Schema{}, fmt.Errorf("check: unknown table %q", name)
		}
		return in.Schema, nil
	}
	schema, err := lp.Input.OutSchema(base)
	if err != nil {
		return nil, err
	}
	keyIdx := make([]int, len(lp.Keys))
	for i, k := range lp.Keys {
		j, err := schema.MustIndex(k)
		if err != nil {
			return nil, err
		}
		keyIdx[i] = j
	}
	colIdx := make([]int, len(lp.Aggs))
	colTyp := make([]table.Type, len(lp.Aggs))
	for i, a := range lp.Aggs {
		colIdx[i] = -1
		if a.Op != table.Count {
			j, err := schema.MustIndex(a.Col)
			if err != nil {
				return nil, err
			}
			colIdx[i] = j
			colTyp[i] = schema.Cols[j].Type
		}
	}
	type group struct {
		key   []any
		cells []aggCell
	}
	groups := map[string]*group{}
	var order []string // first-seen group order (multiset compare ignores it)
	for _, r := range rows {
		var kb strings.Builder
		key := make([]any, len(keyIdx))
		for i, j := range keyIdx {
			key[i] = r[j]
			fmt.Fprintf(&kb, "%v|", joinKey(r[j]))
		}
		ks := kb.String()
		g, ok := groups[ks]
		if !ok {
			g = &group{key: key, cells: make([]aggCell, len(lp.Aggs))}
			for i := range g.cells {
				// -0, not +0, is the identity that keeps a float sum of only
				// -0 at -0, as the engine's fold does.
				g.cells[i].sumF = math.Copysign(0, -1)
			}
			groups[ks] = g
			order = append(order, ks)
		}
		for i, a := range lp.Aggs {
			cell := &g.cells[i]
			switch a.Op {
			case table.Count:
				cell.count++
				continue
			}
			v := r[colIdx[i]]
			switch a.Op {
			case table.Sum:
				if colTyp[i] == table.Int64 {
					cell.sumI += v.(int64)
				} else {
					cell.sumF += v.(float64)
				}
			case table.Avg:
				if colTyp[i] == table.Int64 {
					cell.sumF += float64(v.(int64))
				} else {
					cell.sumF += v.(float64)
				}
				cell.count++
			case table.Min:
				if !cell.mmSet || cmpSortable(v, cell.mm) < 0 {
					cell.mmSet, cell.mm = true, v
				}
			case table.Max:
				if !cell.mmSet || cmpSortable(v, cell.mm) > 0 {
					cell.mmSet, cell.mm = true, v
				}
			}
		}
	}
	var out []table.Row
	for _, ks := range order {
		g := groups[ks]
		row := append([]any(nil), g.key...)
		for i, a := range lp.Aggs {
			cell := g.cells[i]
			switch a.Op {
			case table.Count:
				row = append(row, cell.count)
			case table.Sum:
				if colTyp[i] == table.Int64 {
					row = append(row, cell.sumI)
				} else {
					row = append(row, cell.sumF)
				}
			case table.Avg:
				row = append(row, cell.sumF/float64(cell.count))
			default:
				row = append(row, cell.mm)
			}
		}
		out = append(out, table.Row(row))
	}
	return out, nil
}

// FormatRow renders a row canonically for multiset comparison: floats
// via shortest round-trip formatting, so bit-identical values (and
// only those) collide.
func FormatRow(r table.Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('|')
		}
		switch x := v.(type) {
		case int64:
			b.WriteString(intString(x))
		case float64:
			b.WriteString(floatString(x))
		default:
			fmt.Fprintf(&b, "%q", x)
		}
	}
	return b.String()
}

// DiffQuery runs the reference evaluator over the original logical
// plan and compares the engine's rows against it: ordered comparison
// when the plan's output has a defined order (top-level ORDER BY),
// multiset comparison otherwise.
func DiffQuery(name string, got []table.Row, lp *query.Logical, tables map[string]QueryInput) Diff {
	_, want, err := ReferenceQuery(lp, tables)
	if err != nil {
		return Diff{Name: name, Details: []string{"reference evaluation: " + err.Error()}}
	}
	if lp.Ordered() {
		return DiffOrdered(name, got, want, FormatRow)
	}
	return DiffMultiset(name, got, want, FormatRow)
}

// DiffQueryEnv is DiffQuery against tables registered in a query.Env.
func DiffQueryEnv(name string, got []table.Row, lp *query.Logical, env *query.Env) Diff {
	tables := map[string]QueryInput{}
	for _, t := range env.Tables() {
		schema, err := env.Schema(t)
		if err != nil {
			return Diff{Name: name, Details: []string{err.Error()}}
		}
		rows, err := env.Rows(t)
		if err != nil {
			return Diff{Name: name, Details: []string{err.Error()}}
		}
		tables[t] = QueryInput{Schema: schema, Rows: rows}
	}
	return DiffQuery(name, got, lp, tables)
}
