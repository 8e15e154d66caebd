package table

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/shuffle"
)

// BroadcastJoin inner-joins t with right on t.leftCol == right.rightCol
// without shuffling t: the right side is collected at the driver, built
// into a hash map, broadcast to every executor (charging the fabric for
// the transfer), and each left partition probes it map-side. The output
// schema matches HashJoin: t's columns then right's, with "right_"
// prefixes on collisions. Correct only when the right side fits in
// memory — the query optimizer picks it when table statistics say a
// dimension is small.
func (t *Table) BroadcastJoin(right *Table, leftCol, rightCol string) (*Table, error) {
	li, err := t.schema.MustIndex(leftCol)
	if err != nil {
		return nil, err
	}
	ri, err := right.schema.MustIndex(rightCol)
	if err != nil {
		return nil, err
	}
	if t.schema.Cols[li].Type != right.schema.Cols[ri].Type {
		return nil, fmt.Errorf("table: join column types differ: %v vs %v",
			t.schema.Cols[li].Type, right.schema.Cols[ri].Type)
	}
	outCols := append([]Col(nil), t.schema.Cols...)
	for _, c := range right.schema.Cols {
		name := c.Name
		if (Schema{Cols: outCols}).Index(name) >= 0 {
			name = "right_" + name
		}
		outCols = append(outCols, Col{Name: name, Type: c.Type})
	}

	buildRows, err := right.Collect()
	if err != nil {
		return nil, err
	}
	keyType := t.schema.Cols[li].Type
	build := make(map[string][]Row, len(buildRows))
	var size int64
	var scratch []byte
	for _, r := range buildRows {
		k := string(appendEqualityKey(scratch[:0], keyType, r[ri]))
		build[k] = append(build[k], r)
		scratch = appendRow(scratch[:0], right.schema, r)
		size += int64(len(scratch))
	}
	bcast := t.eng.Broadcast(build, size)

	plan := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		m := bcast.Value().(map[string][]Row)
		var out []core.Row
		var key []byte
		for _, r := range rows {
			lrow := r.(Row)
			key = appendEqualityKey(key[:0], keyType, lrow[li])
			for _, rrow := range m[string(key)] {
				joined := make(Row, 0, len(lrow)+len(rrow))
				joined = append(joined, lrow...)
				joined = append(joined, rrow...)
				out = append(out, joined)
			}
		}
		return out
	})
	return &Table{eng: t.eng, plan: plan, schema: Schema{Cols: outCols}}, nil
}

// OrderByCols globally sorts by the named columns in order: cols[0] is
// the primary key, later columns break ties. desc is per column (nil =
// all ascending). Concatenating the result's partitions in order yields
// the sorted relation. Because a full column list gives a total order
// over distinct rows, OrderByCols with every column listed is
// deterministic — the form the query layer uses under LIMIT.
func (t *Table) OrderByCols(cols []string, desc []bool, parts int) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("table: OrderByCols needs at least one column")
	}
	if desc == nil {
		desc = make([]bool, len(cols))
	}
	if len(desc) != len(cols) {
		return nil, fmt.Errorf("table: OrderByCols got %d desc flags for %d columns", len(desc), len(cols))
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, err := t.schema.MustIndex(c)
		if err != nil {
			return nil, err
		}
		idx[i] = j
	}
	if parts <= 0 {
		parts = t.Partitions()
	}
	schema := t.schema
	keyOf := func(r Row) []byte {
		var out []byte
		for k, j := range idx {
			out = appendSortableKey(out, schema.Cols[j].Type, r[j], desc[k])
		}
		return out
	}

	// Sampling job for range split points.
	sample := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		stride := len(rows)/32 + 1
		var out []core.Row
		for i := 0; i < len(rows); i += stride {
			out = append(out, keyOf(rows[i].(Row)))
		}
		return out
	})
	raw, err := t.eng.Collect(sample)
	if err != nil {
		return nil, err
	}
	keys := make([][]byte, len(raw))
	for i, r := range raw {
		keys[i] = r.([]byte)
	}
	rp := shuffle.NewRangePartitioner(pickSplits(keys, parts))

	plan := t.eng.NewShuffled(t.plan, core.ShuffleDep{
		Partitions:  rp.Partitions(),
		Partitioner: rp.Partition,
		Sorted:      true,
		KeyOf:       func(r core.Row) []byte { return keyOf(r.(Row)) },
		ValueOf:     func(r core.Row) []byte { return appendRow(nil, schema, r.(Row)) },
		Post: func(_ *core.TaskContext, recs []shuffle.Record) []core.Row {
			out := make([]core.Row, len(recs))
			for i, rec := range recs {
				row, err := decodeRow(schema, rec.Value)
				if err != nil {
					panic(fmt.Sprintf("table: orderby decode: %v", err))
				}
				out[i] = row
			}
			return out
		},
	})
	return &Table{eng: t.eng, plan: plan, schema: schema}, nil
}

// Head keeps at most n rows per partition (the partition-local half of
// LIMIT: after an OrderByCols, partition k's first n rows are the only
// candidates for the global first n, so the driver truncates the
// concatenation).
func (t *Table) Head(n int) (*Table, error) {
	if n < 0 {
		return nil, fmt.Errorf("table: Head(%d)", n)
	}
	plan := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		if len(rows) > n {
			rows = rows[:n]
		}
		return rows
	})
	return &Table{eng: t.eng, plan: plan, schema: t.schema}, nil
}

// Renamed returns the same relation with columns renamed per mapping
// (old name -> new name). Purely a schema change; no data moves.
func (t *Table) Renamed(mapping map[string]string) (*Table, error) {
	cols := append([]Col(nil), t.schema.Cols...)
	for old, new_ := range mapping {
		i := t.schema.Index(old)
		if i < 0 {
			return nil, fmt.Errorf("table: no column %q to rename", old)
		}
		cols[i].Name = new_
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("table: rename collides on %q", c.Name)
		}
		seen[c.Name] = true
	}
	return &Table{eng: t.eng, plan: t.plan, schema: Schema{Cols: cols}}, nil
}
