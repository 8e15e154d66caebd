// Package table is a relational analytics layer over the dataflow engine:
// typed schemas, projection, filtering, derived columns, hash equi-joins,
// grouped aggregation with map-side partial aggregates, and global ORDER
// BY via range-partitioned sort — the SQL-shaped workloads (reporting,
// sessionization, star joins) that big-data engines exist to serve.
// Operations are lazy plans on the engine; Collect/Count execute them
// with the engine's locality scheduling and fault tolerance. Between
// operators a partition is one typed column Batch, never boxed rows.
package table

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/shuffle"
)

// Type is a column type.
type Type int

// Column types.
const (
	Int64 Type = iota
	Float64
	String
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	default:
		return "string"
	}
}

// Col is one schema column.
type Col struct {
	Name string
	Type Type
}

// Schema is an ordered set of named, typed columns.
type Schema struct {
	Cols []Col
}

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndex is Index but returns an error mentioning the schema.
func (s Schema) MustIndex(name string) (int, error) {
	if i := s.Index(name); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("table: no column %q in schema %v", name, s.Names())
}

// Names lists column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Row is one record as callers see it: values in schema order. Int64
// columns hold int64, Float64 columns float64, String columns string.
type Row []any

// Table is a lazily evaluated relation: a plan of one *Batch per partition.
type Table struct {
	eng    *core.Engine
	plan   *core.Plan
	schema Schema
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Partitions returns the table's partition count.
func (t *Table) Partitions() int { return t.plan.Partitions() }

// validate checks a row against the schema.
func (s Schema) validate(r Row) error {
	if len(r) != len(s.Cols) {
		return fmt.Errorf("table: row has %d values, schema has %d columns", len(r), len(s.Cols))
	}
	for i, c := range s.Cols {
		ok := false
		switch c.Type {
		case Int64:
			_, ok = r[i].(int64)
		case Float64:
			_, ok = r[i].(float64)
		case String:
			_, ok = r[i].(string)
		}
		if !ok {
			return fmt.Errorf("table: column %q wants %v, got %T", c.Name, c.Type, r[i])
		}
	}
	return nil
}

// derive adds a narrow step that maps each partition's batch through fn.
func (t *Table) derive(schema Schema, fn func(ctx *core.TaskContext, b *Batch) *Batch) *Table {
	in := t.schema
	plan := t.eng.NewNarrow(t.plan, func(ctx *core.TaskContext, rows []core.Row) []core.Row {
		return []core.Row{fn(ctx, batchOf(in, rows))}
	})
	return &Table{eng: t.eng, plan: plan, schema: schema}
}

// fromBatches builds a table over a source of one batch per partition.
func fromBatches(eng *core.Engine, schema Schema, parts int, fn func(part int) *Batch) *Table {
	plan := eng.NewSource(parts, func(_ *core.TaskContext, part int) []core.Row {
		return []core.Row{fn(part)}
	}, nil)
	return &Table{eng: eng, plan: plan, schema: schema}
}

// FromSlice builds a table from in-memory rows, validating each against
// the schema. The rows are unboxed into the partitions' batches once, here.
func FromSlice(eng *core.Engine, schema Schema, rows []Row, parts int) (*Table, error) {
	if len(schema.Cols) == 0 {
		return nil, errors.New("table: empty schema")
	}
	if parts <= 0 {
		parts = 4
	}
	for i, r := range rows {
		if err := schema.validate(r); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	batches := make([]*Batch, parts)
	for part := range batches {
		batches[part] = batchFromRows(schema, rows, part, parts)
	}
	return fromBatches(eng, schema, parts, func(part int) *Batch { return batches[part] }), nil
}

// FromSource builds a table whose partitions are generated on demand (fn
// must be deterministic per partition for lineage recovery). The generator
// is trusted: a value of the wrong type panics in the task that unboxes it.
func FromSource(eng *core.Engine, schema Schema, parts int, fn func(part int) []Row) (*Table, error) {
	if len(schema.Cols) == 0 {
		return nil, errors.New("table: empty schema")
	}
	if parts <= 0 {
		return nil, errors.New("table: parts must be positive")
	}
	return fromBatches(eng, schema, parts, func(part int) *Batch { return batchFromRows(schema, fn(part), 0, 1) }), nil
}

// run executes the plan and returns each partition's batch.
func (t *Table) run() ([]*Batch, error) {
	parts, err := t.eng.Run(t.plan)
	if err != nil {
		return nil, err
	}
	out := make([]*Batch, len(parts))
	for i, rows := range parts {
		out[i] = batchOf(t.schema, rows)
	}
	return out, nil
}

// Collect executes the plan and returns all rows. This is where values are
// boxed: each partition's rows are cut from one []any slab.
func (t *Table) Collect() ([]Row, error) {
	batches, err := t.run()
	if err != nil {
		return nil, err
	}
	total, width := 0, len(t.schema.Cols)
	for _, b := range batches {
		total += b.n
	}
	out := make([]Row, 0, total)
	for _, b := range batches {
		slab := make([]any, b.n*width)
		for i := 0; i < b.n; i++ {
			row := Row(slab[i*width : (i+1)*width : (i+1)*width])
			b.readRow(t.schema, i, row)
			out = append(out, row)
		}
	}
	return out, nil
}

// Count executes the plan and returns the row count.
func (t *Table) Count() (int64, error) {
	batches, err := t.run()
	var n int64
	for _, b := range batches {
		n += int64(b.n)
	}
	return n, err
}

// Select projects the named columns, in the given order. Only the batch
// header is new: the output shares its input's vectors.
func (t *Table) Select(names ...string) (*Table, error) {
	idx := make([]int, len(names))
	cols := make([]Col, len(names))
	for i, n := range names {
		j, err := t.schema.MustIndex(n)
		if err != nil {
			return nil, err
		}
		idx[i] = j
		cols[i] = t.schema.Cols[j]
	}
	return t.derive(Schema{Cols: cols}, func(_ *core.TaskContext, b *Batch) *Batch {
		out := &Batch{n: b.n, Cols: make([]Vector, len(idx))}
		for k, j := range idx {
			out.Cols[k] = b.Cols[j]
		}
		return out
	}), nil
}

// Filter is the one filtering operator: sel sets keep[i] for every row i it
// wants of the batch it is handed (keep arrives all false). Where and the
// query layer's vectorized predicates are two ways to produce a selection.
// A batch that keeps every row is passed on as it is, otherwise the kept
// positions are gathered into new vectors.
func (t *Table) Filter(sel func(b *Batch, keep []bool)) *Table {
	return t.derive(t.schema, func(_ *core.TaskContext, b *Batch) *Batch {
		keep := make([]bool, b.n)
		sel(b, keep)
		idx := make([]int32, 0, b.n)
		for i, k := range keep {
			if k {
				idx = append(idx, int32(i))
			}
		}
		if len(idx) == b.n {
			return b
		}
		return &Batch{n: len(idx), Cols: b.gather(idx)}
	})
}

// Where keeps rows for which pred returns true. pred sees each row through
// one scratch Row that is overwritten for the next: boxing a row's values
// is the adapter's cost, one allocation per float, string or large int.
func (t *Table) Where(pred func(Row) bool) *Table {
	schema := t.schema
	return t.Filter(func(b *Batch, keep []bool) {
		row := make(Row, len(schema.Cols))
		for i := range keep {
			b.readRow(schema, i, row)
			keep[i] = pred(row)
		}
	})
}

// Peek reports each computed partition's index and row count to f and
// passes the batch through untouched. f runs on the workers, once per
// partition per computation.
func (t *Table) Peek(f func(part, rows int)) *Table {
	return t.derive(t.schema, func(ctx *core.TaskContext, b *Batch) *Batch {
		f(ctx.Partition, b.n)
		return b
	})
}

// WithColumn appends a derived column computed by f from each row, which f
// sees through a scratch Row like Where's pred.
func (t *Table) WithColumn(name string, typ Type, f func(Row) any) (*Table, error) {
	if t.schema.Index(name) >= 0 {
		return nil, fmt.Errorf("table: column %q already exists", name)
	}
	in := t.schema
	schema := Schema{Cols: append(in.Cols[:len(in.Cols):len(in.Cols)], Col{Name: name, Type: typ})}
	return t.derive(schema, func(_ *core.TaskContext, b *Batch) *Batch {
		row, derived := make(Row, len(in.Cols)), newVector(typ, b.n)
		for i := 0; i < b.n; i++ {
			b.readRow(in, i, row)
			derived.push(typ, f(row))
		}
		return &Batch{n: b.n, Cols: append(b.Cols[:len(b.Cols):len(b.Cols)], derived)}
	}), nil
}

// ---------------------------------------------------------------------------
// Join

// JoinSchema is the output schema of both joins, and the one place join
// outputs are named: the left columns followed by the right columns, a
// right column whose name is taken gaining a "right_" prefix until it is
// unique (right_right_k when the left side already carries k and right_k).
func JoinSchema(left, right Schema) Schema {
	cols := append(make([]Col, 0, len(left.Cols)+len(right.Cols)), left.Cols...)
	for _, c := range right.Cols {
		name := c.Name
		for (Schema{Cols: cols}).Index(name) >= 0 {
			name = "right_" + name
		}
		cols = append(cols, Col{Name: name, Type: c.Type})
	}
	return Schema{Cols: cols}
}

// joinCols resolves and type-checks the join columns of both joins.
func joinCols(left, right Schema, leftCol, rightCol string) (li, ri int, err error) {
	if li, err = left.MustIndex(leftCol); err != nil {
		return 0, 0, err
	}
	if ri, err = right.MustIndex(rightCol); err != nil {
		return 0, 0, err
	}
	if left.Cols[li].Type != right.Cols[ri].Type {
		return 0, 0, fmt.Errorf("table: join column types differ: %v vs %v", left.Cols[li].Type, right.Cols[ri].Type)
	}
	return li, ri, nil
}

// chains threads the rows of one join side onto per-group lists without a
// slice per group: head and tail are each group's first and last row (-1
// for none), next links a row to the following row of its group.
type chains struct{ head, tail, next []int32 }

// grow adds an empty group, numbered len(head); when full, head and tail
// first grow to room groups (the key table's Cap, so they double with it).
func (c *chains) grow(room int) {
	c.head = append(slices.Grow(c.head, room-len(c.head)), -1)
	c.tail = append(slices.Grow(c.tail, room-len(c.tail)), -1)
}

// add appends the side's next row — rows are numbered in the order they
// are added — to group g's list.
func (c *chains) add(g int) {
	row := int32(len(c.next))
	c.next = append(c.next, -1)
	if c.head[g] < 0 {
		c.head[g] = row
	} else {
		c.next[c.tail[g]] = row
	}
	c.tail[g] = row
}

// size returns the number of rows on group g's list.
func (c *chains) size(g int) (n int) {
	for r := c.head[g]; r >= 0; r = c.next[r] {
		n++
	}
	return n
}

// joinOut makes a join partition's one output row from its matches: each
// yields them in the joined batch's order — join group, left row, right
// row — and there are pairs of them. gather builds the joined batch; an
// aggregate over the join folds them instead (JoinGroupBy).
type joinOut func(ctx *core.TaskContext, left, right *Batch, pairs int, each func(yield func(l, r int32))) core.Row

func gather(_ *core.TaskContext, left, right *Batch, pairs int, each func(yield func(l, r int32))) core.Row {
	lidx, ridx := make([]int32, 0, pairs), make([]int32, 0, pairs)
	each(func(l, r int32) { lidx, ridx = append(lidx, l), append(ridx, r) })
	return &Batch{n: len(lidx), Cols: append(left.gather(lidx), right.gather(ridx)...)}
}

// HashJoin inner-joins t with right on t.leftCol == right.rightCol. The
// result schema is JoinSchema(t's, right's).
func (t *Table) HashJoin(right *Table, leftCol, rightCol string, parts int) (*Table, error) {
	plan, err := t.hashJoin(right, leftCol, rightCol, parts, gather)
	if err != nil {
		return nil, err
	}
	return &Table{eng: t.eng, plan: plan, schema: JoinSchema(t.schema, right.schema)}, nil
}

// hashJoin shuffles both sides by join key; out makes each reduce
// partition's row from its matches.
func (t *Table) hashJoin(right *Table, leftCol, rightCol string, parts int, out joinOut) (*core.Plan, error) {
	li, ri, err := joinCols(t.schema, right.schema, leftCol, rightCol)
	if err != nil {
		return nil, err
	}
	if parts <= 0 {
		parts = t.Partitions()
	}
	leftSchema, rightSchema := t.schema, right.schema
	// Each side's rows become records: equality key, then 'L' or 'R' and
	// the encoded row. The shuffle cannot tell the sides' batches apart, so
	// a narrow step hands it a row that writes itself.
	tagged := func(side *Table, keyCol int, tag byte) *core.Plan {
		schema := side.schema
		keyType := schema.Cols[keyCol].Type
		return t.eng.NewNarrow(side.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
			b := batchOf(schema, rows)
			return []core.Row{func(w shuffle.Writer) error {
				return shuffle.WriteRecords(w, b.n,
					func(dst []byte, i int) []byte { return appendEqualityKey(dst, keyType, &b.Cols[keyCol], i) },
					func(dst []byte, i int) []byte { return b.appendRow(append(dst, tag), schema, i) })
			}}
		})
	}
	both := t.eng.NewUnion(tagged(t, li, 'L'), tagged(right, ri, 'R'))
	return t.eng.NewShuffled(both, core.ShuffleDep{
		Partitions: parts,
		Emit:       func(row core.Row, w shuffle.Writer) error { return row.(func(shuffle.Writer) error)(w) },
		Post: func(ctx *core.TaskContext, recs shuffle.Records) []core.Row {
			// Decode every row once into its side's builder and thread it
			// onto its key's list; keys keep the order they arrived in.
			nl := 0
			for r := 0; r < recs.Len(); r++ {
				if recs.Value(r)[0] == 'L' {
					nl++
				}
			}
			lefts, rights := newBatch(leftSchema, nl), newBatch(rightSchema, recs.Len()-nl)
			var lrows, rrows chains
			var index group.ByteKeyTable
			for r := 0; r < recs.Len(); r++ {
				g, added := index.ID(recs.Key(r))
				if added {
					lrows.grow(index.Cap())
					rrows.grow(index.Cap())
				}
				value := recs.Value(r)
				side, schema, rows := rights, rightSchema, &rrows
				if value[0] == 'L' {
					side, schema, rows = lefts, leftSchema, &lrows
				}
				rows.add(int(g))
				if err := side.decodeRow(schema, value[1:]); err != nil {
					panic(fmt.Sprintf("table: join decode: %v", err))
				}
			}
			total := 0
			for g := range index.Len() {
				total += lrows.size(g) * rrows.size(g)
			}
			return []core.Row{out(ctx, lefts, rights, total, func(yield func(l, r int32)) {
				for g := range index.Len() {
					for l := lrows.head[g]; l >= 0; l = lrows.next[l] {
						for r := rrows.head[g]; r >= 0; r = rrows.next[r] {
							yield(l, r)
						}
					}
				}
			})}
		},
	}), nil
}

// ---------------------------------------------------------------------------
// Order by

// OrderBy globally sorts the table by the named column (all columns
// retained): concatenating the result's partitions in order yields the
// sorted relation. Range boundaries come from sampling. Rows with equal
// keys land in key order but otherwise arbitrary relative order; use
// OrderByCols with tiebreak columns for a deterministic total order.
func (t *Table) OrderBy(col string, desc bool, parts int) (*Table, error) {
	return t.OrderByCols([]string{col}, []bool{desc}, parts)
}
