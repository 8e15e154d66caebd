// Package table is a relational analytics layer over the dataflow engine:
// typed schemas, projection, filtering, derived columns, hash equi-joins,
// grouped aggregation with map-side partial aggregates, and global ORDER
// BY via range-partitioned sort — the SQL-shaped workloads (reporting,
// sessionization, star joins) that big-data engines exist to serve.
// Operations are lazy plans on the engine; Collect/Count execute them
// with the engine's locality scheduling and fault tolerance.
package table

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/serde"
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

// Row is one record: values in schema order. Int64 columns hold int64,
// Float64 columns float64, String columns string.
type Row []any

// Table is a lazily evaluated relation.
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
		switch c.Type {
		case Int64:
			if _, ok := r[i].(int64); !ok {
				return fmt.Errorf("table: column %q wants int64, got %T", c.Name, r[i])
			}
		case Float64:
			if _, ok := r[i].(float64); !ok {
				return fmt.Errorf("table: column %q wants float64, got %T", c.Name, r[i])
			}
		case String:
			if _, ok := r[i].(string); !ok {
				return fmt.Errorf("table: column %q wants string, got %T", c.Name, r[i])
			}
		}
	}
	return nil
}

// FromSlice builds a table from in-memory rows, validating each against
// the schema.
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
	owned := append([]Row(nil), rows...)
	plan := eng.NewSource(parts, func(_ *core.TaskContext, part int) []core.Row {
		var out []core.Row
		for i := part; i < len(owned); i += parts {
			out = append(out, owned[i])
		}
		return out
	}, nil)
	return &Table{eng: eng, plan: plan, schema: schema}, nil
}

// FromSource builds a table whose partitions are generated on demand (fn
// must be deterministic per partition for lineage recovery). Rows are not
// validated; the generator is trusted.
func FromSource(eng *core.Engine, schema Schema, parts int, fn func(part int) []Row) (*Table, error) {
	if len(schema.Cols) == 0 {
		return nil, errors.New("table: empty schema")
	}
	if parts <= 0 {
		return nil, errors.New("table: parts must be positive")
	}
	plan := eng.NewSource(parts, func(_ *core.TaskContext, part int) []core.Row {
		rows := fn(part)
		out := make([]core.Row, len(rows))
		for i, r := range rows {
			out[i] = r
		}
		return out
	}, nil)
	return &Table{eng: eng, plan: plan, schema: schema}, nil
}

// Collect executes the plan and returns all rows.
func (t *Table) Collect() ([]Row, error) {
	raw, err := t.eng.Collect(t.plan)
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(raw))
	for i, r := range raw {
		out[i] = r.(Row)
	}
	return out, nil
}

// Count executes the plan and returns the row count.
func (t *Table) Count() (int64, error) { return t.eng.Count(t.plan) }

// Select projects the named columns, in the given order.
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
	plan := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		out := make([]core.Row, len(rows))
		for i, r := range rows {
			row := r.(Row)
			proj := make(Row, len(idx))
			for k, j := range idx {
				proj[k] = row[j]
			}
			out[i] = proj
		}
		return out
	})
	return &Table{eng: t.eng, plan: plan, schema: Schema{Cols: cols}}, nil
}

// Where keeps rows for which pred returns true.
func (t *Table) Where(pred func(Row) bool) *Table {
	plan := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		var out []core.Row
		for _, r := range rows {
			if pred(r.(Row)) {
				out = append(out, r)
			}
		}
		return out
	})
	return &Table{eng: t.eng, plan: plan, schema: t.schema}
}

// Peek reports each computed partition's row count to f and passes the
// rows through untouched. f runs on the workers, once per partition per
// computation.
func (t *Table) Peek(f func(rows int)) *Table {
	plan := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		f(len(rows))
		return rows
	})
	return &Table{eng: t.eng, plan: plan, schema: t.schema}
}

// WithColumn appends a derived column computed by f from each row.
func (t *Table) WithColumn(name string, typ Type, f func(Row) any) (*Table, error) {
	if t.schema.Index(name) >= 0 {
		return nil, fmt.Errorf("table: column %q already exists", name)
	}
	schema := Schema{Cols: append(append([]Col(nil), t.schema.Cols...), Col{Name: name, Type: typ})}
	plan := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		out := make([]core.Row, len(rows))
		for i, r := range rows {
			row := r.(Row)
			next := make(Row, len(row)+1)
			copy(next, row)
			next[len(row)] = f(row)
			out[i] = next
		}
		return out
	})
	return &Table{eng: t.eng, plan: plan, schema: schema}, nil
}

// ---------------------------------------------------------------------------
// Row and key encodings

// appendRow serializes a row against its schema: Int64 as a zig-zag
// varint, Float64 as the 8 fixed bytes of its bits, String as a varint
// length followed by the bytes.
func appendRow(dst []byte, s Schema, r Row) []byte {
	for i, c := range s.Cols {
		switch c.Type {
		case Int64:
			dst = serde.AppendInt64(dst, r[i].(int64))
		case Float64:
			dst = serde.AppendUint64(dst, math.Float64bits(r[i].(float64)))
		case String:
			str := r[i].(string)
			dst = append(serde.AppendInt64(dst, int64(len(str))), str...)
		}
	}
	return dst
}

// decodeRow inverts appendRow.
func decodeRow(s Schema, b []byte) (Row, error) {
	out := make(Row, len(s.Cols))
	for i, c := range s.Cols {
		var err error
		switch c.Type {
		case Int64:
			out[i], b, err = readInt(b)
		case Float64:
			out[i], b, err = readFloat(b)
		case String:
			out[i], b, err = readString(b)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readInt, readFloat and readString take one appendRow-encoded value off
// the front of b.
func readInt(b []byte) (int64, []byte, error) {
	v, n, err := serde.Int64(b)
	if err != nil {
		return 0, nil, err
	}
	return v, b[n:], nil
}

func readFloat(b []byte) (float64, []byte, error) {
	u, err := serde.Uint64(b)
	if err != nil {
		return 0, nil, err
	}
	return math.Float64frombits(u), b[8:], nil
}

func readString(b []byte) (string, []byte, error) {
	l, b, err := readInt(b)
	if err != nil || l < 0 || int64(len(b)) < l {
		return "", nil, serde.ErrCorrupt
	}
	return string(b[:l]), b[l:], nil
}

// appendSortableKey appends one column value's order-preserving,
// self-delimiting encoding (serde's Sortable*Key forms; bytes inverted
// when desc).
func appendSortableKey(dst []byte, typ Type, v any, desc bool) []byte {
	start := len(dst)
	switch typ {
	case Int64:
		dst = append(dst, serde.SortableInt64Key(v.(int64))...)
	case Float64:
		dst = append(dst, serde.SortableFloat64Key(v.(float64))...)
	default:
		// serde.SortableStringKey, written in place: 0x00 escaped as
		// 0x00 0xFF, terminated by 0x00 0x01.
		for s, i := v.(string), 0; i < len(s); i++ {
			if s[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, s[i])
			}
		}
		dst = append(dst, 0x00, 0x01)
	}
	if desc {
		for i := start; i < len(dst); i++ {
			dst[i] = ^dst[i]
		}
	}
	return dst
}

// appendEqualityKey appends one column value's encoding for equality
// grouping (compact, need not preserve order).
func appendEqualityKey(dst []byte, typ Type, v any) []byte {
	switch typ {
	case Int64:
		return serde.AppendInt64(dst, v.(int64))
	case Float64:
		return serde.AppendUint64(dst, math.Float64bits(v.(float64)))
	default:
		return append(dst, v.(string)...)
	}
}

// appendCompositeKey concatenates the sortable keys of the given column
// indexes: the encodings are self-delimiting (fixed width or terminated),
// so the concatenation is unambiguous and ordered.
func appendCompositeKey(dst []byte, s Schema, idx []int, r Row) []byte {
	for _, i := range idx {
		dst = appendSortableKey(dst, s.Cols[i].Type, r[i], false)
	}
	return dst
}

// sliceRecords cuts buf, which holds key‖value for one record after the
// other with ends listing where each key and each value stops, into
// shuffle records; the rows point into one slab of them. recordKey and
// recordValue are the ShuffleDep accessors for such rows.
func sliceRecords(buf []byte, ends []int) []core.Row {
	recs := make([]shuffle.Record, len(ends)/2)
	out := make([]core.Row, len(recs))
	off := 0
	for i := range recs {
		k, v := ends[2*i], ends[2*i+1]
		recs[i] = shuffle.Record{Key: buf[off:k:k], Value: buf[k:v:v]}
		out[i] = &recs[i]
		off = v
	}
	return out
}

func recordKey(r core.Row) []byte   { return r.(*shuffle.Record).Key }
func recordValue(r core.Row) []byte { return r.(*shuffle.Record).Value }

// ---------------------------------------------------------------------------
// Join

// HashJoin inner-joins t with right on t.leftCol == right.rightCol. The
// result schema is t's columns followed by right's columns; name
// collisions on the right gain a "right_" prefix.
func (t *Table) HashJoin(right *Table, leftCol, rightCol string, parts int) (*Table, error) {
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
	if parts <= 0 {
		parts = t.Partitions()
	}
	outCols := append([]Col(nil), t.schema.Cols...)
	for _, c := range right.schema.Cols {
		name := c.Name
		if (Schema{Cols: outCols}).Index(name) >= 0 {
			name = "right_" + name
		}
		outCols = append(outCols, Col{Name: name, Type: c.Type})
	}
	outSchema := Schema{Cols: outCols}

	leftSchema, rightSchema := t.schema, right.schema
	// Each side's rows become records: equality key, then 'L' or 'R' and
	// the encoded row.
	tagged := func(plan *core.Plan, schema Schema, keyCol int, tag byte) *core.Plan {
		keyType := schema.Cols[keyCol].Type
		return t.eng.NewNarrow(plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
			var buf []byte
			ends := make([]int, 0, 2*len(rows))
			for _, r := range rows {
				buf = appendEqualityKey(buf, keyType, r.(Row)[keyCol])
				ends = append(ends, len(buf))
				buf = appendRow(append(buf, tag), schema, r.(Row))
				ends = append(ends, len(buf))
			}
			return sliceRecords(buf, ends)
		})
	}
	both := t.eng.NewUnion(tagged(t.plan, leftSchema, li, 'L'), tagged(right.plan, rightSchema, ri, 'R'))
	plan := t.eng.NewShuffled(both, core.ShuffleDep{
		Partitions: parts,
		KeyOf:      recordKey,
		ValueOf:    recordValue,
		Post: func(_ *core.TaskContext, recs []shuffle.Record) []core.Row {
			// Decode every row once into its key's bucket; buckets keep the
			// order their keys arrived in.
			type bucket struct{ lefts, rights []Row }
			index := map[string]int{}
			var groups []bucket
			for _, rec := range recs {
				g, ok := index[string(rec.Key)]
				if !ok {
					g = len(groups)
					index[string(rec.Key)] = g
					groups = append(groups, bucket{})
				}
				schema, side := rightSchema, &groups[g].rights
				if rec.Value[0] == 'L' {
					schema, side = leftSchema, &groups[g].lefts
				}
				row, err := decodeRow(schema, rec.Value[1:])
				if err != nil {
					panic(fmt.Sprintf("table: join decode: %v", err))
				}
				*side = append(*side, row)
			}
			var out []core.Row
			for _, g := range groups {
				for _, lrow := range g.lefts {
					for _, rrow := range g.rights {
						joined := make(Row, 0, len(lrow)+len(rrow))
						joined = append(joined, lrow...)
						joined = append(joined, rrow...)
						out = append(out, joined)
					}
				}
			}
			return out
		},
	})
	return &Table{eng: t.eng, plan: plan, schema: outSchema}, nil
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

func pickSplits(sample [][]byte, parts int) [][]byte {
	sorted := append([][]byte(nil), sample...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && bytes.Compare(sorted[j], sorted[j-1]) < 0; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var out [][]byte
	for i := 1; i < parts && len(sorted) > 0; i++ {
		idx := i * len(sorted) / parts
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		s := sorted[idx]
		if len(out) == 0 || !bytes.Equal(out[len(out)-1], s) {
			out = append(out, s)
		}
	}
	return out
}
