package table

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/shuffle"
)

// AggOp is an aggregation operator.
type AggOp int

// Aggregation operators.
const (
	Sum AggOp = iota
	Count
	Min
	Max
	Avg
)

func (o AggOp) String() string {
	switch o {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "avg"
	}
}

// Agg describes one aggregate: Op over Col, named As in the output
// (default "<op>_<col>"). Count ignores Col.
type Agg struct {
	Op  AggOp
	Col string
	As  string
}

func (a Agg) name() string {
	if a.As != "" {
		return a.As
	}
	if a.Op == Count {
		return "count"
	}
	return fmt.Sprintf("%s_%s", a.Op, a.Col)
}

// Grouped is a group-by builder; call Agg to produce the result table.
type Grouped struct {
	t    *Table
	keys []string
}

// GroupBy starts a grouped aggregation on the named key columns.
func (t *Table) GroupBy(keys ...string) *Grouped {
	return &Grouped{t: t, keys: keys}
}

// aggPlan is the resolved execution info per spec.
type aggPlan struct {
	spec   Agg
	colIdx int  // -1 for Count
	typ    Type // column type (Int64 for Count)
}

// Agg executes the grouped aggregation in three steps: each map task
// pre-aggregates its partition into typed per-group slots (aggTable), the
// shuffle carries one (composite key, appendState bytes) record per group
// per map task, and each reduce task merges the records it fetched into
// slots of the same kind and renders one row per group.
func (g *Grouped) Agg(parts int, aggs ...Agg) (*Table, error) {
	t := g.t
	if len(aggs) == 0 {
		return nil, fmt.Errorf("table: GroupBy.Agg needs at least one aggregate")
	}
	if parts <= 0 {
		parts = t.Partitions()
	}
	keyIdx := make([]int, len(g.keys))
	outCols := make([]Col, 0, len(g.keys)+len(aggs))
	for i, k := range g.keys {
		j, err := t.schema.MustIndex(k)
		if err != nil {
			return nil, err
		}
		keyIdx[i] = j
		outCols = append(outCols, t.schema.Cols[j])
	}
	plans := make([]aggPlan, len(aggs))
	for i, a := range aggs {
		p := aggPlan{spec: a, colIdx: -1, typ: Int64}
		if a.Op != Count {
			j, err := t.schema.MustIndex(a.Col)
			if err != nil {
				return nil, err
			}
			p.colIdx = j
			p.typ = t.schema.Cols[j].Type
			if a.Op != Min && a.Op != Max && p.typ == String {
				return nil, fmt.Errorf("table: %s over string column %q", a.Op, a.Col)
			}
		}
		outType := Int64
		switch a.Op {
		case Sum, Min, Max:
			outType = p.typ
		case Avg:
			outType = Float64
		}
		outCols = append(outCols, Col{Name: a.name(), Type: outType})
		plans[i] = p
	}
	outSchema := Schema{Cols: outCols}
	schema := t.schema

	pre := t.eng.NewNarrow(t.plan, func(_ *core.TaskContext, rows []core.Row) []core.Row {
		tab := newAggTable(plans)
		var key []byte
		for _, r := range rows {
			row := r.(Row)
			key = appendCompositeKey(key[:0], schema, keyIdx, row)
			slots := tab.group(key)
			for i := range plans {
				plans[i].merge(&slots[i], plans[i].partial(row))
			}
		}
		return tab.records()
	})
	plan := t.eng.NewShuffled(pre, core.ShuffleDep{
		Partitions: parts,
		KeyOf:      recordKey,
		ValueOf:    recordValue,
		Post: func(_ *core.TaskContext, recs []shuffle.Record) []core.Row {
			tab := newAggTable(plans)
			for _, rec := range recs { // arrival order: float sums depend on it
				if err := mergeEncoded(plans, tab.group(rec.Key), rec.Value); err != nil {
					panic(fmt.Sprintf("table: agg state decode: %v", err))
				}
			}
			return tab.rows(schema, keyIdx)
		},
	})
	return &Table{eng: t.eng, plan: plan, schema: outSchema}, nil
}

// aggSlot is one (group, spec) partial aggregate. Which fields a spec uses
// follows from its operator and column type.
type aggSlot struct {
	i int64   // Sum/Min/Max over Int64
	f float64 // Sum/Min/Max over Float64; Avg's sum
	n int64   // Count; Avg's row count; Min/Max: 0 until a value is present
	s string  // Min/Max over String
}

// negZero is the additive identity that keeps a sum of only -0.0 at -0.0,
// as folding the values into each other without a starting zero would.
var negZero = math.Copysign(0, -1)

// aggTable folds rows or encoded partial states into typed per-group
// slots: one hash lookup per input and no allocation unless the group is
// new. Groups are numbered in order of first appearance.
type aggTable struct {
	plans []aggPlan
	index map[string]int // composite key -> group number
	keys  []string       // group number -> composite key
	slots []aggSlot      // group g owns slots[g*len(plans):][:len(plans)]
}

func newAggTable(plans []aggPlan) *aggTable {
	return &aggTable{plans: plans, index: map[string]int{}}
}

// group returns the slots of key's group, adding the group if it is new.
func (t *aggTable) group(key []byte) []aggSlot {
	n := len(t.plans)
	g, ok := t.index[string(key)] // no allocation: the conversion is only a lookup
	if !ok {
		g = len(t.keys)
		k := string(key)
		t.index[k] = g
		t.keys = append(t.keys, k)
		for range t.plans {
			t.slots = append(t.slots, aggSlot{f: negZero})
		}
	}
	return t.slots[g*n : (g+1)*n]
}

// partial is the state of the single-row group {r}.
func (p *aggPlan) partial(r Row) aggSlot {
	s := aggSlot{n: 1}
	if p.spec.Op == Count {
		return s
	}
	switch v := r[p.colIdx].(type) {
	case int64:
		s.i = v
		if p.spec.Op == Avg {
			s.f = float64(v)
		}
	case float64:
		s.f = v
	case string:
		s.s = v
	}
	return s
}

// merge folds the partial state src into dst.
func (p *aggPlan) merge(dst *aggSlot, src aggSlot) {
	switch p.spec.Op {
	case Count:
		dst.n += src.n
	case Sum:
		dst.i += src.i
		dst.f += src.f
	case Avg:
		dst.f += src.f
		dst.n += src.n
	case Min, Max:
		if src.n == 0 {
			return
		}
		if dst.n != 0 {
			var less, greater bool
			switch p.typ {
			case Int64:
				less, greater = src.i < dst.i, src.i > dst.i
			case Float64:
				less, greater = src.f < dst.f, src.f > dst.f
			default:
				less, greater = src.s < dst.s, src.s > dst.s
			}
			if (p.spec.Op == Min && !less) || (p.spec.Op == Max && !greater) {
				return
			}
		}
		*dst = src
	}
}

// value renders the slot's output column value.
func (p *aggPlan) value(s *aggSlot) any {
	switch {
	case p.spec.Op == Count:
		return s.n
	case p.spec.Op == Avg:
		if s.n == 0 {
			return math.NaN()
		}
		return s.f / float64(s.n)
	case p.typ == Int64:
		return s.i
	case p.typ == Float64:
		return s.f
	default:
		return s.s
	}
}

// appendState serializes one group's slots, spec by spec: Count a varint;
// Sum a varint (Int64) or the 8 fixed bytes of the float's bits; Avg the
// sum's 8 bytes then the count varint; Min/Max a presence byte followed,
// when 1, by the value as a varint, 8 fixed bytes, or varint length + bytes.
func appendState(dst []byte, plans []aggPlan, slots []aggSlot) []byte {
	for i, p := range plans {
		s := &slots[i]
		switch p.spec.Op {
		case Count:
			dst = serde.AppendInt64(dst, s.n)
		case Sum:
			dst = appendScalar(dst, p.typ, s)
		case Avg:
			dst = serde.AppendUint64(dst, math.Float64bits(s.f))
			dst = serde.AppendInt64(dst, s.n)
		case Min, Max:
			if s.n == 0 {
				dst = append(dst, 0)
				continue
			}
			dst = appendScalar(append(dst, 1), p.typ, s)
		}
	}
	return dst
}

func appendScalar(dst []byte, typ Type, s *aggSlot) []byte {
	switch typ {
	case Int64:
		return serde.AppendInt64(dst, s.i)
	case Float64:
		return serde.AppendUint64(dst, math.Float64bits(s.f))
	default:
		return append(serde.AppendInt64(dst, int64(len(s.s))), s.s...)
	}
}

// mergeEncoded folds one appendState encoding into slots.
func mergeEncoded(plans []aggPlan, slots []aggSlot, b []byte) error {
	for i := range plans {
		p := &plans[i]
		var src aggSlot
		var err error
		switch p.spec.Op {
		case Count:
			src.n, b, err = readInt(b)
		case Sum:
			b, err = readScalar(b, p.typ, &src)
		case Avg:
			if src.f, b, err = readFloat(b); err == nil {
				src.n, b, err = readInt(b)
			}
		case Min, Max:
			if len(b) == 0 {
				return serde.ErrCorrupt
			}
			present := b[0]
			if b = b[1:]; present != 0 {
				src.n = 1
				b, err = readScalar(b, p.typ, &src)
			}
		}
		if err != nil {
			return err
		}
		p.merge(&slots[i], src)
	}
	return nil
}

func readScalar(b []byte, typ Type, s *aggSlot) (rest []byte, err error) {
	switch typ {
	case Int64:
		s.i, rest, err = readInt(b)
	case Float64:
		s.f, rest, err = readFloat(b)
	default:
		s.s, rest, err = readString(b)
	}
	return rest, err
}

// records renders one shuffle record per group — composite key, encoded
// state — in ascending key order, which is the order a map-side combiner
// flushes its groups in.
func (t *aggTable) records() []core.Row {
	order := make([]int, len(t.keys))
	for g := range order {
		order[g] = g
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(t.keys[a], t.keys[b]) })
	n := len(t.plans)
	var buf []byte
	ends := make([]int, 0, 2*len(order))
	for _, g := range order {
		buf = append(buf, t.keys[g]...)
		ends = append(ends, len(buf))
		buf = appendState(buf, t.plans, t.slots[g*n:(g+1)*n])
		ends = append(ends, len(buf))
	}
	return sliceRecords(buf, ends)
}

// rows renders one output row per group, in order of first appearance:
// the decoded key columns, then each spec's value.
func (t *aggTable) rows(s Schema, keyIdx []int) []core.Row {
	n, width := len(t.plans), len(keyIdx)+len(t.plans)
	vals := make([]any, len(t.keys)*width)
	out := make([]core.Row, len(t.keys))
	var key []byte
	for g := range out {
		row := vals[g*width : (g+1)*width : (g+1)*width]
		key = append(key[:0], t.keys[g]...)
		if err := decodeCompositeKey(row, s, keyIdx, key); err != nil {
			panic(fmt.Sprintf("table: group key decode: %v", err))
		}
		for i := range t.plans {
			row[len(keyIdx)+i] = t.plans[i].value(&t.slots[g*n+i])
		}
		out[g] = Row(row)
	}
	return out
}

// decodeCompositeKey inverts appendCompositeKey for the group-key
// columns, writing their values to dst[:len(idx)].
func decodeCompositeKey(dst []any, s Schema, idx []int, key []byte) error {
	for k, i := range idx {
		switch s.Cols[i].Type {
		case Int64:
			v, err := serde.FromSortableInt64Key(key)
			if err != nil {
				return err
			}
			dst[k] = v
			key = key[8:]
		case Float64:
			v, err := serde.FromSortableFloat64Key(key)
			if err != nil {
				return err
			}
			dst[k] = v
			key = key[8:]
		default:
			v, n, err := serde.FromSortableStringKey(key)
			if err != nil {
				return err
			}
			dst[k] = v
			key = key[n:]
		}
	}
	return nil
}
