package table

import (
	"fmt"
	"math"
	"slices"

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

// Name is the aggregate's output column: As, or "count" / "<op>_<col>".
func (a Agg) Name() string {
	if a.As != "" {
		return a.As
	}
	if a.Op == Count {
		return "count"
	}
	return fmt.Sprintf("%s_%s", a.Op, a.Col)
}

// OutType is the aggregate's output type over an input column of type
// in: Count is Int64, Avg is Float64, and Sum, Min and Max keep in.
func (a Agg) OutType(in Type) Type {
	switch a.Op {
	case Count:
		return Int64
	case Avg:
		return Float64
	default:
		return in
	}
}

// Grouped is a group-by builder; call Agg to produce the result table.
type Grouped struct {
	t    *Table
	keys []string
	// Set by JoinGroupBy: the input is t joined with right, which join
	// plans; peek sees each join partition's match count.
	right *Table
	join  func(joinOut) (*core.Plan, error)
	peek  func(part, pairs int)
}

// GroupBy starts a grouped aggregation on the named key columns.
func (t *Table) GroupBy(keys ...string) *Grouped {
	return &Grouped{t: t, keys: keys}
}

// JoinGroupBy starts a grouped aggregation over t inner-joined with right
// on t.leftCol == right.rightCol — HashJoin's join with parts partitions,
// or BroadcastJoin's with parts 0 — that never builds the joined batch:
// each join partition folds its matches straight into the aggregate's
// map-side table, in the joined batch's order, so every result is
// GroupBy(keys...).Agg over the join's to the bit. peek, if not nil, is
// told each join partition's match count, as a Peek on the join would be.
func (t *Table) JoinGroupBy(right *Table, leftCol, rightCol string, parts int, peek func(part, pairs int), keys ...string) *Grouped {
	join := func(out joinOut) (*core.Plan, error) {
		if parts > 0 {
			return t.hashJoin(right, leftCol, rightCol, parts, out)
		}
		return t.broadcastJoin(right, leftCol, rightCol, out)
	}
	return &Grouped{t: t, keys: keys, right: right, join: join, peek: peek}
}

// aggPlan is the resolved execution info per spec.
type aggPlan struct {
	spec   Agg
	colIdx int  // -1 for Count
	typ    Type // column type (Int64 for Count)
}

// Agg executes the grouped aggregation in three steps: each map task
// pre-aggregates its partition — or, after JoinGroupBy, its join
// partition's matches — into typed per-group slots (aggTable), the
// shuffle carries one (composite key, appendState bytes) record per group
// per map task, and each reduce task merges the records it fetched into
// slots of the same kind and renders one row per group.
func (g *Grouped) Agg(parts int, aggs ...Agg) (*Table, error) {
	t, schema := g.t, g.t.schema
	if g.right != nil {
		schema = JoinSchema(t.schema, g.right.schema)
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("table: GroupBy.Agg needs at least one aggregate")
	}
	keyIdx := make([]int, len(g.keys))
	outCols := make([]Col, 0, len(g.keys)+len(aggs))
	for i, k := range g.keys {
		j, err := schema.MustIndex(k)
		if err != nil {
			return nil, err
		}
		keyIdx[i] = j
		outCols = append(outCols, schema.Cols[j])
	}
	plans := make([]aggPlan, len(aggs))
	for i, a := range aggs {
		p := aggPlan{spec: a, colIdx: -1, typ: Int64}
		if a.Op != Count {
			j, err := schema.MustIndex(a.Col)
			if err != nil {
				return nil, err
			}
			p.colIdx = j
			p.typ = schema.Cols[j].Type
			if a.Op != Min && a.Op != Max && p.typ == String {
				return nil, fmt.Errorf("table: %s over string column %q", a.Op, a.Col)
			}
		}
		outCols = append(outCols, Col{Name: a.Name(), Type: a.OutType(p.typ)})
		plans[i] = p
	}
	outSchema := Schema{Cols: outCols}

	// fold pre-aggregates the rows each yields as (l, r) pairs and counts
	// them. A left row's pairs come one after another, so when every key is
	// a left column they share one group lookup.
	fold := func(left, right []Vector, each func(yield func(l, r int32))) (*aggTable, int) {
		tab, rows, leftKeys := &aggTable{plans: plans}, 0, !slices.ContainsFunc(keyIdx, func(j int) bool { return j >= len(left) })
		var key []byte
		var slots []aggSlot
		cl, cr := -1, 0
		col := func(j int) (*Vector, int) { // input column j's vector and the row's index in it
			switch {
			case j < 0: // Count's
				return nil, 0
			case j < len(left):
				return &left[j], cl
			}
			return &right[j-len(left)], cr
		}
		each(func(l, r int32) {
			lookup := !leftKeys || int(l) != cl
			cl, cr, rows = int(l), int(r), rows+1
			if lookup {
				key = key[:0]
				for _, j := range keyIdx { // self-delimiting encodings: the concatenation is unambiguous and ordered
					v, i := col(j)
					key = appendSortableKey(key, schema.Cols[j].Type, v, i, false)
				}
				slots = tab.group(key)
			}
			for k := range plans {
				v, i := col(plans[k].colIdx)
				plans[k].fold(&slots[k], v, i)
			}
		})
		return tab, rows
	}
	input, partial := t.plan, func(row core.Row) *aggTable {
		b := row.(*Batch)
		tab, _ := fold(b.Cols, nil, func(yield func(l, r int32)) {
			for i := int32(0); int(i) < b.n; i++ {
				yield(i, 0)
			}
		})
		return tab
	}
	if g.join != nil {
		var err error
		input, err = g.join(func(ctx *core.TaskContext, left, right *Batch, _ int, each func(func(l, r int32))) core.Row {
			tab, pairs := fold(left.Cols, right.Cols, each)
			if g.peek != nil {
				g.peek(ctx.Partition, pairs)
			}
			return tab
		})
		if err != nil {
			return nil, err
		}
		partial = func(row core.Row) *aggTable { return row.(*aggTable) }
	}
	if parts <= 0 {
		parts = input.Partitions()
	}
	plan := t.eng.NewShuffled(input, core.ShuffleDep{
		Partitions: parts,
		Emit:       func(row core.Row, w shuffle.Writer) error { return partial(row).emit(w) },
		Post: func(_ *core.TaskContext, recs shuffle.Records) []core.Row {
			tab := &aggTable{plans: plans}
			for r := 0; r < recs.Len(); r++ { // arrival order: float sums depend on it
				if err := mergeEncoded(plans, tab.group(recs.Key(r)), recs.Value(r)); err != nil {
					panic(fmt.Sprintf("table: agg state decode: %v", err))
				}
			}
			return []core.Row{tab.batch(outSchema, len(keyIdx))}
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
	index shuffle.ByteKeyTable // composite key -> group number
	slots []aggSlot            // group g owns slots[g*len(plans):][:len(plans)]
}

// group returns the slots of key's group, adding the group if it is new.
func (t *aggTable) group(key []byte) []aggSlot {
	n := len(t.plans)
	g, added := t.index.ID(key)
	if added {
		for range t.plans {
			t.slots = append(t.slots, aggSlot{f: negZero})
		}
	}
	return t.slots[int(g)*n:][:n]
}

// fold folds value i of the aggregated column v (nil for Count) into dst:
// the state of the single-row group {i} merged in.
func (p *aggPlan) fold(dst *aggSlot, v *Vector, i int) {
	src := aggSlot{n: 1}
	switch {
	case p.spec.Op == Count:
	case p.typ == Int64:
		src.i = v.Ints[i]
		if p.spec.Op == Avg {
			src.f = float64(src.i)
		}
	case p.typ == Float64:
		src.f = v.Floats[i]
	default:
		src.s = v.Strings[i]
	}
	p.merge(dst, src)
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
			case Float64: // the sort key's total order: NaN and the zeros have a place in it
				so, do := serde.SortableFloat64Bits(src.f), serde.SortableFloat64Bits(dst.f)
				less, greater = so < do, so > do
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

// render appends the slot's output value to the aggregate's output column.
func (p *aggPlan) render(v *Vector, s *aggSlot) {
	switch {
	case p.spec.Op == Count:
		v.Ints = append(v.Ints, s.n)
	case p.spec.Op == Avg && s.n == 0:
		v.Floats = append(v.Floats, math.NaN())
	case p.spec.Op == Avg:
		v.Floats = append(v.Floats, s.f/float64(s.n))
	case p.typ == Int64:
		v.Ints = append(v.Ints, s.i)
	case p.typ == Float64:
		v.Floats = append(v.Floats, s.f)
	default:
		v.Strings = append(v.Strings, s.s)
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
		var str []byte
		str, rest, err = readBytes(b)
		s.s = string(str)
	}
	return rest, err
}

// emit writes one shuffle record per group — composite key, encoded state
// — in ascending key order, which is the order a map-side combiner flushes
// its groups in. Nothing folds into t once emit is called, so its
// callbacks encode a group alike until the writer is closed.
func (t *aggTable) emit(w shuffle.Writer) error {
	keys, n := t.index.Keys(), len(t.plans)
	order := shuffle.KeyOrder(keys)
	return shuffle.WriteRecords(w, len(order),
		func(dst []byte, i int) []byte { return append(dst, keys[order[i]]...) },
		func(dst []byte, i int) []byte { return appendState(dst, t.plans, t.slots[int(order[i])*n:][:n]) })
}

// batch renders one output row per group, in order of first appearance:
// the key columns decoded from the composite key, then each spec's value.
func (t *aggTable) batch(out Schema, nKeys int) *Batch {
	n, keys := len(t.plans), t.index.Keys()
	b := newBatch(out, len(keys))
	for g, key := range keys {
		if err := decodeCompositeKey(b.Cols[:nKeys], out, key); err != nil {
			panic(fmt.Sprintf("table: group key decode: %v", err))
		}
		for i := range t.plans {
			t.plans[i].render(&b.Cols[nKeys+i], &t.slots[g*n+i])
		}
	}
	b.n = len(keys)
	return b
}

// decodeCompositeKey takes the sortable encodings of one group's key
// values apart, appending value k to dst[k]; s.Cols[k] gives its type.
func decodeCompositeKey(dst []Vector, s Schema, key []byte) error {
	for k := range dst {
		n, err := 8, error(nil)
		switch s.Cols[k].Type {
		case Int64:
			var v int64
			v, err = serde.FromSortableInt64Key(key)
			dst[k].Ints = append(dst[k].Ints, v)
		case Float64:
			var v float64
			v, err = serde.FromSortableFloat64Key(key)
			dst[k].Floats = append(dst[k].Floats, v)
		default:
			var v string
			v, n, err = serde.FromSortableStringKey(key)
			dst[k].Strings = append(dst[k].Strings, v)
		}
		if err != nil {
			return err
		}
		key = key[n:]
	}
	return nil
}
