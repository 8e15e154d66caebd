package table

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/group"
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
	// Where its state fields sit in a group's stretch of an aggTable's
	// vectors (newAggLayout).
	n, v, seen int
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
	outSchema, layout := Schema{Cols: outCols}, newAggLayout(plans)

	// fold pre-aggregates the rows each yields as (l, r) pairs and counts
	// them. A left row's pairs come one after another, so when every key is
	// a left column they share one group lookup.
	fold := func(left, right []Vector, each func(yield func(l, r int32))) (*aggTable, int) {
		tab, rows, leftKeys := &aggTable{aggLayout: layout}, 0, !slices.ContainsFunc(keyIdx, func(j int) bool { return j >= len(left) })
		if len(keyIdx) == 1 {
			tab.col = &colKeys{typ: schema.Cols[keyIdx[0]].Type}
		}
		var key []byte
		grp, cl, cr := 0, -1, 0
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
			switch {
			case lookup && tab.col != nil:
				grp = tab.add(tab.col.id(col(keyIdx[0])))
			case lookup:
				key = key[:0]
				for _, j := range keyIdx { // self-delimiting encodings: the concatenation is unambiguous and ordered
					v, i := col(j)
					key = appendSortableKey(key, schema.Cols[j].Type, v, i, false)
				}
				grp = tab.group(key)
			}
			for k := range plans {
				v, i := col(plans[k].colIdx)
				tab.fold(k, grp, v, i)
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
			tab := &aggTable{aggLayout: layout}
			for r := 0; r < recs.Len(); r++ { // arrival order: float sums depend on it
				if err := tab.mergeEncoded(tab.group(recs.Key(r)), recs.Value(r)); err != nil {
					panic(fmt.Sprintf("table: agg state decode: %v", err))
				}
			}
			return []core.Row{tab.batch(outSchema, len(keyIdx))}
		},
	})
	return &Table{eng: t.eng, plan: plan, schema: outSchema}, nil
}

// negZero is the additive identity that keeps a sum of only -0.0 at -0.0,
// as folding the values into each other without a starting zero would.
var negZero = math.Copysign(0, -1)

// aggLayout is the resolved aggregate list and the number of state fields
// a group holds in each of an aggTable's typed vectors.
type aggLayout struct {
	plans                        []aggPlan
	nInts, nFloats, nSeen, nStrs int
}

// newAggLayout places each aggregate's state fields, and only those it
// uses, in a group's stretch of the typed vectors (plan.n, .v, .seen):
//
//	Count                n in ints: the row count
//	Sum                  v in ints or floats, by column type
//	Avg                  v in floats (the sum), n in ints (the row count)
//	Min, Max             v in ints, floats or strs, by column type; seen
func newAggLayout(plans []aggPlan) *aggLayout {
	l := &aggLayout{plans: plans}
	next := func(n *int) int { *n++; return *n - 1 }
	for k := range plans {
		p := &plans[k]
		switch p.spec.Op {
		case Count:
			p.n = next(&l.nInts)
		case Avg:
			p.v, p.n = next(&l.nFloats), next(&l.nInts)
		default:
			switch p.typ {
			case Int64:
				p.v = next(&l.nInts)
			case Float64:
				p.v = next(&l.nFloats)
			default:
				p.v = next(&l.nStrs)
			}
			if p.spec.Op != Sum {
				p.seen = next(&l.nSeen)
			}
		}
	}
	return l
}

// aggTable folds rows or encoded partial states into per-group states held
// group after group in typed vectors, each grown in step with the key
// table: one hash lookup per input and no allocation unless the group is
// new. Groups are numbered in order of first appearance. Only strs, for
// Min and Max over strings, holds pointers.
type aggTable struct {
	*aggLayout
	index  group.ByteKeyTable // composite key -> group number
	col    *colKeys           // or, on the map side of a one-column key, its value
	ints   []int64            // group g's fields: ints[g*nInts:][:nInts], and so on
	floats []float64
	seen   []bool // Min, Max: a value is present
	strs   []string
}

// Field i of group g in each vector.
func (t *aggTable) int64At(g, i int) *int64     { return &t.ints[g*t.nInts+i] }
func (t *aggTable) float64At(g, i int) *float64 { return &t.floats[g*t.nFloats+i] }
func (t *aggTable) seenAt(g, i int) *bool       { return &t.seen[g*t.nSeen+i] }
func (t *aggTable) stringAt(g, i int) *string   { return &t.strs[g*t.nStrs+i] }

// group returns key's group number, adding the group if it is new.
func (t *aggTable) group(key []byte) int { return t.add(t.index.ID(key)) }

// add returns group g, a key's number, giving it state if the key is new.
func (t *aggTable) add(g int32, added bool) int {
	if added {
		t.grow()
	}
	return int(g)
}

// grow gives the newest group its state; full vectors grow to room groups.
func (t *aggTable) grow() {
	room := t.index.Cap()
	if t.col != nil {
		room = t.col.room()
	}
	t.ints = extend(t.ints, t.nInts, 0, room)
	t.floats = extend(t.floats, t.nFloats, negZero, room)
	t.seen = extend(t.seen, t.nSeen, false, room)
	t.strs = extend(t.strs, t.nStrs, "", room)
}

// extend appends width copies of x to v, one more group's fields; when v
// is full it first grows to room groups.
func extend[T any](v []T, width int, x T, room int) []T {
	if len(v)+width > cap(v) {
		v = slices.Grow(v, room*width-len(v))
	}
	for range width {
		v = append(v, x)
	}
	return v
}

// fold folds value i of the aggregated column v (nil for Count) into group
// g's state of aggregate k: the state of the single-row group {i} merged in.
func (t *aggTable) fold(k, g int, v *Vector, i int) {
	p := &t.plans[k]
	switch {
	case p.spec.Op == Count:
		*t.int64At(g, p.n)++
	case p.spec.Op == Avg:
		var x float64
		if p.typ == Int64 {
			x = float64(v.Ints[i])
		} else {
			x = v.Floats[i]
		}
		*t.float64At(g, p.v) += x
		*t.int64At(g, p.n)++
	case p.typ == Int64:
		t.mergeInt(p, g, v.Ints[i])
	case p.typ == Float64:
		t.mergeFloat(p, g, v.Floats[i])
	default:
		if x, s := v.Strings[i], t.stringAt(g, p.v); t.wins(p, g, strings.Compare(x, *s)) {
			*s = x
		}
	}
}

// mergeInt folds x into p's Sum, Min or Max over Int64 in group g.
func (t *aggTable) mergeInt(p *aggPlan, g int, x int64) {
	if s := t.int64At(g, p.v); p.spec.Op == Sum {
		*s += x
	} else if t.wins(p, g, cmp.Compare(x, *s)) {
		*s = x
	}
}

// mergeFloat folds x into p's Sum, Min or Max over Float64 in group g.
// Min and Max use the sort key's total order: NaN and the zeros have a
// place in it.
func (t *aggTable) mergeFloat(p *aggPlan, g int, x float64) {
	if s := t.float64At(g, p.v); p.spec.Op == Sum {
		*s += x
	} else if t.wins(p, g, cmp.Compare(serde.SortableFloat64Bits(x), serde.SortableFloat64Bits(*s))) {
		*s = x
	}
}

// wins reports whether a value that compares c with the value of p's Min
// or Max in group g (c < 0: less) takes its place, as it does when no
// value is present yet. Either way a value is present afterwards.
func (t *aggTable) wins(p *aggPlan, g int, c int) bool {
	if seen := t.seenAt(g, p.seen); !*seen {
		*seen = true
		return true
	}
	return (p.spec.Op == Min && c < 0) || (p.spec.Op == Max && c > 0)
}

// render appends group g's value of aggregate k to the output column v.
func (t *aggTable) render(k, g int, v *Vector) {
	p := &t.plans[k]
	switch {
	case p.spec.Op == Count:
		v.Ints = append(v.Ints, *t.int64At(g, p.n))
	case p.spec.Op == Avg:
		if n := *t.int64At(g, p.n); n == 0 {
			v.Floats = append(v.Floats, math.NaN())
		} else {
			v.Floats = append(v.Floats, *t.float64At(g, p.v)/float64(n))
		}
	case p.typ == Int64:
		v.Ints = append(v.Ints, *t.int64At(g, p.v))
	case p.typ == Float64:
		v.Floats = append(v.Floats, *t.float64At(g, p.v))
	default:
		v.Strings = append(v.Strings, *t.stringAt(g, p.v))
	}
}

// appendState serializes group g's state, aggregate by aggregate: Count a
// varint; Sum a varint (Int64) or the 8 fixed bytes of the float's bits;
// Avg the sum's 8 bytes then the count varint; Min/Max a presence byte
// followed, when 1, by the value as a varint, 8 fixed bytes, or varint
// length + bytes.
func (t *aggTable) appendState(dst []byte, g int) []byte {
	for k := range t.plans {
		p := &t.plans[k]
		switch p.spec.Op {
		case Count:
			dst = serde.AppendInt64(dst, *t.int64At(g, p.n))
		case Avg:
			dst = serde.AppendUint64(dst, math.Float64bits(*t.float64At(g, p.v)))
			dst = serde.AppendInt64(dst, *t.int64At(g, p.n))
		case Min, Max:
			if !*t.seenAt(g, p.seen) {
				dst = append(dst, 0)
				continue
			}
			dst = t.appendValue(append(dst, 1), p, g)
		default:
			dst = t.appendValue(dst, p, g)
		}
	}
	return dst
}

// appendValue appends p's value in group g: a Sum, Min or Max.
func (t *aggTable) appendValue(dst []byte, p *aggPlan, g int) []byte {
	switch p.typ {
	case Int64:
		return serde.AppendInt64(dst, *t.int64At(g, p.v))
	case Float64:
		return serde.AppendUint64(dst, math.Float64bits(*t.float64At(g, p.v)))
	default:
		s := *t.stringAt(g, p.v)
		return append(serde.AppendInt64(dst, int64(len(s))), s...)
	}
}

// mergeEncoded folds one appendState encoding into group g. On an error
// the group may hold part of the encoding.
func (t *aggTable) mergeEncoded(g int, b []byte) error {
	for k := range t.plans {
		p := &t.plans[k]
		var err error
		switch p.spec.Op {
		case Count:
			var n int64
			if n, b, err = readInt(b); err == nil {
				*t.int64At(g, p.n) += n
			}
		case Avg:
			var sum float64
			var n int64
			if sum, b, err = readFloat(b); err == nil {
				if n, b, err = readInt(b); err == nil {
					*t.float64At(g, p.v) += sum
					*t.int64At(g, p.n) += n
				}
			}
		case Min, Max:
			if len(b) == 0 {
				return serde.ErrCorrupt
			}
			present := b[0]
			if b = b[1:]; present != 0 {
				b, err = t.mergeValue(p, g, b)
			}
		default:
			b, err = t.mergeValue(p, g, b)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeValue reads one appendValue encoding from b and folds it into p's
// Sum, Min or Max in group g. A string is copied only when it wins.
func (t *aggTable) mergeValue(p *aggPlan, g int, b []byte) (rest []byte, err error) {
	switch p.typ {
	case Int64:
		var x int64
		if x, rest, err = readInt(b); err == nil {
			t.mergeInt(p, g, x)
		}
	case Float64:
		var x float64
		if x, rest, err = readFloat(b); err == nil {
			t.mergeFloat(p, g, x)
		}
	default:
		var x []byte
		if x, rest, err = readBytes(b); err == nil {
			if s := t.stringAt(g, p.v); t.wins(p, g, compareBytes(x, *s)) {
				*s = string(x)
			}
		}
	}
	return rest, err
}

// compareBytes is strings.Compare(string(b), s) without copying b.
func compareBytes(b []byte, s string) int {
	switch {
	case string(b) < s:
		return -1
	case string(b) > s:
		return 1
	}
	return 0
}

// emit writes one shuffle record per group — composite key, encoded state
// — in ascending key order, the order a map-side combiner flushes its
// groups in (a one-column key is encoded here). Nothing folds into t once
// emit is called, so its callbacks encode a group alike until the writer
// is closed.
func (t *aggTable) emit(w shuffle.Writer) error {
	n, key := t.index.Len(), t.index.Key
	if t.col != nil {
		n, key = t.col.sortable()
	}
	order := shuffle.KeyOrder(n, key)
	return shuffle.WriteRecords(w, len(order),
		func(dst []byte, i int) []byte { return append(dst, key(order[i])...) },
		func(dst []byte, i int) []byte { return t.appendState(dst, int(order[i])) })
}

// batch renders one output row per group, in order of first appearance:
// the key columns decoded from the composite key, then each aggregate's
// value.
func (t *aggTable) batch(out Schema, nKeys int) *Batch {
	n := t.index.Len()
	b := newBatch(out, n)
	for g := range n {
		if err := decodeCompositeKey(b.Cols[:nKeys], out, t.index.Key(int32(g))); err != nil {
			panic(fmt.Sprintf("table: group key decode: %v", err))
		}
		for k := range t.plans {
			t.render(k, g, &b.Cols[nKeys+k])
		}
	}
	b.n = n
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
