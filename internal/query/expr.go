// Package query is a SQL-ish query layer over internal/table and
// internal/core: a logical plan (scan, filter, project, join,
// aggregate, sort, limit) parsed from text or built with a fluent API,
// compiled onto the dataflow engine by a cost-based optimizer that
// pushes predicates and projections into the columnar scan, reorders
// star joins, and picks broadcast vs shuffle join strategies from
// per-table statistics.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/table"
)

// CmpOp is a comparison operator in a predicate leaf.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// ExprKind discriminates predicate nodes.
type ExprKind int

// Predicate node kinds.
const (
	ExprCmp ExprKind = iota
	ExprAnd
	ExprOr
)

// Expr is a boolean predicate over one row: a comparison of a column
// against a literal, or AND/OR of two sub-predicates. Exprs are plain
// data so the optimizer can split conjuncts, the columnar scan can
// derive zone-map ranges, and the differential oracle can evaluate the
// same predicate on its own rows.
type Expr struct {
	Kind        ExprKind
	Left, Right *Expr // And/Or children

	// Cmp leaf: Col <op> Val with Val an int64, float64 or string.
	Col string
	Cmp CmpOp
	Val any
}

// Cmp builds a comparison leaf.
func Cmp(col string, op CmpOp, val any) *Expr {
	return &Expr{Kind: ExprCmp, Col: col, Cmp: op, Val: val}
}

// And conjoins two predicates.
func And(a, b *Expr) *Expr { return &Expr{Kind: ExprAnd, Left: a, Right: b} }

// Or disjoins two predicates.
func Or(a, b *Expr) *Expr { return &Expr{Kind: ExprOr, Left: a, Right: b} }

// Cols returns the distinct column names the predicate reads, sorted.
func (e *Expr) Cols() []string {
	set := map[string]bool{}
	e.walk(func(leaf *Expr) { set[leaf.Col] = true })
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) walk(f func(leaf *Expr)) {
	if e == nil {
		return
	}
	if e.Kind == ExprCmp {
		f(e)
		return
	}
	e.Left.walk(f)
	e.Right.walk(f)
}

// String renders the predicate in SQL-ish syntax.
func (e *Expr) String() string {
	if e == nil {
		return "true"
	}
	switch e.Kind {
	case ExprCmp:
		if s, ok := e.Val.(string); ok {
			return fmt.Sprintf("%s %s '%s'", e.Col, e.Cmp, s)
		}
		if f, ok := e.Val.(float64); ok {
			return fmt.Sprintf("%s %s %s", e.Col, e.Cmp, strconv.FormatFloat(f, 'g', -1, 64))
		}
		return fmt.Sprintf("%s %s %v", e.Col, e.Cmp, e.Val)
	case ExprAnd:
		return fmt.Sprintf("(%s AND %s)", e.Left, e.Right)
	default:
		return fmt.Sprintf("(%s OR %s)", e.Left, e.Right)
	}
}

// conjuncts splits a top-level AND tree into its factors.
func (e *Expr) conjuncts() []*Expr {
	if e == nil {
		return nil
	}
	if e.Kind == ExprAnd {
		return append(e.Left.conjuncts(), e.Right.conjuncts()...)
	}
	return []*Expr{e}
}

// conjoin rebuilds an AND tree from factors (nil when empty).
func conjoin(es []*Expr) *Expr {
	var out *Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = And(out, e)
		}
	}
	return out
}

// renamed returns a deep copy with column names mapped through m
// (names absent from m are kept).
func (e *Expr) renamed(m map[string]string) *Expr {
	if e == nil {
		return nil
	}
	cp := *e
	if e.Kind == ExprCmp {
		if n, ok := m[e.Col]; ok {
			cp.Col = n
		}
		return &cp
	}
	cp.Left = e.Left.renamed(m)
	cp.Right = e.Right.renamed(m)
	return &cp
}

// coerce adapts a literal to a column type: int literals promote to
// Float64 columns; everything else must match exactly.
func coerce(typ table.Type, val any) (any, error) {
	switch typ {
	case table.Int64:
		if v, ok := val.(int64); ok {
			return v, nil
		}
	case table.Float64:
		switch v := val.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(v), nil
		}
	case table.String:
		if v, ok := val.(string); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("query: literal %v (%T) does not match column type %v", val, val, typ)
}

// scalar is the set of column value types.
type scalar interface{ int64 | float64 | string }

// compare evaluates v <op> lit. Float comparisons use Go semantics (every
// comparison with NaN is false except col != NaN, which is true for
// non-NaN values). It is the one comparison behind the row filter the
// oracle evaluates (Bind), the vectorized filter (BindBatch) and the
// pushed column predicates, so all three agree by construction.
func compare[T scalar](op CmpOp, v, lit T) bool {
	switch op {
	case Eq:
		return v == lit
	case Ne:
		return v != lit
	case Lt:
		return v < lit
	case Le:
		return v <= lit
	case Gt:
		return v > lit
	default:
		return v >= lit
	}
}

// literal coerces a comparison leaf's literal to column type typ, whose
// values are Ts.
func literal[T scalar](e *Expr, typ table.Type) (T, error) {
	lit, err := coerce(typ, e.Val)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("query: %s: %w", e.Col, err)
	}
	return lit.(T), nil
}

// fold builds a predicate's compiled form bottom-up: leaf compiles a
// comparison, both combines the two sides of an AND (and = true) or an OR.
func fold[F any](e *Expr, leaf func(*Expr) (F, error), both func(and bool, l, r F) F) (F, error) {
	if e.Kind == ExprCmp {
		return leaf(e)
	}
	l, err := fold(e.Left, leaf, both)
	if err != nil {
		return l, err
	}
	r, err := fold(e.Right, leaf, both)
	if err != nil {
		return r, err
	}
	return both(e.Kind == ExprAnd, l, r), nil
}

// Bind resolves the predicate against a schema and returns a row filter
// — the row-at-a-time form the reference evaluator runs. Errors on
// unknown columns or literal/column type mismatches.
func (e *Expr) Bind(s table.Schema) (func(table.Row) bool, error) {
	if e == nil {
		return func(table.Row) bool { return true }, nil
	}
	return fold(e, func(e *Expr) (func(table.Row) bool, error) {
		i, err := s.MustIndex(e.Col)
		if err != nil {
			return nil, err
		}
		switch typ := s.Cols[i].Type; typ {
		case table.Int64:
			return rowLeaf[int64](e, typ, i)
		case table.Float64:
			return rowLeaf[float64](e, typ, i)
		default:
			return rowLeaf[string](e, typ, i)
		}
	}, func(and bool, l, r func(table.Row) bool) func(table.Row) bool {
		if and {
			return func(row table.Row) bool { return l(row) && r(row) }
		}
		return func(row table.Row) bool { return l(row) || r(row) }
	})
}

func rowLeaf[T scalar](e *Expr, typ table.Type, i int) (func(table.Row) bool, error) {
	lit, err := literal[T](e, typ)
	op := e.Cmp
	return func(r table.Row) bool { return compare(op, r[i].(T), lit) }, err
}

// BindBatch resolves the predicate against a schema and returns a
// selection function for table.Filter: one typed loop over a column
// vector per comparison leaf, AND/OR combining whole selections.
func (e *Expr) BindBatch(s table.Schema) (func(b *table.Batch, keep []bool), error) {
	if e == nil {
		return func(_ *table.Batch, keep []bool) {
			for k := range keep {
				keep[k] = true
			}
		}, nil
	}
	return fold(e, func(e *Expr) (func(*table.Batch, []bool), error) {
		i, err := s.MustIndex(e.Col)
		if err != nil {
			return nil, err
		}
		switch typ := s.Cols[i].Type; typ {
		case table.Int64:
			return batchLeaf(e, typ, func(b *table.Batch) []int64 { return b.Cols[i].Ints })
		case table.Float64:
			return batchLeaf(e, typ, func(b *table.Batch) []float64 { return b.Cols[i].Floats })
		default:
			return batchLeaf(e, typ, func(b *table.Batch) []string { return b.Cols[i].Strings })
		}
	}, func(and bool, l, r func(*table.Batch, []bool)) func(*table.Batch, []bool) {
		return func(b *table.Batch, keep []bool) {
			l(b, keep)
			right := make([]bool, len(keep))
			r(b, right)
			for k := range keep {
				if and {
					keep[k] = keep[k] && right[k]
				} else {
					keep[k] = keep[k] || right[k]
				}
			}
		}
	})
}

func batchLeaf[T scalar](e *Expr, typ table.Type, col func(*table.Batch) []T) (func(*table.Batch, []bool), error) {
	lit, err := literal[T](e, typ)
	op := e.Cmp
	return func(b *table.Batch, keep []bool) {
		for k, v := range col(b) {
			keep[k] = compare(op, v, lit)
		}
	}, err
}

// valuePredicate compiles a single-column predicate (possibly an AND/OR
// tree over one column) of column type typ into a test on its values.
func valuePredicate[T scalar](e *Expr, typ table.Type) (func(T) bool, error) {
	return fold(e, func(e *Expr) (func(T) bool, error) {
		lit, err := literal[T](e, typ)
		op := e.Cmp
		return func(v T) bool { return compare(op, v, lit) }, err
	}, func(and bool, l, r func(T) bool) func(T) bool {
		if and {
			return func(v T) bool { return l(v) && r(v) }
		}
		return func(v T) bool { return l(v) || r(v) }
	})
}

// cmpAny totally orders two same-typed values (floats by value with
// NaN high, used only for zone-map math where NaN never appears).
func cmpAny(a, b any) int {
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
		bv := b.(float64)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.(string), b.(string))
	}
}

// skipAllFunc derives a zone-map pruning function for a simple
// comparison leaf: given a partition's [min, max] for the column, it
// reports that no value can satisfy the predicate. Returns nil when the
// leaf has no usable range form (Ne, or non-Cmp nodes).
func skipAllFunc(op CmpOp, typ table.Type, val any) func(min, max any) bool {
	lit, err := coerce(typ, val)
	if err != nil {
		return nil
	}
	if f, ok := lit.(float64); ok && f != f {
		return nil // NaN never orders against a zone map
	}
	switch op {
	case Eq:
		return func(min, max any) bool { return cmpAny(lit, min) < 0 || cmpAny(lit, max) > 0 }
	case Lt:
		return func(min, _ any) bool { return cmpAny(min, lit) >= 0 }
	case Le:
		return func(min, _ any) bool { return cmpAny(min, lit) > 0 }
	case Gt:
		return func(_, max any) bool { return cmpAny(max, lit) <= 0 }
	case Ge:
		return func(_, max any) bool { return cmpAny(max, lit) < 0 }
	}
	return nil
}
