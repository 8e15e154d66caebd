package query

import (
	"fmt"

	"repro/internal/table"
)

// Op is a logical plan operator kind.
type Op int

// Logical operators.
const (
	OpScan Op = iota
	OpFilter
	OpProject
	OpJoin
	OpAgg
	OpSort
	OpLimit
)

// Logical is one node of a logical query plan. It is deliberately a
// plain exported struct: the optimizer rewrites it, the differential
// oracle in internal/check re-evaluates it naively, and the fuzzer
// generates random instances of it.
type Logical struct {
	Op    Op
	Input *Logical // nil only for OpScan
	Right *Logical // OpJoin build side

	TableName string   // OpScan
	Pred      *Expr    // OpFilter
	Cols      []string // OpProject: input column names, in output order
	Aliases   []string // OpProject: output names (len == len(Cols))

	LeftCol, RightCol string // OpJoin equi-join columns

	Keys []string    // OpAgg group keys (empty = global aggregate)
	Aggs []table.Agg // OpAgg aggregate specs

	SortCol string // OpSort primary column (of the input schema)
	Desc    bool   // OpSort direction
	N       int    // OpLimit row cap
}

// Scan starts a fluent plan reading the named registered table.
func Scan(name string) *Logical { return &Logical{Op: OpScan, TableName: name} }

// Where appends a filter.
func (l *Logical) Where(pred *Expr) *Logical {
	return &Logical{Op: OpFilter, Input: l, Pred: pred}
}

// Project appends a projection; aliases nil keeps source names.
func (l *Logical) Project(cols []string, aliases []string) *Logical {
	if aliases == nil {
		aliases = append([]string(nil), cols...)
	}
	return &Logical{Op: OpProject, Input: l, Cols: cols, Aliases: aliases}
}

// Join appends an inner equi-join with right as the build side.
func (l *Logical) Join(right *Logical, leftCol, rightCol string) *Logical {
	return &Logical{Op: OpJoin, Input: l, Right: right, LeftCol: leftCol, RightCol: rightCol}
}

// GroupBy appends a grouped aggregation.
func (l *Logical) GroupBy(keys []string, aggs ...table.Agg) *Logical {
	return &Logical{Op: OpAgg, Input: l, Keys: keys, Aggs: aggs}
}

// OrderBy appends a sort on one output column. Ties break
// deterministically on all remaining columns ascending, so a sorted
// result has one valid order.
func (l *Logical) OrderBy(col string, desc bool) *Logical {
	return &Logical{Op: OpSort, Input: l, SortCol: col, Desc: desc}
}

// Limit appends a row cap.
func (l *Logical) Limit(n int) *Logical {
	return &Logical{Op: OpLimit, Input: l, N: n}
}

// OutSchema computes the plan's output schema against a resolver for
// base-table schemas, validating column references along the way. The
// differential oracle and the planner share it so both agree on shape:
// it is derive's schema half, walked without statistics.
func (l *Logical) OutSchema(base func(name string) (table.Schema, error)) (table.Schema, error) {
	d, err := l.walk(func(name string) (derived, error) {
		s, err := base(name)
		return derived{schema: s}, err
	})
	return d.schema, err
}

// derived is what the planner knows of one plan node's output: its schema
// and, when table statistics are at hand, its estimated row count and the
// statistics of each output column by position (stats[i] describes
// schema.Cols[i]; nil without statistics).
type derived struct {
	schema table.Schema
	rows   float64
	stats  []ColStats
}

// walk derives l's whole tree bottom-up, resolving each scan's table
// through base.
func (l *Logical) walk(base func(name string) (derived, error)) (derived, error) {
	var in, right derived
	var err error
	switch {
	case l.Op == OpScan:
		in, err = base(l.TableName)
	case l.Input != nil:
		in, err = l.Input.walk(base)
		if err == nil && l.Op == OpJoin && l.Right != nil {
			right, err = l.Right.walk(base)
		}
	}
	if err != nil {
		return derived{}, err
	}
	return derive(l, in, right)
}

// derive is the planner's one pass over the operators: it computes l's
// output schema and estimate from in and right, the derivations of
// l.Input and l.Right (a scan's in is its table's), and validates l's
// column references against them. Callers supply the inputs however they
// walk the tree — walk recursively, compile bottom-up as it recurses — so
// no node's derivation re-walks its inputs. Statistics that do not change
// are shared with the input, never written.
func derive(l *Logical, in, right derived) (derived, error) {
	switch l.Op {
	case OpScan:
		return in, nil
	case OpFilter:
		for _, c := range l.Pred.Cols() {
			if in.schema.Index(c) < 0 {
				return derived{}, fmt.Errorf("query: filter references unknown column %q", c)
			}
		}
		rows := in.rows * in.selectivity(l.Pred)
		return derived{schema: in.schema, rows: rows, stats: capped(rows, in.stats)}, nil
	case OpProject:
		if len(l.Cols) == 0 || len(l.Cols) != len(l.Aliases) {
			return derived{}, fmt.Errorf("query: project has %d cols, %d aliases", len(l.Cols), len(l.Aliases))
		}
		cols := make([]table.Col, len(l.Cols))
		out := derived{rows: in.rows}
		if in.stats != nil {
			out.stats = make([]ColStats, len(l.Cols))
		}
		for i, c := range l.Cols {
			j, err := in.schema.MustIndex(c)
			if err != nil {
				return derived{}, err
			}
			if (table.Schema{Cols: cols[:i]}).Index(l.Aliases[i]) >= 0 {
				return derived{}, fmt.Errorf("query: duplicate output column %q", l.Aliases[i])
			}
			cols[i] = table.Col{Name: l.Aliases[i], Type: in.schema.Cols[j].Type}
			if out.stats != nil {
				out.stats[i] = in.stats[j]
			}
		}
		out.schema = table.Schema{Cols: cols}
		return out, nil
	case OpJoin:
		li, err := in.schema.MustIndex(l.LeftCol)
		if err != nil {
			return derived{}, fmt.Errorf("query: join left column: %w", err)
		}
		ri, err := right.schema.MustIndex(l.RightCol)
		if err != nil {
			return derived{}, fmt.Errorf("query: join right column: %w", err)
		}
		if in.schema.Cols[li].Type != right.schema.Cols[ri].Type {
			return derived{}, fmt.Errorf("query: join column types differ: %v vs %v",
				in.schema.Cols[li].Type, right.schema.Cols[ri].Type)
		}
		d := 1.0
		if in.stats != nil && float64(in.stats[li].Distinct) > d {
			d = float64(in.stats[li].Distinct)
		}
		if right.stats != nil && float64(right.stats[ri].Distinct) > d {
			d = float64(right.stats[ri].Distinct)
		}
		rows := in.rows * right.rows / d
		// Each output column keeps its source's stats: the inputs' stats,
		// concatenated, line up with table.JoinSchema's columns.
		return derived{schema: table.JoinSchema(in.schema, right.schema), rows: rows, stats: capped(rows, in.stats, right.stats)}, nil
	case OpAgg:
		if len(l.Aggs) == 0 {
			return derived{}, fmt.Errorf("query: aggregate with no aggregate functions")
		}
		cols := make([]table.Col, 0, len(l.Keys)+len(l.Aggs))
		var stats []ColStats
		if in.stats != nil {
			stats = make([]ColStats, 0, len(l.Keys)+len(l.Aggs))
		}
		groups := 1.0
		for _, k := range l.Keys {
			j, err := in.schema.MustIndex(k)
			if err != nil {
				return derived{}, fmt.Errorf("query: group key: %w", err)
			}
			cols = append(cols, in.schema.Cols[j])
			if stats != nil {
				if cs := in.stats[j]; cs.Distinct > 0 {
					groups *= float64(cs.Distinct)
				}
				stats = append(stats, in.stats[j])
			}
		}
		if groups > in.rows {
			groups = in.rows
		}
		if len(l.Keys) == 0 {
			groups = 1
			if in.rows == 0 {
				groups = 0
			}
		}
		for _, a := range l.Aggs {
			inType := table.Int64
			if a.Op != table.Count {
				j, err := in.schema.MustIndex(a.Col)
				if err != nil {
					return derived{}, fmt.Errorf("query: aggregate input: %w", err)
				}
				inType = in.schema.Cols[j].Type
				if inType == table.String && a.Op != table.Min && a.Op != table.Max {
					return derived{}, fmt.Errorf("query: %s over string column %q", a.Op, a.Col)
				}
			}
			cols = append(cols, table.Col{Name: a.Name(), Type: a.OutType(inType)})
			if stats != nil {
				stats = append(stats, ColStats{Distinct: int64(groups)})
			}
		}
		for i, c := range cols {
			if (table.Schema{Cols: cols[:i]}).Index(c.Name) >= 0 {
				return derived{}, fmt.Errorf("query: duplicate aggregate output column %q", c.Name)
			}
		}
		return derived{schema: table.Schema{Cols: cols}, rows: groups, stats: stats}, nil
	case OpSort:
		if in.schema.Index(l.SortCol) < 0 {
			return derived{}, fmt.Errorf("query: sort references unknown column %q", l.SortCol)
		}
		return in, nil
	case OpLimit:
		if l.N < 0 {
			return derived{}, fmt.Errorf("query: LIMIT %d", l.N)
		}
		if l.Input == nil || l.Input.Op != OpSort {
			return derived{}, fmt.Errorf("query: LIMIT requires ORDER BY directly below it")
		}
		if float64(l.N) < in.rows {
			in.rows = float64(l.N)
		}
		return in, nil
	}
	return derived{}, fmt.Errorf("query: unknown operator %d", l.Op)
}

// Ordered reports whether the plan's output has a defined total order
// (a Sort at the top, possibly under a Limit). Differential checks use
// it to choose ordered vs multiset comparison.
func (l *Logical) Ordered() bool {
	switch l.Op {
	case OpSort:
		return true
	case OpLimit:
		return l.Input.Ordered()
	}
	return false
}

// clone deep-copies the plan tree (Exprs are shared — rewrites copy
// them on change).
func (l *Logical) clone() *Logical {
	if l == nil {
		return nil
	}
	cp := *l
	cp.Input = l.Input.clone()
	cp.Right = l.Right.clone()
	cp.Cols = append([]string(nil), l.Cols...)
	cp.Aliases = append([]string(nil), l.Aliases...)
	cp.Keys = append([]string(nil), l.Keys...)
	cp.Aggs = append([]table.Agg(nil), l.Aggs...)
	return &cp
}
