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
// differential oracle and the planner share it so both agree on shape.
func (l *Logical) OutSchema(base func(name string) (table.Schema, error)) (table.Schema, error) {
	switch l.Op {
	case OpScan:
		return base(l.TableName)
	case OpFilter:
		in, err := l.Input.OutSchema(base)
		if err != nil {
			return table.Schema{}, err
		}
		for _, c := range l.Pred.Cols() {
			if in.Index(c) < 0 {
				return table.Schema{}, fmt.Errorf("query: filter references unknown column %q", c)
			}
		}
		return in, nil
	case OpProject:
		in, err := l.Input.OutSchema(base)
		if err != nil {
			return table.Schema{}, err
		}
		if len(l.Cols) == 0 || len(l.Cols) != len(l.Aliases) {
			return table.Schema{}, fmt.Errorf("query: project has %d cols, %d aliases", len(l.Cols), len(l.Aliases))
		}
		cols := make([]table.Col, len(l.Cols))
		seen := map[string]bool{}
		for i, c := range l.Cols {
			j, err := in.MustIndex(c)
			if err != nil {
				return table.Schema{}, err
			}
			if seen[l.Aliases[i]] {
				return table.Schema{}, fmt.Errorf("query: duplicate output column %q", l.Aliases[i])
			}
			seen[l.Aliases[i]] = true
			cols[i] = table.Col{Name: l.Aliases[i], Type: in.Cols[j].Type}
		}
		return table.Schema{Cols: cols}, nil
	case OpJoin:
		left, err := l.Input.OutSchema(base)
		if err != nil {
			return table.Schema{}, err
		}
		right, err := l.Right.OutSchema(base)
		if err != nil {
			return table.Schema{}, err
		}
		li, err := left.MustIndex(l.LeftCol)
		if err != nil {
			return table.Schema{}, fmt.Errorf("query: join left column: %w", err)
		}
		ri, err := right.MustIndex(l.RightCol)
		if err != nil {
			return table.Schema{}, fmt.Errorf("query: join right column: %w", err)
		}
		if left.Cols[li].Type != right.Cols[ri].Type {
			return table.Schema{}, fmt.Errorf("query: join column types differ: %v vs %v",
				left.Cols[li].Type, right.Cols[ri].Type)
		}
		return table.JoinSchema(left, right), nil
	case OpAgg:
		in, err := l.Input.OutSchema(base)
		if err != nil {
			return table.Schema{}, err
		}
		if len(l.Aggs) == 0 {
			return table.Schema{}, fmt.Errorf("query: aggregate with no aggregate functions")
		}
		cols := make([]table.Col, 0, len(l.Keys)+len(l.Aggs))
		for _, k := range l.Keys {
			j, err := in.MustIndex(k)
			if err != nil {
				return table.Schema{}, fmt.Errorf("query: group key: %w", err)
			}
			cols = append(cols, in.Cols[j])
		}
		for _, a := range l.Aggs {
			inType := table.Int64
			if a.Op != table.Count {
				j, err := in.MustIndex(a.Col)
				if err != nil {
					return table.Schema{}, fmt.Errorf("query: aggregate input: %w", err)
				}
				inType = in.Cols[j].Type
				if inType == table.String && a.Op != table.Min && a.Op != table.Max {
					return table.Schema{}, fmt.Errorf("query: %s over string column %q", a.Op, a.Col)
				}
			}
			cols = append(cols, table.Col{Name: a.Name(), Type: a.OutType(inType)})
		}
		seen := map[string]bool{}
		for _, c := range cols {
			if seen[c.Name] {
				return table.Schema{}, fmt.Errorf("query: duplicate aggregate output column %q", c.Name)
			}
			seen[c.Name] = true
		}
		return table.Schema{Cols: cols}, nil
	case OpSort:
		in, err := l.Input.OutSchema(base)
		if err != nil {
			return table.Schema{}, err
		}
		if in.Index(l.SortCol) < 0 {
			return table.Schema{}, fmt.Errorf("query: sort references unknown column %q", l.SortCol)
		}
		return in, nil
	case OpLimit:
		if l.N < 0 {
			return table.Schema{}, fmt.Errorf("query: LIMIT %d", l.N)
		}
		if l.Input.Op != OpSort {
			return table.Schema{}, fmt.Errorf("query: LIMIT requires ORDER BY directly below it")
		}
		return l.Input.OutSchema(base)
	}
	return table.Schema{}, fmt.Errorf("query: unknown operator %d", l.Op)
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
