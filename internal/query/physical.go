package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/table"
)

// Options control planning.
type Options struct {
	// Optimize enables pushdown, join reordering and stats-driven join
	// strategy selection. Off, every operator compiles naively — the
	// baseline the differential and perf suites compare against.
	Optimize bool
	// BroadcastRows is the largest estimated build side broadcast
	// instead of shuffled (0 = DefaultBroadcastRows).
	// A negative value broadcasts none: every join shuffles both sides.
	BroadcastRows int64
	// Parts is the shuffle fan-out for joins, aggregates and sorts
	// (0 = DefaultParts).
	Parts int
}

// Planning defaults.
const (
	DefaultBroadcastRows = 5000
	DefaultParts         = 4
)

// Node is one physical operator with its cost estimate and, after
// execution, the observed row count.
type Node struct {
	Kind     string // "scan", "filter", "project", "join[broadcast]", "join[shuffle]", "agg", "sort", "topk", "limit"
	Detail   string
	Est      float64
	Children []*Node

	// rows holds, per output partition, the row count its last computation
	// produced; nil until the node has been compiled onto the engine.
	rows []atomic.Int64
	exec func() (*table.Table, error)
}

// Actual returns the rows observed flowing out of this operator in the
// last execution. Workers store each partition's count rather than add it,
// so a partition computed twice — by a sort's sampling job and the real
// pass, by a retried or speculative task — counts once.
func (n *Node) Actual() int64 {
	var sum int64
	for i := range n.rows {
		sum += n.rows[i].Load()
	}
	return sum
}

// Ran reports whether the node has executed at least once.
func (n *Node) Ran() bool { return n.rows != nil }

// Plan is a compiled query ready to execute.
type Plan struct {
	Root    *Node
	Schema  table.Schema
	Logical *Logical // the original (pre-rewrite) logical plan
	Opts    Options

	limit int // driver-side row cap; -1 none
}

// Build compiles a logical plan onto the dataflow engine. With
// opts.Optimize set, filters are pushed into the columnar scans (with
// zone-map pruning), projections pruned to the needed columns, star
// joins reordered and broadcast joins chosen for small build sides.
func (e *Env) Build(lp *Logical, opts Options) (*Plan, error) {
	if opts.BroadcastRows == 0 {
		opts.BroadcastRows = DefaultBroadcastRows
	}
	if opts.Parts == 0 {
		opts.Parts = DefaultParts
	}
	// One validating walk derives the query's schema and, optimized, the
	// shape of each join, which the rewrite's first pass reads.
	run, s := lp, shapes(nil)
	if opts.Optimize {
		run, s = lp.clone(), shapes{}
	}
	want, err := s.walk(run, schemaOnly(e.Schema))
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		if run, err = e.optimize(run, s); err != nil {
			return nil, err
		}
	}
	node, got, err := (&compiler{env: e, opts: opts}).compile(run)
	switch {
	case err != nil && opts.Optimize:
		return nil, fmt.Errorf("query: compiling the optimized plan: %w", err)
	case err != nil:
		return nil, err
	case !slices.Equal(got.schema.Cols, want.schema.Cols):
		return nil, fmt.Errorf("query: optimized plan yields columns (%s), the query (%s)",
			strings.Join(got.schema.Names(), ", "), strings.Join(want.schema.Names(), ", "))
	}
	limit := -1
	if run.Op == OpLimit {
		limit = run.N
	}
	return &Plan{Root: node, Schema: want.schema, Logical: lp, Opts: opts, limit: limit}, nil
}

// Execute runs the plan and returns the result rows. Per-node actual
// row counts reset on every call.
func (p *Plan) Execute() ([]table.Row, error) {
	var reset func(n *Node)
	reset = func(n *Node) {
		n.rows = nil
		for _, c := range n.Children {
			reset(c)
		}
	}
	reset(p.Root)
	t, err := p.Root.exec()
	if err != nil {
		return nil, err
	}
	rows, err := t.Collect()
	if err != nil {
		return nil, err
	}
	if p.limit >= 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}
	return rows, nil
}

// Ordered reports whether Execute's row order is meaningful.
func (p *Plan) Ordered() bool { return p.Logical.Ordered() }

type compiler struct {
	env  *Env
	opts Options
}

// counted wraps a node's table so the row count of every partition
// flowing out lands in the node's slot for that partition — EXPLAIN's
// "actual" column, measured with the public Table API rather than engine
// hooks.
func (c *compiler) counted(n *Node, build func() (*table.Table, error)) func() (*table.Table, error) {
	return func() (*table.Table, error) {
		t, err := build()
		if err != nil {
			return nil, err
		}
		return t.Peek(n.slots(t.Partitions())), nil
	}
}

// slots gives n one actual-row slot per partition and returns the function
// that stores a partition's count in its slot.
func (n *Node) slots(parts int) func(part, count int) {
	rows := make([]atomic.Int64, parts)
	n.rows = rows
	return func(part, count int) { rows[part].Store(int64(count)) }
}

// inputs compiles l's inputs (Right only for a join) and derives l from
// their derivations.
func (c *compiler) inputs(l *Logical) (in, right *Node, d derived, err error) {
	in, ind, err := c.compile(l.Input)
	var rd derived
	if err == nil && l.Op == OpJoin {
		right, rd, err = c.compile(l.Right)
	}
	if err != nil {
		return nil, nil, derived{}, err
	}
	d, err = derive(l, ind, rd)
	return in, right, d, err
}

// compile returns l's physical node and l's derivation. Each node is
// derived once, from its inputs' derivations, as compile returns from
// them; the node's Est is its derivation's row estimate.
func (c *compiler) compile(l *Logical) (*Node, derived, error) {
	switch l.Op {
	case OpScan:
		return c.compileScan(l, nil, nil)
	case OpFilter:
		if c.opts.Optimize && l.Input.Op == OpScan {
			return c.compileScan(l.Input, l, nil)
		}
		child, _, d, err := c.inputs(l)
		if err != nil {
			return nil, derived{}, err
		}
		sel, err := l.Pred.BindBatch(d.schema)
		if err != nil {
			return nil, derived{}, err
		}
		n := &Node{Kind: "filter", Detail: l.Pred.String(), Est: d.rows, Children: []*Node{child}}
		n.exec = c.counted(n, func() (*table.Table, error) {
			t, err := child.exec()
			if err != nil {
				return nil, err
			}
			return t.Filter(sel), nil
		})
		return n, d, nil
	case OpProject:
		if scan, filter := c.pruning(l); scan != nil {
			return c.compileScan(scan, filter, l)
		}
		child, _, d, err := c.inputs(l)
		if err != nil {
			return nil, derived{}, err
		}
		rename := map[string]string{}
		for i, col := range l.Cols {
			if slices.Contains(l.Cols[:i], col) {
				return nil, derived{}, fmt.Errorf("query: column %q selected twice", col)
			}
			if l.Aliases[i] != col {
				rename[col] = l.Aliases[i]
			}
		}
		cols := append([]string(nil), l.Cols...)
		n := &Node{Kind: "project", Detail: strings.Join(d.schema.Names(), ", "), Est: d.rows, Children: []*Node{child}}
		n.exec = c.counted(n, func() (*table.Table, error) {
			t, err := child.exec()
			if err != nil {
				return nil, err
			}
			t, err = t.Select(cols...)
			if err != nil {
				return nil, err
			}
			if len(rename) == 0 {
				return t, nil
			}
			return t.Renamed(rename)
		})
		return n, d, nil
	case OpJoin:
		left, right, d, err := c.inputs(l)
		if err != nil {
			return nil, derived{}, err
		}
		broadcast := c.opts.Optimize && right.Est <= float64(c.opts.BroadcastRows) && right.Est <= left.Est
		kind := "join[shuffle]"
		if broadcast {
			kind = "join[broadcast]"
		}
		leftCol, rightCol, parts := l.LeftCol, l.RightCol, c.opts.Parts
		n := &Node{
			Kind:     kind,
			Detail:   fmt.Sprintf("%s = %s", leftCol, rightCol),
			Est:      d.rows,
			Children: []*Node{left, right},
		}
		n.exec = c.counted(n, func() (*table.Table, error) {
			lt, err := left.exec()
			if err != nil {
				return nil, err
			}
			rt, err := right.exec()
			if err != nil {
				return nil, err
			}
			if broadcast {
				return lt.BroadcastJoin(rt, leftCol, rightCol)
			}
			return lt.HashJoin(rt, leftCol, rightCol, parts)
		})
		return n, d, nil
	case OpAgg:
		child, _, d, err := c.inputs(l)
		if err != nil {
			return nil, derived{}, err
		}
		keys, aggs, parts := append([]string(nil), l.Keys...), append([]table.Agg(nil), l.Aggs...), c.opts.Parts
		var details []string
		for _, a := range l.Aggs {
			if a.Op == table.Count {
				details = append(details, "count(*) AS "+a.Name())
			} else {
				details = append(details, fmt.Sprintf("%s(%s) AS %s", a.Op, a.Col, a.Name()))
			}
		}
		n := &Node{
			Kind:     "agg",
			Detail:   fmt.Sprintf("keys=[%s] %s", strings.Join(keys, ", "), strings.Join(details, ", ")),
			Est:      d.rows,
			Children: []*Node{child},
		}
		// Optimized, an aggregate over a join, or over a project of one that
		// renames nothing, folds the join's matches instead of building it.
		join, over := child, l.Input
		if over.Op == OpProject && over.Input.Op == OpJoin && slices.Equal(over.Cols, over.Aliases) {
			join, over = child.Children[0], over.Input
		}
		fused := c.opts.Optimize && over.Op == OpJoin
		n.exec = c.counted(n, func() (*table.Table, error) {
			if !fused {
				t, err := child.exec()
				if err != nil {
					return nil, err
				}
				return t.GroupBy(keys...).Agg(parts, aggs...)
			}
			lt, err := join.Children[0].exec()
			if err != nil {
				return nil, err
			}
			rt, err := join.Children[1].exec()
			if err != nil {
				return nil, err
			}
			joinParts, outParts := parts, parts
			if join.Kind == "join[broadcast]" {
				joinParts, outParts = 0, lt.Partitions()
			}
			g := lt.JoinGroupBy(rt, over.LeftCol, over.RightCol, joinParts, join.slots(outParts), keys...)
			child.rows = join.rows // a project passes every match on
			return g.Agg(parts, aggs...)
		})
		return n, d, nil
	case OpSort:
		return c.compileSort(l, nil)
	case OpLimit:
		if c.opts.Optimize {
			return c.compileSort(l.Input, l)
		}
		child, _, d, err := c.inputs(l)
		if err != nil {
			return nil, derived{}, err
		}
		limit := l.N
		n := &Node{Kind: "limit", Detail: fmt.Sprintf("%d", limit), Est: d.rows, Children: []*Node{child}}
		n.exec = c.counted(n, func() (*table.Table, error) {
			t, err := child.exec()
			if err != nil {
				return nil, err
			}
			return t.Head(limit)
		})
		return n, d, nil
	}
	return nil, derived{}, fmt.Errorf("query: unknown operator %d", l.Op)
}

// compileSort compiles an OpSort into a global sort or, given the OpLimit
// above it, into one "topk" node that keeps the first limit.N rows of the
// same order (table.TopK) in place of both.
func (c *compiler) compileSort(l, limit *Logical) (*Node, derived, error) {
	child, _, d, err := c.inputs(l)
	if err != nil {
		return nil, derived{}, err
	}
	// Sort on the primary column, breaking ties on every remaining
	// column ascending: a total order over distinct rows, so the
	// oracle can compare ordered output deterministically.
	cols := []string{l.SortCol}
	desc := []bool{l.Desc}
	for _, col := range d.schema.Names() {
		if col != l.SortCol {
			cols = append(cols, col)
			desc = append(desc, false)
		}
	}
	parts := c.opts.Parts
	dir := "asc"
	if l.Desc {
		dir = "desc"
	}
	n := &Node{Kind: "sort", Detail: fmt.Sprintf("%s %s", l.SortCol, dir), Est: d.rows, Children: []*Node{child}}
	k := -1
	if limit != nil {
		if d, err = derive(limit, d, derived{}); err != nil {
			return nil, derived{}, err
		}
		k = limit.N
		n.Kind, n.Detail, n.Est = "topk", fmt.Sprintf("%s limit %d", n.Detail, k), d.rows
	}
	n.exec = c.counted(n, func() (*table.Table, error) {
		t, err := child.exec()
		if err != nil {
			return nil, err
		}
		if k >= 0 {
			return t.TopK(cols, desc, k)
		}
		return t.OrderByCols(cols, desc, parts)
	})
	return n, d, nil
}

// pruning returns the scan, and the filter over it if any, that project l
// prunes: optimized, a projection of a strict subset of a scan's columns in
// table order, renaming none, directly over the scan or over its filter —
// the shape demand inserts — compiles into the scan.
func (c *compiler) pruning(l *Logical) (scan, filter *Logical) {
	scan = l.Input
	if scan.Op == OpFilter {
		filter, scan = scan, scan.Input
	}
	src, ok := c.env.tables[scan.TableName]
	if !c.opts.Optimize || scan.Op != OpScan || !ok || len(l.Cols) >= len(src.schema.Cols) || !slices.Equal(l.Cols, l.Aliases) {
		return nil, nil
	}
	for i, col := range l.Cols {
		if j := src.schema.Index(col); j < 0 || i > 0 && j <= src.schema.Index(l.Cols[i-1]) {
			return nil, nil
		}
	}
	return scan, filter
}

// compileScan fuses a filter and a projection into a columnar scan:
// single-column conjuncts run against the encoded columns (zone maps
// pruning whole partitions, RLE runs and dictionary entries evaluated
// once), the rest stays as a residual row filter, and only the projected
// columns and the residual's inputs are decoded. filter, when set, is the
// OpFilter node above l, and project, when set, the projection above
// filter or l.
func (c *compiler) compileScan(l, filter, project *Logical) (*Node, derived, error) {
	src, ok := c.env.tables[l.TableName]
	if !ok {
		return nil, derived{}, fmt.Errorf("query: unknown table %q", l.TableName)
	}
	schema, d, pred, needed := src.schema, src.derived, (*Expr)(nil), src.schema.Names()
	var err error
	if filter != nil {
		d, err = derive(filter, d, derived{})
		pred = filter.Pred
	}
	if project != nil && err == nil {
		d, err = derive(project, d, derived{})
		needed = project.Cols
	}
	if err != nil {
		return nil, derived{}, err
	}

	var colPreds []table.ColPredicate
	var residual []*Expr
	for _, conj := range pred.conjuncts() {
		cols := conj.Cols()
		if !c.opts.Optimize || len(cols) != 1 {
			residual = append(residual, conj)
			continue
		}
		idx, err := schema.MustIndex(cols[0])
		if err != nil {
			return nil, derived{}, err
		}
		typ := schema.Cols[idx].Type
		cp := table.ColPredicate{Col: idx}
		switch typ {
		case table.Int64:
			cp.Keep, err = valuePredicate[int64](conj, typ)
		case table.Float64:
			cp.Keep, err = valuePredicate[float64](conj, typ)
		default:
			cp.Keep, err = valuePredicate[string](conj, typ)
		}
		if err != nil {
			residual = append(residual, conj)
			continue
		}
		if conj.Kind == ExprCmp {
			cp.SkipAll = skipAllFunc(conj.Cmp, typ, conj.Val)
		}
		colPreds = append(colPreds, cp)
	}

	// Columns the scan must materialize: the projected ones plus residual
	// filter inputs. Pushed predicate columns filter on the encoded form
	// and need no decode unless also projected.
	scanCols := needed
	for _, conj := range residual {
		scanCols = appendMissing(scanCols, conj.Cols())
	}
	sort.SliceStable(scanCols, func(i, j int) bool { return schema.Index(scanCols[i]) < schema.Index(scanCols[j]) })
	neededIdx := make([]int, len(scanCols))
	outCols := make([]table.Col, len(scanCols))
	for i, name := range scanCols {
		j := schema.Index(name)
		neededIdx[i] = j
		outCols[i] = schema.Cols[j]
	}
	outSchema := table.Schema{Cols: outCols}
	residualPred := conjoin(residual)
	var residualSel func(*table.Batch, []bool)
	if residualPred != nil {
		if residualSel, err = residualPred.BindBatch(outSchema); err != nil {
			return nil, derived{}, err
		}
	}

	detail := fmt.Sprintf("%s cols=[%s]", l.TableName, strings.Join(scanCols, ", "))
	if len(colPreds) > 0 {
		var pushed []string
		for _, conj := range pred.conjuncts() {
			if len(conj.Cols()) == 1 {
				pushed = append(pushed, conj.String())
			}
		}
		detail += " pushed=(" + strings.Join(pushed, " AND ") + ")"
	}
	if residualPred != nil {
		detail += " residual=(" + residualPred.String() + ")"
	}
	n := &Node{Kind: "scan", Detail: detail, Est: d.rows}
	env := c.env
	n.exec = c.counted(n, func() (*table.Table, error) {
		t, err := src.data.Scan(env.Eng, colPreds, neededIdx, env.Reg)
		if err != nil {
			return nil, err
		}
		if residualSel != nil {
			t = t.Filter(residualSel)
		}
		if len(scanCols) > len(needed) {
			return t.Select(needed...)
		}
		return t, nil
	})
	return n, d, nil
}
