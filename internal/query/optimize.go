package query

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/table"
)

// optimize rewrites a logical plan: filters pushed toward scans, star
// joins reordered cheapest-dimension-first, projections narrowed to the
// columns read above them. It returns the columns each scan of the
// rewritten plan must decode. The rewritten plan is validated against
// the original's output schema; any failure falls back to the
// unrewritten plan with every scan decoding every column, so
// optimization can only change cost, never results.
func (e *Env) optimize(lp *Logical) (*Logical, map[*Logical][]string) {
	orig, err := lp.OutSchema(e.Schema)
	if err != nil {
		return lp, nil
	}
	rw := e.pushFilters(lp.clone(), nil)
	rw = e.reorderJoins(rw)
	needs := map[*Logical][]string{}
	if err := e.demand(rw, orig.Names(), true, needs); err != nil {
		return lp, nil
	}
	got, err := rw.OutSchema(e.Schema)
	if err != nil || !sameSchema(orig, got) {
		return lp, nil
	}
	return rw, needs
}

func sameSchema(a, b table.Schema) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	return true
}

// pushFilters pushes the pending conjuncts (plus any Filter nodes met
// on the way) as close to the scans as possible.
func (e *Env) pushFilters(l *Logical, pending []*Expr) *Logical {
	wrap := func(node *Logical, stuck []*Expr) *Logical {
		if len(stuck) == 0 {
			return node
		}
		return &Logical{Op: OpFilter, Input: node, Pred: conjoin(stuck)}
	}
	switch l.Op {
	case OpFilter:
		return e.pushFilters(l.Input, append(append([]*Expr(nil), pending...), l.Pred.conjuncts()...))
	case OpScan:
		return wrap(l, pending)
	case OpSort:
		l.Input = e.pushFilters(l.Input, pending)
		return l
	case OpLimit:
		// A filter above LIMIT changes which rows survive the cap; never
		// push through it.
		l.Input = e.pushFilters(l.Input, nil)
		return wrap(l, pending)
	case OpProject:
		// A conjunct referencing only aliased pass-through columns moves
		// below the projection under the source names.
		toSource := map[string]string{}
		for i, c := range l.Cols {
			toSource[l.Aliases[i]] = c
		}
		var push, stuck []*Expr
		for _, c := range pending {
			ok := true
			for _, col := range c.Cols() {
				if _, mapped := toSource[col]; !mapped {
					ok = false
					break
				}
			}
			if ok {
				push = append(push, c.renamed(toSource))
			} else {
				stuck = append(stuck, c)
			}
		}
		l.Input = e.pushFilters(l.Input, push)
		return wrap(l, stuck)
	case OpAgg:
		// Conjuncts over group keys commute with aggregation.
		keys := map[string]bool{}
		for _, k := range l.Keys {
			keys[k] = true
		}
		var push, stuck []*Expr
		for _, c := range pending {
			ok := true
			for _, col := range c.Cols() {
				if !keys[col] {
					ok = false
					break
				}
			}
			if ok {
				push = append(push, c)
			} else {
				stuck = append(stuck, c)
			}
		}
		l.Input = e.pushFilters(l.Input, push)
		return wrap(l, stuck)
	case OpJoin:
		left, lerr := l.Input.OutSchema(e.Schema)
		right, rerr := l.Right.OutSchema(e.Schema)
		if lerr != nil || rerr != nil {
			l.Input = e.pushFilters(l.Input, nil)
			l.Right = e.pushFilters(l.Right, nil)
			return wrap(l, pending)
		}
		out := table.JoinSchema(left, right)
		var toLeft, toRight, stuck []*Expr
		for _, c := range pending {
			switch side, rc := joinSide(c, out, right); side {
			case 0:
				toLeft = append(toLeft, c)
			case 1:
				toRight = append(toRight, rc)
			default:
				stuck = append(stuck, c)
			}
		}
		l.Input = e.pushFilters(l.Input, toLeft)
		l.Right = e.pushFilters(l.Right, toRight)
		return wrap(l, stuck)
	}
	return wrap(l, pending)
}

// joinSide looks every column of c up in out, the join's output schema
// (table.JoinSchema of its inputs), and returns 0 if all come from the left
// input, 1 and c renamed to the right input's column names if all come from
// right, and -1 otherwise.
func joinSide(c *Expr, out, right table.Schema) (int, *Expr) {
	nLeft := len(out.Cols) - len(right.Cols)
	side, rename := 0, map[string]string{}
	for k, col := range c.Cols() {
		i, s := out.Index(col), 0
		if i >= nLeft {
			s, rename[col] = 1, right.Cols[i-nLeft].Name
		}
		if i < 0 || (k > 0 && s != side) {
			return -1, nil
		}
		side = s
	}
	if side == 1 {
		return 1, c.renamed(rename)
	}
	return 0, c
}

// reorderJoins rewrites left-deep star-join chains so the smallest
// (post-filter) build sides join first, shrinking every intermediate
// result. Only chains whose probe columns all come from the base fact
// input are eligible — those joins commute. A projection restoring the
// original column order is added on top, and any rewrite that changes
// a name table.JoinSchema gives a build side's column is abandoned.
func (e *Env) reorderJoins(l *Logical) *Logical {
	if l == nil {
		return nil
	}
	if l.Op != OpJoin {
		l.Input = e.reorderJoins(l.Input)
		l.Right = e.reorderJoins(l.Right)
		return l
	}
	// Collect the left-deep chain in join order.
	type link struct {
		right             *Logical
		leftCol, rightCol string
	}
	var chain []link
	cur := l
	for ; cur.Op == OpJoin; cur = cur.Input {
		chain = append([]link{{e.reorderJoins(cur.Right), cur.LeftCol, cur.RightCol}}, chain...)
	}
	base := e.reorderJoins(cur)
	rebuild := func(order []link) *Logical {
		out := base
		for _, ln := range order {
			out = out.Join(ln.right, ln.leftCol, ln.rightCol)
		}
		return out
	}
	orig := rebuild(chain)
	if len(chain) < 2 {
		return orig
	}
	baseSchema, err := base.OutSchema(e.Schema)
	if err != nil {
		return orig
	}
	for _, ln := range chain {
		if baseSchema.Index(ln.leftCol) < 0 {
			return orig // probe col from an earlier join: order is load-bearing
		}
	}
	origSchema, err := orig.OutSchema(e.Schema)
	if err != nil {
		return orig
	}
	// sideNames maps each build side to the names its columns get when the
	// links join base in order. A prefix chosen on collision depends on
	// what joined before, so a reorder that moves one would hand the name
	// to another side's column.
	sideNames := func(order []link) map[*Logical][]string {
		out, names := baseSchema, map[*Logical][]string{}
		for _, ln := range order {
			rs, _ := ln.right.OutSchema(e.Schema) // resolves: origSchema did
			n := len(out.Cols)
			out = table.JoinSchema(out, rs)
			names[ln.right] = out.Names()[n:]
		}
		return names
	}
	ordered := slices.Clone(chain)
	sort.SliceStable(ordered, func(i, j int) bool {
		return e.chainEst(ordered[i].right) < e.chainEst(ordered[j].right)
	})
	if !maps.EqualFunc(sideNames(chain), sideNames(ordered), slices.Equal[[]string]) {
		return orig
	}
	rw := rebuild(ordered)
	rwSchema, err := rw.OutSchema(e.Schema)
	if err != nil {
		return orig
	}
	if sameSchema(origSchema, rwSchema) {
		return rw
	}
	names := origSchema.Names()
	return rw.Project(names, names)
}

func (e *Env) chainEst(l *Logical) float64 {
	est, err := e.estimatePlan(l)
	if err != nil {
		return 0
	}
	return est.rows
}

// demand is the optimizer's one column-demand pass, top-down. demanded
// lists the output columns l's parent reads; the root keeps its full
// output. It narrows every projection below the root to the items read
// above it and records in needs the columns each scan must decode. In
// place on an already-cloned tree.
func (e *Env) demand(l *Logical, demanded []string, root bool, needs map[*Logical][]string) error {
	switch l.Op {
	case OpScan:
		schema, err := e.Schema(l.TableName)
		if err != nil {
			return err
		}
		var cols []string
		for _, c := range schema.Cols {
			if slices.Contains(demanded, c.Name) {
				cols = append(cols, c.Name)
			}
		}
		needs[l] = cols
		return nil
	case OpFilter:
		// A filter fused into its scan runs its single-column conjuncts on
		// the encoded columns; only multi-column conjunct inputs are decoded.
		next := demanded
		for _, conj := range l.Pred.conjuncts() {
			if cols := conj.Cols(); l.Input.Op != OpScan || len(cols) != 1 {
				next = appendMissing(next, cols)
			}
		}
		return e.demand(l.Input, next, false, needs)
	case OpProject:
		if !root {
			var cols, aliases []string
			for i, a := range l.Aliases {
				if slices.Contains(demanded, a) {
					cols = append(cols, l.Cols[i])
					aliases = append(aliases, a)
				}
			}
			if len(cols) == 0 && len(l.Cols) > 0 {
				// Keep one column so the relation still has rows (a parent
				// may count them without reading any column).
				cols, aliases = l.Cols[:1], l.Aliases[:1]
			}
			l.Cols, l.Aliases = cols, aliases
		}
		return e.demand(l.Input, appendMissing(nil, l.Cols), false, needs)
	case OpJoin:
		left, err := l.Input.OutSchema(e.Schema)
		if err != nil {
			return err
		}
		right, err := l.Right.OutSchema(e.Schema)
		if err != nil {
			return err
		}
		out := table.JoinSchema(left, right)
		keep := make([]bool, len(out.Cols))
		var mark func(i int)
		mark = func(i int) {
			if i < 0 || keep[i] {
				return
			}
			keep[i] = true
			if i < len(left.Cols) {
				return
			}
			// A right column keeps a prefixed name only while every name it
			// collided with on the way is still emitted.
			for name := right.Cols[i-len(left.Cols)].Name; name != out.Cols[i].Name; name = collided(name) {
				mark(out.Index(name))
			}
		}
		for _, d := range demanded {
			mark(out.Index(d))
		}
		toLeft, toRight := []string{l.LeftCol}, []string{l.RightCol}
		for i, kept := range keep {
			switch {
			case !kept:
			case i < len(left.Cols):
				toLeft = append(toLeft, left.Cols[i].Name)
			default:
				toRight = append(toRight, right.Cols[i-len(left.Cols)].Name)
			}
		}
		if err := e.demand(l.Input, toLeft, false, needs); err != nil {
			return err
		}
		return e.demand(l.Right, toRight, false, needs)
	case OpAgg:
		next := append([]string(nil), l.Keys...)
		for _, a := range l.Aggs {
			if a.Op != table.Count {
				next = appendMissing(next, []string{a.Col})
			}
		}
		return e.demand(l.Input, next, false, needs)
	case OpSort:
		// The compiled sort breaks ties on every input column, so it reads
		// its whole input schema.
		in, err := l.Input.OutSchema(e.Schema)
		if err != nil {
			return err
		}
		return e.demand(l.Input, in.Names(), false, needs)
	case OpLimit:
		return e.demand(l.Input, demanded, root, needs)
	}
	return fmt.Errorf("query: unknown operator %d", l.Op)
}

// collided is the name table.JoinSchema gives a right column called name
// when the name is taken.
func collided(name string) string {
	one := table.Schema{Cols: []table.Col{{Name: name}}}
	return table.JoinSchema(one, one).Cols[1].Name
}

func appendMissing(dst []string, add []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range dst {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range add {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
