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
// rewritten plan must decode, or nil needs if demand failed; Build falls
// back to the unrewritten plan, every scan decoding every column, unless
// the rewritten one compiles to the original's output schema, so
// optimization can only change cost, never results.
func (e *Env) optimize(lp *Logical, want table.Schema) (*Logical, map[*Logical][]string) {
	rw := e.pushFilters(lp.clone(), nil)
	rw = e.reorderJoins(rw)
	needs := map[*Logical][]string{}
	if err := e.demand(rw, want.Names(), true, needs); err != nil {
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
		left, lerr := e.derive(l.Input)
		right, rerr := e.derive(l.Right)
		if lerr != nil || rerr != nil {
			l.Input = e.pushFilters(l.Input, nil)
			l.Right = e.pushFilters(l.Right, nil)
			return wrap(l, pending)
		}
		out := table.JoinSchema(left.schema, right.schema)
		var toLeft, toRight, stuck []*Expr
		for _, c := range pending {
			switch side, rc := joinSide(c, out, right.schema); side {
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
		join  *Logical // the chain's join node, for its columns
		right *Logical // its build side, joins reordered
		d     derived  // the build side's derivation
	}
	var chain []link
	cur := l
	for ; cur.Op == OpJoin; cur = cur.Input {
		chain = append([]link{{join: cur, right: e.reorderJoins(cur.Right)}}, chain...)
	}
	base := e.reorderJoins(cur)
	rebuild := func(order []link) *Logical {
		out := base
		for _, ln := range order {
			out = out.Join(ln.right, ln.join.LeftCol, ln.join.RightCol)
		}
		return out
	}
	orig := rebuild(chain)
	if len(chain) < 2 {
		return orig
	}
	bd, err := e.derive(base)
	if err != nil {
		return orig
	}
	for i, ln := range chain {
		if bd.schema.Index(ln.join.LeftCol) < 0 {
			return orig // probe col from an earlier join: order is load-bearing
		}
		if chain[i].d, err = e.derive(ln.right); err != nil {
			return orig
		}
	}
	// joined derives the links joining base in order, and the names each
	// build side's columns get there. A prefix chosen on collision depends
	// on what joined before, so a reorder that moves one would hand the
	// name to another side's column.
	joined := func(order []link) (derived, map[*Logical][]string, error) {
		out, names := bd, map[*Logical][]string{}
		for _, ln := range order {
			n := len(out.schema.Cols)
			var err error
			if out, err = derive(ln.join, out, ln.d); err != nil {
				return derived{}, nil, err
			}
			names[ln.right] = out.schema.Names()[n:]
		}
		return out, names, nil
	}
	origOut, origNames, err := joined(chain)
	if err != nil {
		return orig
	}
	ordered := slices.Clone(chain)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].d.rows < ordered[j].d.rows })
	rwOut, rwNames, err := joined(ordered)
	if err != nil || !maps.EqualFunc(origNames, rwNames, slices.Equal[[]string]) {
		return orig
	}
	rw := rebuild(ordered)
	if sameSchema(origOut.schema, rwOut.schema) {
		return rw
	}
	names := origOut.schema.Names()
	return rw.Project(names, names)
}

// demand is the optimizer's one column-demand pass, top-down. demanded
// lists the output columns l's parent reads; the root keeps its full
// output. It narrows every projection below the root to the items read
// above it and records in needs the columns each scan must decode. In
// place on an already-cloned tree: a join or sort derives its inputs
// before demand narrows them, and reads those derivations only then.
func (e *Env) demand(l *Logical, demanded []string, root bool, needs map[*Logical][]string) error {
	var next, toRight []string
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
		next = demanded
		for _, conj := range l.Pred.conjuncts() {
			if cols := conj.Cols(); l.Input.Op != OpScan || len(cols) != 1 {
				next = appendMissing(next, cols)
			}
		}
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
		next = appendMissing(nil, l.Cols)
	case OpJoin:
		ld, err := e.derive(l.Input)
		if err != nil {
			return err
		}
		rd, err := e.derive(l.Right)
		if err != nil {
			return err
		}
		left, right := ld.schema, rd.schema
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
		next, toRight = []string{l.LeftCol}, []string{l.RightCol}
		for i, kept := range keep {
			switch {
			case !kept:
			case i < len(left.Cols):
				next = append(next, left.Cols[i].Name)
			default:
				toRight = append(toRight, right.Cols[i-len(left.Cols)].Name)
			}
		}
	case OpAgg:
		next = append([]string(nil), l.Keys...)
		for _, a := range l.Aggs {
			if a.Op != table.Count {
				next = appendMissing(next, []string{a.Col})
			}
		}
	case OpSort:
		// The compiled sort breaks ties on every input column, so it reads
		// its whole input schema.
		in, err := e.derive(l.Input)
		if err != nil {
			return err
		}
		next = in.schema.Names()
	case OpLimit:
		next = demanded
	default:
		return fmt.Errorf("query: unknown operator %d", l.Op)
	}
	if err := e.demand(l.Input, next, root && l.Op == OpLimit, needs); err != nil || l.Op != OpJoin {
		return err
	}
	return e.demand(l.Right, toRight, false, needs)
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
