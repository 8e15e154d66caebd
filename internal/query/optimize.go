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
// columns read above them and inserted above the scans they prune. It
// returns lp itself if demand failed; Build falls back to lp unless the
// rewritten plan compiles to lp's output schema, so optimization can only
// change cost, never results.
func (e *Env) optimize(lp *Logical) *Logical {
	rw, err := e.demand(e.reorderJoins(e.pushFilters(lp.clone(), nil)), nil)
	if err != nil {
		return lp
	}
	return rw
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
	if slices.Equal(origOut.schema.Cols, rwOut.schema.Cols) {
		return rw
	}
	names := origOut.schema.Names()
	return rw.Project(names, names)
}

// demand is the optimizer's one column-demand pass, top-down. demanded
// lists the output columns l's parent reads; nil means all of them. It
// narrows every projection to the items read above it, inserts above each
// scan it prunes (above the scan's filter, if it has one) a projection of
// the columns read above, which compile fuses into the scan, and returns
// l's replacement. In place on an already-cloned tree: a join reads its
// inputs' schemas before demand narrows them.
func (e *Env) demand(l *Logical, demanded []string) (*Logical, error) {
	var next, toRight []string
	switch l.Op {
	case OpScan:
		return e.prune(l, l, demanded, nil)
	case OpFilter:
		if l.Input.Op == OpScan {
			// A filter fused into its scan runs its single-column conjuncts on
			// the encoded columns; only multi-column conjunct inputs are decoded.
			var multi []string
			for _, conj := range l.Pred.conjuncts() {
				if cols := conj.Cols(); len(cols) > 1 {
					multi = append(multi, cols...)
				}
			}
			return e.prune(l, l.Input, demanded, multi)
		}
		if next = demanded; demanded != nil {
			next = appendMissing(demanded, l.Pred.Cols())
		}
	case OpProject:
		if demanded != nil {
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
		next = l.Cols
	case OpJoin:
		if demanded == nil {
			break // all of both inputs
		}
		left, err := l.Input.OutSchema(e.Schema)
		if err != nil {
			return nil, err
		}
		right, err := l.Right.OutSchema(e.Schema)
		if err != nil {
			return nil, err
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
		next = appendMissing([]string{}, l.Keys) // not nil: a global count reads no column
		for _, a := range l.Aggs {
			if a.Op != table.Count {
				next = appendMissing(next, []string{a.Col})
			}
		}
	case OpSort:
		// The compiled sort breaks ties on every input column, so it reads
		// its whole input.
	case OpLimit:
		next = demanded
	default:
		return nil, fmt.Errorf("query: unknown operator %d", l.Op)
	}
	var err error
	if l.Input, err = e.demand(l.Input, next); err != nil || l.Op != OpJoin {
		return l, err
	}
	l.Right, err = e.demand(l.Right, toRight)
	return l, err
}

// prune puts top, scan or the filter over it, under a projection of the
// demanded columns in table order; if none is demanded, of the first of
// extra, the multi-column conjuncts' inputs. It inserts none of no column
// or of every column: the scan then decodes them all.
func (e *Env) prune(top, scan *Logical, demanded, extra []string) (*Logical, error) {
	schema, err := e.Schema(scan.TableName)
	if err != nil || demanded == nil {
		return top, err
	}
	var keep, first []string
	for _, c := range schema.Cols {
		if slices.Contains(demanded, c.Name) {
			keep = append(keep, c.Name)
		} else if first == nil && slices.Contains(extra, c.Name) {
			first = []string{c.Name}
		}
	}
	if len(keep) == 0 {
		keep = first
	}
	if len(keep) == 0 || len(keep) == len(schema.Cols) {
		return top, nil
	}
	return top.Project(keep, nil), nil
}

// collided is the name table.JoinSchema gives a right column called name
// when the name is taken.
func collided(name string) string {
	one := table.Schema{Cols: []table.Col{{Name: name}}}
	return table.JoinSchema(one, one).Cols[1].Name
}

// appendMissing returns dst followed by the names of add it lacks, without
// writing into dst's array.
func appendMissing(dst, add []string) []string {
	dst = slices.Clip(dst)
	for _, s := range add {
		if !slices.Contains(dst, s) {
			dst = append(dst, s)
		}
	}
	return dst
}
