package query

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/table"
)

// optimize rewrites a logical plan in place: filters pushed toward scans,
// star joins reordered cheapest-dimension-first, projections narrowed to the
// columns read above them and inserted above the scans they prune. s holds
// the shape of each of lp's joins, as Build's walk derived them. A pass that
// fails to derive the plan it rewrites is an error, never a fallback: a plan
// that runs is the plan the optimizer built.
func (e *Env) optimize(lp *Logical, s shapes) (*Logical, error) {
	rw, _, err := e.reorderJoins(s.pushFilters(lp, nil), false, s)
	if err == nil {
		rw, err = e.demand(rw, nil, s)
	}
	if err != nil {
		return nil, fmt.Errorf("query: optimizer rewrite does not derive: %w", err)
	}
	return rw, nil
}

// shape is what the passes read of a join's names: its output schema and
// its build side's, whose columns out's last ones are named from (the probe
// side's keep their names, first in out).
type shape struct{ out, right table.Schema }

// shapes holds, for one Build, the shape of every join of the plan the last
// pass returned: each pass records the joins it derives, and the next reads
// a join's shape there rather than walking its inputs again.
type shapes map[*Logical]shape

// pushFilters pushes the pending conjuncts (plus any Filter nodes met
// on the way) as close to the scans as possible.
func (s shapes) pushFilters(l *Logical, pending []*Expr) *Logical {
	wrap := func(node *Logical, stuck []*Expr) *Logical {
		if len(stuck) == 0 {
			return node
		}
		return &Logical{Op: OpFilter, Input: node, Pred: conjoin(stuck)}
	}
	switch l.Op {
	case OpFilter:
		return s.pushFilters(l.Input, append(append([]*Expr(nil), pending...), l.Pred.conjuncts()...))
	case OpScan:
		return wrap(l, pending)
	case OpSort:
		l.Input = s.pushFilters(l.Input, pending)
		return l
	case OpLimit:
		// A filter above LIMIT changes which rows survive the cap; never
		// push through it.
		l.Input = s.pushFilters(l.Input, nil)
		return wrap(l, pending)
	case OpProject:
		// A conjunct referencing only aliased pass-through columns moves
		// below the projection under the source names.
		toSource := map[string]string{}
		for i, c := range l.Cols {
			toSource[l.Aliases[i]] = c
		}
		push, stuck := split(pending, func(col string) bool { _, ok := toSource[col]; return ok })
		for i, c := range push {
			push[i] = c.renamed(toSource)
		}
		l.Input = s.pushFilters(l.Input, push)
		return wrap(l, stuck)
	case OpAgg:
		// Conjuncts over group keys commute with aggregation.
		push, stuck := split(pending, func(col string) bool { return slices.Contains(l.Keys, col) })
		l.Input = s.pushFilters(l.Input, push)
		return wrap(l, stuck)
	case OpJoin:
		// Filters change no schema, so the join's shape is still the one
		// Build's walk recorded.
		sh := s[l]
		var toLeft, toRight, stuck []*Expr
		for _, c := range pending {
			switch side, rc := joinSide(c, sh.out, sh.right); side {
			case 0:
				toLeft = append(toLeft, c)
			case 1:
				toRight = append(toRight, rc)
			default:
				stuck = append(stuck, c)
			}
		}
		l.Input = s.pushFilters(l.Input, toLeft)
		l.Right = s.pushFilters(l.Right, toRight)
		return wrap(l, stuck)
	}
	return wrap(l, pending)
}

// split parts conjuncts into those whose every column passes ok and the
// rest.
func split(conjuncts []*Expr, ok func(col string) bool) (pass, rest []*Expr) {
	for _, c := range conjuncts {
		if slices.ContainsFunc(c.Cols(), func(col string) bool { return !ok(col) }) {
			rest = append(rest, c)
		} else {
			pass = append(pass, c)
		}
	}
	return pass, rest
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
//
// It returns l's replacement and, if need is set, l's derivation with
// statistics, derived from its inputs' as it returns from them; a chain of
// two or more joins needs its base's and build sides'. It records in s the
// shape of each join it builds; a join it keeps keeps the shape s has.
func (e *Env) reorderJoins(l *Logical, need bool, s shapes) (*Logical, derived, error) {
	if l.Op != OpJoin {
		var in derived
		var err error
		if l.Op != OpScan {
			l.Input, in, err = e.reorderJoins(l.Input, need, s)
		} else if need {
			in, err = e.table(l.TableName)
		}
		if err == nil && need {
			in, err = derive(l, in, derived{})
		}
		return l, in, err
	}
	// Collect the left-deep chain in join order.
	type link struct {
		join *Logical // the chain's join node
		d    derived  // its build side's derivation
	}
	var chain []link
	cur := l
	for ; cur.Op == OpJoin; cur = cur.Input {
		chain = append(chain, link{join: cur})
	}
	slices.Reverse(chain)
	try := len(chain) > 1
	base, bd, err := e.reorderJoins(cur, need || try, s)
	if err != nil {
		return nil, derived{}, err
	}
	chain[0].join.Input = base
	for i, ln := range chain {
		if ln.join.Right, chain[i].d, err = e.reorderJoins(ln.join.Right, need || try, s); err != nil {
			return nil, derived{}, err
		}
		// A probe column from an earlier join makes the order load-bearing.
		try = try && bd.schema.Index(ln.join.LeftCol) >= 0
	}
	if !need && !try {
		return l, derived{}, nil
	}
	// joined derives the links joining base in order: steps[i] is the
	// derivation after the first i. It also returns the names each build
	// side's columns get there. A prefix chosen on collision depends on
	// what joined before, so a reorder that moves one would hand the name
	// to another side's column.
	joined := func(order []link) ([]derived, map[*Logical][]string, error) {
		steps, names := []derived{bd}, map[*Logical][]string{}
		for _, ln := range order {
			prev := steps[len(steps)-1]
			d, err := derive(ln.join, prev, ln.d)
			if err != nil {
				return nil, nil, err
			}
			steps, names[ln.join] = append(steps, d), d.schema.Names()[len(prev.schema.Cols):]
		}
		return steps, names, nil
	}
	steps, names, err := joined(chain)
	if err != nil {
		return nil, derived{}, err
	}
	orig := steps[len(chain)]
	ordered := slices.Clone(chain)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].d.rows < ordered[j].d.rows })
	if !try || slices.EqualFunc(chain, ordered, func(a, b link) bool { return a.join == b.join }) {
		return l, orig, nil
	}
	rwSteps, rwNames, err := joined(ordered)
	if err != nil || !maps.EqualFunc(names, rwNames, slices.Equal[[]string]) {
		return l, orig, err
	}
	rw := base
	for i, ln := range ordered {
		rw = rw.Join(ln.join.Right, ln.join.LeftCol, ln.join.RightCol)
		s[rw] = shape{out: rwSteps[i+1].schema, right: ln.d.schema}
	}
	d := rwSteps[len(ordered)]
	if slices.Equal(orig.schema.Cols, d.schema.Cols) {
		return rw, d, nil
	}
	cols := orig.schema.Names()
	rw = rw.Project(cols, cols)
	if need {
		d, err = derive(rw, d, derived{})
	}
	return rw, d, err
}

// demand is the optimizer's one column-demand pass, top-down. demanded
// lists the output columns l's parent reads; nil means all of them. It
// narrows every projection to the items read above it, inserts above each
// scan it prunes (above the scan's filter, if it has one) a projection of
// the columns read above, which compile fuses into the scan, and returns
// l's replacement. In place on an already-cloned tree: a join reads its
// shape in s, recorded before demand narrows its inputs.
func (e *Env) demand(l *Logical, demanded []string, s shapes) (*Logical, error) {
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
		out, right := s[l].out, s[l].right
		nLeft := len(out.Cols) - len(right.Cols)
		keep := make([]bool, len(out.Cols))
		var mark func(i int)
		mark = func(i int) {
			if i < 0 || keep[i] {
				return
			}
			keep[i] = true
			if i < nLeft {
				return
			}
			// A right column keeps a prefixed name only while every name it
			// collided with on the way is still emitted.
			for name := right.Cols[i-nLeft].Name; name != out.Cols[i].Name; name = collided(name) {
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
			case i < nLeft:
				next = append(next, out.Cols[i].Name)
			default:
				toRight = append(toRight, right.Cols[i-nLeft].Name)
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
	if l.Input, err = e.demand(l.Input, next, s); err != nil || l.Op != OpJoin {
		return l, err
	}
	l.Right, err = e.demand(l.Right, toRight, s)
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
