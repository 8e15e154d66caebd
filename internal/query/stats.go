package query

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/table"
)

// ColStats summarizes one column for the optimizer.
type ColStats struct {
	Distinct int64
	Min, Max any // nil for an empty table
}

// Stats is a per-table statistics block gathered at load time.
type Stats struct {
	Rows int64
	Cols map[string]ColStats
}

// Analyze computes exact row counts, per-column distinct counts and
// min/max over in-memory rows. Floats are keyed by IEEE bits so the
// distinct count matches the engine's join/group equality.
func Analyze(schema table.Schema, rows []table.Row) *Stats {
	st := &Stats{Rows: int64(len(rows)), Cols: make(map[string]ColStats, len(schema.Cols))}
	for c, col := range schema.Cols {
		distinct := map[any]bool{}
		var min, max any
		for _, r := range rows {
			v := r[c]
			if f, ok := v.(float64); ok {
				distinct[math.Float64bits(f)] = true
			} else {
				distinct[v] = true
			}
			if min == nil || cmpAny(v, min) < 0 {
				min = v
			}
			if max == nil || cmpAny(v, max) > 0 {
				max = v
			}
		}
		st.Cols[col.Name] = ColStats{Distinct: int64(len(distinct)), Min: min, Max: max}
	}
	return st
}

// source is one registered base table: columnar storage for the
// engine, raw rows for the differential oracle, stats for the planner.
type source struct {
	schema table.Schema
	data   *table.ColumnarTable
	rows   []table.Row
	stats  *Stats
}

// Env is the query environment: an engine to run on, a metrics
// registry for scan counters, and a catalog of registered tables.
type Env struct {
	Eng    *core.Engine
	Reg    *metrics.Registry
	tables map[string]*source
}

// NewEnv builds an environment. reg may be nil (counters then land on
// the engine's registry, or nowhere if that is nil too).
func NewEnv(eng *core.Engine, reg *metrics.Registry) *Env {
	if reg == nil && eng != nil {
		reg = eng.Reg
	}
	return &Env{Eng: eng, Reg: reg, tables: map[string]*source{}}
}

// Register loads a table into the catalog: validates and encodes the
// rows columnar across parts partitions and analyzes statistics.
func (e *Env) Register(name string, schema table.Schema, rows []table.Row, parts int) error {
	if _, dup := e.tables[name]; dup {
		return fmt.Errorf("query: table %q already registered", name)
	}
	data, err := table.BuildColumnar(schema, rows, parts)
	if err != nil {
		return fmt.Errorf("query: register %q: %w", name, err)
	}
	e.tables[name] = &source{schema: schema, data: data, rows: rows, stats: Analyze(schema, rows)}
	return nil
}

// Schema returns a registered table's schema.
func (e *Env) Schema(name string) (table.Schema, error) {
	s, ok := e.tables[name]
	if !ok {
		return table.Schema{}, fmt.Errorf("query: unknown table %q", name)
	}
	return s.schema, nil
}

// Rows returns a registered table's raw rows (the oracle's input).
func (e *Env) Rows(name string) ([]table.Row, error) {
	s, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("query: unknown table %q", name)
	}
	return s.rows, nil
}

// Tables lists registered table names (unordered).
func (e *Env) Tables() []string {
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	return out
}

// ---------------------------------------------------------------------------
// Cardinality estimation

// estimate is the planner's guess about one plan node's output: a row
// count plus per-output-column stats for downstream selectivity math.
type estimate struct {
	rows float64
	cols map[string]ColStats
}

const defaultSelectivity = 1.0 / 3

// selectivity estimates the fraction of rows a predicate keeps.
func (est *estimate) selectivity(e *Expr) float64 {
	if e == nil {
		return 1
	}
	switch e.Kind {
	case ExprAnd:
		return est.selectivity(e.Left) * est.selectivity(e.Right)
	case ExprOr:
		a, b := est.selectivity(e.Left), est.selectivity(e.Right)
		return a + b - a*b
	}
	cs, ok := est.cols[e.Col]
	if !ok || cs.Distinct == 0 {
		return defaultSelectivity
	}
	switch e.Cmp {
	case Eq:
		return 1 / float64(cs.Distinct)
	case Ne:
		return 1 - 1/float64(cs.Distinct)
	case Lt, Le, Gt, Ge:
		return rangeFraction(e.Cmp, cs.Min, cs.Max, e.Val)
	}
	return defaultSelectivity
}

// rangeFraction interpolates a range predicate against [min, max] for
// numeric columns; strings fall back to the default selectivity.
func rangeFraction(op CmpOp, min, max, val any) float64 {
	lo, okLo := toFloat(min)
	hi, okHi := toFloat(max)
	v, okV := toFloat(val)
	if !okLo || !okHi || !okV || hi <= lo {
		return defaultSelectivity
	}
	frac := (v - lo) / (hi - lo) // fraction below v
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if op == Gt || op == Ge {
		frac = 1 - frac
	}
	return frac
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		if math.IsNaN(x) {
			return 0, false
		}
		return x, true
	}
	return 0, false
}

// estimatePlan walks the logical tree computing row-count estimates.
// It names columns as OutSchema does so post-join and post-project
// references resolve.
func (e *Env) estimatePlan(l *Logical) (estimate, error) {
	switch l.Op {
	case OpScan:
		src, ok := e.tables[l.TableName]
		if !ok {
			return estimate{}, fmt.Errorf("query: unknown table %q", l.TableName)
		}
		cols := make(map[string]ColStats, len(src.stats.Cols))
		for k, v := range src.stats.Cols {
			cols[k] = v
		}
		return estimate{rows: float64(src.stats.Rows), cols: cols}, nil
	case OpFilter:
		in, err := e.estimatePlan(l.Input)
		if err != nil {
			return estimate{}, err
		}
		out := estimate{rows: in.rows * in.selectivity(l.Pred), cols: capDistinct(in.cols, in.rows*in.selectivity(l.Pred))}
		return out, nil
	case OpProject:
		in, err := e.estimatePlan(l.Input)
		if err != nil {
			return estimate{}, err
		}
		cols := make(map[string]ColStats, len(l.Cols))
		for i, c := range l.Cols {
			if cs, ok := in.cols[c]; ok {
				cols[l.Aliases[i]] = cs
			}
		}
		return estimate{rows: in.rows, cols: cols}, nil
	case OpJoin:
		left, err := e.estimatePlan(l.Input)
		if err != nil {
			return estimate{}, err
		}
		right, err := e.estimatePlan(l.Right)
		if err != nil {
			return estimate{}, err
		}
		d := 1.0
		if cs, ok := left.cols[l.LeftCol]; ok && float64(cs.Distinct) > d {
			d = float64(cs.Distinct)
		}
		if cs, ok := right.cols[l.RightCol]; ok && float64(cs.Distinct) > d {
			d = float64(cs.Distinct)
		}
		rows := left.rows * right.rows / d
		ls, err := l.Input.OutSchema(e.Schema)
		if err != nil {
			return estimate{}, err
		}
		rs, err := l.Right.OutSchema(e.Schema)
		if err != nil {
			return estimate{}, err
		}
		// Each output column's stats are its source's, named as
		// table.JoinSchema names it.
		out := table.JoinSchema(ls, rs)
		cols := make(map[string]ColStats, len(out.Cols))
		for i, c := range out.Cols {
			src, from := c.Name, left.cols
			if i >= len(ls.Cols) {
				src, from = rs.Cols[i-len(ls.Cols)].Name, right.cols
			}
			if v, ok := from[src]; ok {
				cols[c.Name] = v
			}
		}
		return estimate{rows: rows, cols: capDistinct(cols, rows)}, nil
	case OpAgg:
		in, err := e.estimatePlan(l.Input)
		if err != nil {
			return estimate{}, err
		}
		groups := 1.0
		for _, k := range l.Keys {
			if cs, ok := in.cols[k]; ok && cs.Distinct > 0 {
				groups *= float64(cs.Distinct)
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
		cols := make(map[string]ColStats, len(l.Keys)+len(l.Aggs))
		for _, k := range l.Keys {
			if cs, ok := in.cols[k]; ok {
				cols[k] = cs
			}
		}
		for _, a := range l.Aggs {
			cols[a.Name()] = ColStats{Distinct: int64(groups)}
		}
		return estimate{rows: groups, cols: cols}, nil
	case OpSort:
		return e.estimatePlan(l.Input)
	case OpLimit:
		in, err := e.estimatePlan(l.Input)
		if err != nil {
			return estimate{}, err
		}
		if float64(l.N) < in.rows {
			in.rows = float64(l.N)
		}
		return in, nil
	}
	return estimate{}, fmt.Errorf("query: unknown operator %d", l.Op)
}

// capDistinct bounds every column's distinct count by the row estimate.
func capDistinct(cols map[string]ColStats, rows float64) map[string]ColStats {
	out := make(map[string]ColStats, len(cols))
	cap := int64(rows)
	if rows > 0 && cap == 0 {
		cap = 1
	}
	for k, v := range cols {
		if v.Distinct > cap {
			v.Distinct = cap
		}
		out[k] = v
	}
	return out
}
