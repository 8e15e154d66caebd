package query

import (
	"fmt"
	"math"
	"slices"

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
// engine, raw rows for the differential oracle, and what a scan of it
// derives (schema, row count, column stats) for the planner.
type source struct {
	derived
	data *table.ColumnarTable
	rows []table.Row
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
	st := Analyze(schema, rows)
	cols := make([]ColStats, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i] = st.Cols[c.Name]
	}
	e.tables[name] = &source{derived: derived{schema: schema, rows: float64(st.Rows), stats: cols}, data: data, rows: rows}
	return nil
}

// table is a registered table's derivation, the input of a scan of it.
func (e *Env) table(name string) (derived, error) {
	s, ok := e.tables[name]
	if !ok {
		return derived{}, fmt.Errorf("query: unknown table %q", name)
	}
	return s.derived, nil
}

// derive walks l's whole tree against the catalog, statistics included.
func (e *Env) derive(l *Logical) (derived, error) { return l.walk(e.table) }

// Schema returns a registered table's schema.
func (e *Env) Schema(name string) (table.Schema, error) {
	d, err := e.table(name)
	return d.schema, err
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

const defaultSelectivity = 1.0 / 3

// selectivity estimates the fraction of rows a predicate keeps.
func (d derived) selectivity(e *Expr) float64 {
	if e == nil {
		return 1
	}
	switch e.Kind {
	case ExprAnd:
		return d.selectivity(e.Left) * d.selectivity(e.Right)
	case ExprOr:
		a, b := d.selectivity(e.Left), d.selectivity(e.Right)
		return a + b - a*b
	}
	i := d.schema.Index(e.Col)
	if i < 0 || d.stats == nil || d.stats[i].Distinct == 0 {
		return defaultSelectivity
	}
	cs := d.stats[i]
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

// capped concatenates stats into a fresh slice with every distinct count
// bounded by the row estimate; without statistics it is nil.
func capped(rows float64, stats ...[]ColStats) []ColStats {
	if stats[0] == nil {
		return nil
	}
	cap := int64(rows)
	if rows > 0 && cap == 0 {
		cap = 1
	}
	out := slices.Concat(stats...)
	for i := range out {
		out[i].Distinct = min(out[i].Distinct, cap)
	}
	return out
}
