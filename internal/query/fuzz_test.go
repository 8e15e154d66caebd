package query_test

import (
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/query"
	"repro/internal/table"
)

// fuzzGen consumes fuzz bytes as a decision stream: every structural
// choice (schema shape, row values, plan operators, predicates) is a
// deterministic function of the input, so any failure reproduces from
// its corpus entry.
type fuzzGen struct {
	data  []byte
	pos   int
	joins int // joins plan may still add
}

func (g *fuzzGen) byte() byte {
	if g.pos >= len(g.data) {
		g.pos++
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *fuzzGen) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(g.byte()) % n
}

// Small value domains force key collisions, empty filter results and
// duplicate join keys. Floats are multiples of 0.25 so sums are exact
// in any combination order; the bytes 255 and 254 give NaN and −0.
func (g *fuzzGen) value(typ table.Type) any {
	switch typ {
	case table.Int64:
		return int64(g.intn(13) - 4)
	case table.Float64:
		switch b := g.byte(); b {
		case 255:
			return math.NaN()
		case 254:
			return math.Copysign(0, -1)
		default:
			return float64(int(b)%25-8) * 0.25
		}
	default:
		return string(rune('a' + g.intn(4)))
	}
}

var fuzzTypes = []table.Type{table.Int64, table.String, table.Float64, table.Int64}

func (g *fuzzGen) schema(prefix string) table.Schema {
	n := 2 + g.intn(3)
	cols := make([]table.Col, n)
	for i := range cols {
		cols[i] = table.Col{
			Name: prefix + string(rune('a'+i)),
			Type: fuzzTypes[(i+g.intn(2))%len(fuzzTypes)],
		}
	}
	return table.Schema{Cols: cols}
}

func (g *fuzzGen) rows(s table.Schema, max int) []table.Row {
	n := g.intn(max + 1)
	rows := make([]table.Row, n)
	for i := range rows {
		r := make(table.Row, len(s.Cols))
		for c, col := range s.Cols {
			r[c] = g.value(col.Type)
		}
		rows[i] = r
	}
	return rows
}

func (g *fuzzGen) pred(s table.Schema, depth int) *query.Expr {
	if depth > 0 && g.intn(3) == 0 {
		l := g.pred(s, depth-1)
		r := g.pred(s, depth-1)
		if g.intn(2) == 0 {
			return query.And(l, r)
		}
		return query.Or(l, r)
	}
	col := s.Cols[g.intn(len(s.Cols))]
	op := query.CmpOp(g.intn(6))
	return query.Cmp(col.Name, op, g.value(col.Type))
}

// plan grows a valid logical plan over the current schema, tracking
// the schema as operators stack.
func (g *fuzzGen) plan(scan *query.Logical, schema table.Schema, joinable *query.Logical, joinSchema table.Schema) *query.Logical {
	lp := scan
	steps := g.intn(4)
	for i := 0; i < steps; i++ {
		switch g.intn(3) {
		case 0:
			lp = lp.Where(g.pred(schema, 1))
		case 1:
			// Project a random non-empty subset, possibly renamed.
			var cols, aliases []string
			for _, c := range schema.Cols {
				if g.intn(2) == 0 {
					cols = append(cols, c.Name)
					aliases = append(aliases, c.Name)
				}
			}
			if len(cols) == 0 {
				cols = []string{schema.Cols[0].Name}
				aliases = []string{schema.Cols[0].Name}
			}
			if g.intn(3) == 0 {
				aliases[0] = "r_" + aliases[0]
			}
			lp = lp.Project(cols, aliases)
			out := make([]table.Col, len(cols))
			for k, c := range cols {
				out[k] = table.Col{Name: aliases[k], Type: schema.Cols[schema.Index(c)].Type}
			}
			schema = table.Schema{Cols: out}
		case 2:
			if g.joins == 0 {
				continue
			}
			// Join on a type-compatible column pair, if any exists.
			var pairs [][2]string
			for _, lc := range schema.Cols {
				for _, rc := range joinSchema.Cols {
					if lc.Type == rc.Type {
						pairs = append(pairs, [2]string{lc.Name, rc.Name})
					}
				}
			}
			if len(pairs) == 0 {
				continue
			}
			p := pairs[g.intn(len(pairs))]
			lp = lp.Join(joinable, p[0], p[1])
			schema = table.JoinSchema(schema, joinSchema)
			g.joins--
		}
	}
	// Optional aggregate.
	if g.intn(2) == 0 {
		var keys []string
		for _, c := range schema.Cols {
			if g.intn(3) == 0 {
				keys = append(keys, c.Name)
			}
		}
		var aggs []table.Agg
		out := make([]table.Col, 0, len(keys)+4)
		for _, k := range keys {
			out = append(out, schema.Cols[schema.Index(k)])
		}
		aggs = append(aggs, table.Agg{Op: table.Count})
		out = append(out, table.Col{Name: "count", Type: table.Int64})
		for _, c := range schema.Cols {
			isKey := false
			for _, k := range keys {
				if k == c.Name {
					isKey = true
				}
			}
			if isKey || g.intn(2) == 0 {
				continue
			}
			ops := []table.AggOp{table.Min, table.Max}
			if c.Type != table.String {
				ops = append(ops, table.Sum, table.Avg)
			}
			op := ops[g.intn(len(ops))]
			aggs = append(aggs, table.Agg{Op: op, Col: c.Name, As: "agg_" + c.Name})
			typ := c.Type
			if op == table.Avg {
				typ = table.Float64
			}
			out = append(out, table.Col{Name: "agg_" + c.Name, Type: typ})
		}
		lp = lp.GroupBy(keys, aggs...)
		schema = table.Schema{Cols: out}
	}
	// Optional sort (+ limit). The sort column must come from the
	// current schema; after an aggregate keys and aggregate outputs
	// both survive.
	if len(schema.Cols) > 0 && g.intn(2) == 0 {
		col := schema.Cols[g.intn(len(schema.Cols))].Name
		lp = lp.OrderBy(col, g.intn(2) == 0)
		if g.intn(2) == 0 {
			lp = lp.Limit(g.intn(9))
		}
	}
	return lp
}

// planSeed composes a corpus entry: two-column tables (int64, string) of the
// given row and partition counts, joined — t0 with itself if selfJoin —
// then filtered, projected, aggregated, sorted and limited.
func planSeed(rows0, parts0, rows1, parts1 int, selfJoin bool) []byte {
	seed := []byte{0, 0, 0, 0, 0, 0} // both schemas
	for _, n := range []int{rows0, rows1} {
		seed = append(seed, byte(n))
		for i := 0; i < 2*n; i++ {
			seed = append(seed, byte(i*7))
		}
	}
	join := byte(parts1 - 1)
	if selfJoin {
		join += 128
	}
	seed = append(seed, byte(parts0-1), join)
	return append(seed,
		3,    // three steps:
		2, 0, // join on the int64 columns,
		0, 1, 0, 5, 0, // keep a >= -4,
		1, 0, 1, 0, 0, 1, // project three columns;
		0, 1, 1, 0, 1, 2, 1, 3, // count, sum and avg by the last column,
		0, 1, 0, 0, 3) // top 3 by the second column, descending
}

// joinAggSeed composes a corpus entry of the join → project → GROUP BY
// shape: (int64, string, float64) tables joined on pair (0: a = qa, 2: the
// float columns c = qc), projected to b, c, qb, qc without renaming, and
// grouped as agg says — a key byte per projected column (0 = key), then
// for each other column an include byte (1) and an operator byte (0 Min,
// 1 Max, 2 Sum, 3 Avg) — with no sort. Fewer rows on the left than on the
// right makes the optimized join a shuffle join, more a broadcast one.
func joinAggSeed(rows0, parts0, rows1, parts1 int, pair byte, agg ...byte) []byte {
	seed := []byte{1, 0, 0, 0, 1, 0, 0, 0} // both schemas
	for _, n := range []int{rows0, rows1} {
		seed = append(seed, byte(n))
		for i := 0; i < 3*n; i++ {
			seed = append(seed, byte(i*7))
		}
	}
	seed = append(seed, byte(parts0-1), byte(parts1-1),
		2,       // two steps:
		2, pair, // join,
		1, 1, 0, 0, 1, 0, 0, 1, // project b, c, qb, qc;
		0) // group
	return append(append(seed, agg...), 1)
}

// topKSeed composes a corpus entry of the ORDER BY … LIMIT shape: t0 is
// (a int64, b float64) holding the given (a, b) value byte pairs in parts
// partitions, and the plan keeps the first k rows by b, descending, with no
// other step. A b byte of 255 is NaN, 254 is −0.
func topKSeed(parts, k int, values ...byte) []byte {
	seed := append([]byte{0, 0, 1, 0, 0, 0, byte(len(values) / 2)}, values...)
	return append(seed, 0, byte(parts-1), 0, // t1 empty, in one partition
		0,                   // no step,
		1,                   // no aggregate;
		0, 1, 0, 0, byte(k)) // top k by b, descending
}

// planSeeds are FuzzPlanEquivalence's corpus entries; TestPlanShapesPinned
// also pins the plans they build.
var planSeeds = [][]byte{
	{},
	{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
	{7, 0, 7, 0, 7, 0, 7, 0, 200, 100, 50, 25, 12, 6, 3, 1, 7, 0, 7, 0},
	{255, 254, 253, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6},
	{42, 42, 42, 42, 0, 0, 0, 0, 42, 42, 42, 42, 17, 17, 17, 17, 99, 99},
	// Partitions of 0 and 1 rows joined with one partition holding all of
	// the other side's 2; one partition holding all 24 rows; a self-join.
	planSeed(1, 4, 2, 1, false),
	planSeed(24, 1, 12, 4, false),
	planSeed(5, 3, 0, 2, true),
	// Float SUM and AVG over a join → project → GROUP BY, which the
	// optimizer folds without building the join: keys from the left (b),
	// both sides (b, qb), the right (qb) and the float join column (c).
	joinAggSeed(5, 2, 12, 3, 2, 0, 1, 1, 1, 1, 2, 0, 1, 3),
	joinAggSeed(20, 3, 6, 2, 0, 0, 1, 0, 1, 1, 3, 1, 2),
	joinAggSeed(3, 4, 9, 1, 2, 1, 1, 0, 1, 1, 0, 1, 2, 1, 3),
	joinAggSeed(24, 4, 12, 2, 2, 1, 0, 1, 1, 0, 0, 1, 2),
	// ORDER BY … LIMIT, which the optimizer runs as one top-k: k = 0; k = 8
	// over four partitions of at most 3 rows; k = 8 of 20 rows in two
	// partitions whose sort column holds 3 NaN, 0.25, 2 +0 and 6 −0, so the
	// cut falls among the −0 rows, after every +0.
	topKSeed(3, 0, 1, 9, 2, 20, 3, 9, 4, 1),
	topKSeed(4, 8, 1, 9, 2, 20, 3, 9, 4, 1, 5, 30, 6, 9, 7, 2, 8, 11, 9, 24, 10, 9),
	topKSeed(2, 8, 1, 255, 2, 254, 3, 8, 4, 254, 5, 7, 6, 255, 7, 254, 8, 9, 9, 6, 1, 254,
		2, 8, 3, 254, 4, 255, 5, 6, 6, 254, 7, 7, 8, 5, 9, 4, 10, 3, 11, 2),
}

// fuzzPlan registers the two tables an input describes in a fresh Env and
// grows a plan over them that joins at most joins times. The returned
// generator goes on to supply the build options.
func fuzzPlan(t testing.TB, data []byte, joins int) (*query.Env, *query.Logical, *fuzzGen) {
	g := &fuzzGen{data: data, joins: joins}
	s0 := g.schema("")
	s1 := g.schema("q")
	r0 := g.rows(s0, 24)
	r1 := g.rows(s1, 12)

	env := query.NewEnv(testEngine(), nil)
	if err := env.Register("t0", s0, r0, 1+g.intn(4)); err != nil {
		t.Fatal(err)
	}
	// The byte that picks t1's partition count also picks, in its top
	// bit, a self-join: t0 joined with itself, two consumers of the same
	// scan's batches.
	b := int(g.byte())
	if err := env.Register("t1", s1, r1, 1+b%4); err != nil {
		t.Fatal(err)
	}
	right, rightSchema := query.Scan("t1"), s1
	if b >= 128 {
		right, rightSchema = query.Scan("t0"), s0
	}
	return env, g.plan(query.Scan("t0"), s0, right, rightSchema), g
}

// chainSeed composes a corpus entry that joins t0 (a int64, b string) with
// itself twice on a, so the second join's columns collide with the first's
// prefixed names and are named right_right_a and right_right_b: SELECT *,
// or with project SELECT right_right_b. No aggregate, no sort.
func chainSeed(rows, parts int, project bool) []byte {
	seed := []byte{0, 0, 0, 0, 0, 0, byte(rows)} // both schemas, t0's rows,
	for i := 0; i < rows; i++ {
		seed = append(seed, byte(i%3), byte(i)) // three per key, b cycling
	}
	seed = append(seed, 0, byte(parts-1), 128) // t1 empty; self-join
	if !project {
		return append(seed, 2, 2, 0, 2, 0, 1, 1) // two steps: join on a, join on a
	}
	return append(seed, 3, 2, 0, 2, 0, // three steps: join on a, join on a,
		1, 1, 1, 1, 1, 1, 0, 1, // keep the sixth column of six, unrenamed;
		1, 1) // no aggregate, no sort
}

// FuzzPlanEquivalence generates random schemas, rows and logical plans
// and checks three-way agreement: optimizer-on output == optimizer-off
// output == the naive reference evaluator, as multisets (ordered when
// the plan sorts).
func FuzzPlanEquivalence(f *testing.F) {
	for _, seed := range planSeeds {
		f.Add(seed)
	}
	// Two joins, whose names chain prefixes; TestPlanShapesPinned caps
	// plans at one join, so these stay out of planSeeds.
	f.Add(chainSeed(6, 2, false))
	f.Add(chainSeed(9, 3, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, lp, g := fuzzPlan(t, data, 2)

		var outputs [][]table.Row
		for _, optimize := range []bool{false, true} {
			plan, err := env.Build(lp, query.Options{Optimize: optimize, BroadcastRows: int64(g.intn(2) * 1000)})
			if err != nil {
				t.Fatalf("build optimize=%v: %v", optimize, err)
			}
			rows, err := plan.Execute()
			if err != nil {
				t.Fatalf("execute optimize=%v: %v\n%s", optimize, err, plan.Explain())
			}
			if d := check.DiffQueryEnv("fuzz", rows, lp, env); !d.OK {
				t.Fatalf("optimize=%v diverges from oracle: %s\n%s", optimize, d, plan.Explain())
			}
			outputs = append(outputs, rows)
		}
		var d check.Diff
		if lp.Ordered() {
			d = check.DiffOrdered("on-vs-off", outputs[1], outputs[0], check.FormatRow)
		} else {
			d = check.DiffMultiset("on-vs-off", outputs[1], outputs[0], check.FormatRow)
		}
		if !d.OK {
			t.Fatalf("optimizer changed the result: %s", d)
		}
	})
}

// FuzzParse feeds the SQL front end arbitrary text: it must return a plan
// or an error, never both or neither, and never panic.
func FuzzParse(f *testing.F) {
	for _, q := range query.StarQueries() {
		f.Add(q.SQL)
	}
	f.Add("SELECT * FROM t WHERE (a < 1.5 OR b <> 'it''s') AND c != -2 ORDER BY a DESC LIMIT 0")
	f.Add("SELECT COUNT(*) AS n, AVG(t.x) FROM t JOIN u ON t.k = u.k GROUP BY")
	f.Add("SELECT 'unterminated FROM t")
	f.Add("")
	f.Fuzz(func(t *testing.T, sql string) {
		lp, err := query.Parse(sql)
		if (lp == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v", sql, lp, err)
		}
		if lp != nil {
			lp.Ordered()
		}
	})
}
