package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/table"
)

// Parse turns a SQL-ish query into a logical plan:
//
//	SELECT item [, item]... FROM tbl
//	  [JOIN tbl2 ON col = col]...
//	  [WHERE pred]
//	  [GROUP BY col [, col]...]
//	  [ORDER BY col [ASC|DESC]]
//	  [LIMIT n]
//
// where item is *, col, col AS name, or SUM/COUNT/MIN/MAX/AVG(col|*)
// [AS name]; pred is AND/OR over col <op> literal comparisons with
// (), =, !=, <>, <, <=, >, >=; literals are integers, decimals and
// 'single-quoted' strings. Qualified names (t.col) drop the qualifier.
// The plan resolves table and column names at Build time, not here.
func Parse(sql string) (*Logical, error) {
	toks, err := tokenize(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	lp, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("query: parse: %w", err)
	}
	return lp, nil
}

// SQL parses, optimizes and compiles a query in one call.
func (e *Env) SQL(sql string, opts Options) (*Plan, error) {
	lp, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Build(lp, opts)
}

// ---------------------------------------------------------------------------
// Tokenizer

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokSymbol
	tokEOF
)

type token struct {
	kind tokKind
	text string // idents uppercased for keywords? no — raw; keyword match is case-insensitive
	num  any    // int64 or float64 for tokNumber
}

func tokenize(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("query: parse: unterminated string at %d", i)
			}
			toks = append(toks, token{kind: tokString, text: s[i+1 : j]})
			i = j + 1
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '=':
			toks = append(toks, token{kind: tokSymbol, text: string(c)})
			i++
		case c == '!' || c == '<' || c == '>':
			op := string(c)
			if i+1 < len(s) && (s[i+1] == '=' || (c == '<' && s[i+1] == '>')) {
				op += string(s[i+1])
				i++
			}
			if op == "<>" {
				op = "!="
			}
			if op == "!" {
				return nil, fmt.Errorf("query: parse: stray '!' at %d", i)
			}
			toks = append(toks, token{kind: tokSymbol, text: op})
			i++
		case c == '-' || c >= '0' && c <= '9':
			j := i
			if c == '-' {
				j++
			}
			dot := false
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' && !dot) {
				if s[j] == '.' {
					dot = true
				}
				j++
			}
			text := s[i:j]
			if text == "-" {
				return nil, fmt.Errorf("query: parse: stray '-' at %d", i)
			}
			var num any
			if dot {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, fmt.Errorf("query: parse: bad number %q", text)
				}
				num = f
			} else {
				n, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("query: parse: bad number %q", text)
				}
				num = n
			}
			toks = append(toks, token{kind: tokNumber, text: text, num: num})
			i = j
		case c == '_' || unicode.IsLetter(rune(c)):
			j := i
			for j < len(s) && (s[j] == '_' || s[j] == '.' ||
				unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j]))) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: s[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("query: parse: unexpected character %q at %d", c, i)
		}
	}
	return append(toks, token{kind: tokEOF}), nil
}

// ---------------------------------------------------------------------------
// Parser

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) symbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

// column reads a possibly qualified column reference, dropping the
// qualifier: "sales.units" -> "units".
func (p *parser) column() (string, error) {
	id, err := p.ident()
	if err != nil {
		return "", err
	}
	if i := strings.LastIndexByte(id, '.'); i >= 0 {
		id = id[i+1:]
	}
	if id == "" {
		return "", fmt.Errorf("empty column name")
	}
	return id, nil
}

var aggOps = map[string]table.AggOp{
	"SUM": table.Sum, "COUNT": table.Count, "MIN": table.Min, "MAX": table.Max, "AVG": table.Avg,
}

type selectItem struct {
	star  bool      // bare *
	col   string    // plain column
	alias string    // AS name ("" = default)
	isAgg bool      // aggregate function
	agg   table.Agg // when isAgg
}

func (p *parser) parseQuery() (*Logical, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	items, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	base, err := p.ident()
	if err != nil {
		return nil, err
	}
	lp := Scan(base)
	for p.keyword("JOIN") {
		right, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		leftCol, err := p.column()
		if err != nil {
			return nil, err
		}
		if !p.symbol("=") {
			return nil, fmt.Errorf("expected = in ON clause, got %q", p.peek().text)
		}
		rightCol, err := p.column()
		if err != nil {
			return nil, err
		}
		lp = lp.Join(Scan(right), leftCol, rightCol)
	}
	if p.keyword("WHERE") {
		pred, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		lp = lp.Where(pred)
	}
	var groupKeys []string
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.column()
			if err != nil {
				return nil, err
			}
			groupKeys = append(groupKeys, col)
			if !p.symbol(",") {
				break
			}
		}
	}
	lp, outCols, err := applySelect(lp, items, groupKeys)
	if err != nil {
		return nil, err
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.column()
		if err != nil {
			return nil, err
		}
		desc := false
		if p.keyword("DESC") {
			desc = true
		} else {
			p.keyword("ASC")
		}
		found := false
		for _, c := range outCols {
			if c == col {
				found = true
				break
			}
		}
		if !found && outCols != nil {
			return nil, fmt.Errorf("ORDER BY %s is not in the select list", col)
		}
		lp = lp.OrderBy(col, desc)
	}
	if p.keyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("expected LIMIT count, got %q", t.text)
		}
		n, ok := t.num.(int64)
		if !ok || n < 0 {
			return nil, fmt.Errorf("bad LIMIT %q", t.text)
		}
		if lp.Op != OpSort {
			return nil, fmt.Errorf("LIMIT requires ORDER BY (unordered limits are nondeterministic)")
		}
		lp = lp.Limit(int(n))
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("trailing input at %q", p.peek().text)
	}
	return lp, nil
}

func (p *parser) parseSelectList() ([]selectItem, error) {
	var items []selectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.symbol(",") {
			break
		}
	}
	return items, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	if p.symbol("*") {
		return selectItem{star: true}, nil
	}
	t := p.peek()
	if t.kind == tokIdent {
		if op, isAgg := aggOps[strings.ToUpper(t.text)]; isAgg && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			p.pos += 2 // fn (
			agg := table.Agg{Op: op}
			if p.symbol("*") {
				if op != table.Count {
					return selectItem{}, fmt.Errorf("%s(*) is not supported", strings.ToUpper(t.text))
				}
			} else {
				col, err := p.column()
				if err != nil {
					return selectItem{}, err
				}
				if op == table.Count {
					return selectItem{}, fmt.Errorf("COUNT takes * (COUNT(%s) is not supported)", col)
				}
				agg.Col = col
			}
			if !p.symbol(")") {
				return selectItem{}, fmt.Errorf("expected ) after aggregate, got %q", p.peek().text)
			}
			item := selectItem{isAgg: true, agg: agg}
			if p.keyword("AS") {
				alias, err := p.ident()
				if err != nil {
					return selectItem{}, err
				}
				item.agg.As = alias
				item.alias = alias
			}
			return item, nil
		}
	}
	col, err := p.column()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{col: col, alias: col}
	if p.keyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return selectItem{}, err
		}
		item.alias = alias
	}
	return item, nil
}

// applySelect turns the select list + GROUP BY into Agg/Project nodes
// above lp. Returns the output column names (nil means SELECT * — any
// ORDER BY column is accepted and validated at Build).
func applySelect(lp *Logical, items []selectItem, groupKeys []string) (*Logical, []string, error) {
	hasAgg := false
	for _, it := range items {
		if it.star && len(items) > 1 {
			return nil, nil, fmt.Errorf("* must be the only select item")
		}
		if it.isAgg {
			hasAgg = true
		}
	}
	if items[0].star {
		if len(groupKeys) > 0 {
			return nil, nil, fmt.Errorf("SELECT * with GROUP BY is not supported")
		}
		return lp, nil, nil
	}
	if !hasAgg {
		if len(groupKeys) > 0 {
			return nil, nil, fmt.Errorf("GROUP BY without aggregates is not supported")
		}
		cols := make([]string, len(items))
		aliases := make([]string, len(items))
		for i, it := range items {
			cols[i] = it.col
			aliases[i] = it.alias
		}
		return lp.Project(cols, aliases), aliases, nil
	}
	// Aggregate query: plain select items must be group keys.
	keySet := map[string]bool{}
	for _, k := range groupKeys {
		keySet[k] = true
	}
	var aggs []table.Agg
	for _, it := range items {
		if it.isAgg {
			aggs = append(aggs, it.agg)
			continue
		}
		if !keySet[it.col] {
			return nil, nil, fmt.Errorf("column %s must appear in GROUP BY or an aggregate", it.col)
		}
	}
	lp = lp.GroupBy(groupKeys, aggs...)
	// Project to the select order (the Agg node emits keys first).
	cols := make([]string, len(items))
	aliases := make([]string, len(items))
	for i, it := range items {
		if it.isAgg {
			cols[i] = it.agg.Name()
			aliases[i] = cols[i]
		} else {
			cols[i] = it.col
			aliases[i] = it.alias
		}
	}
	return lp.Project(cols, aliases), aliases, nil
}

func (p *parser) parseOr() (*Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Or(left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (*Expr, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.keyword("AND") {
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		left = And(left, right)
	}
	return left, nil
}

var cmpOps = map[string]CmpOp{"=": Eq, "!=": Ne, "<": Lt, "<=": Le, ">": Gt, ">=": Ge}

func (p *parser) parseCmp() (*Expr, error) {
	if p.symbol("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.symbol(")") {
			return nil, fmt.Errorf("expected ), got %q", p.peek().text)
		}
		return e, nil
	}
	col, err := p.column()
	if err != nil {
		return nil, err
	}
	t := p.next()
	op, ok := cmpOps[t.text]
	if t.kind != tokSymbol || !ok {
		return nil, fmt.Errorf("expected comparison operator, got %q", t.text)
	}
	lit := p.next()
	switch lit.kind {
	case tokNumber:
		return Cmp(col, op, lit.num), nil
	case tokString:
		return Cmp(col, op, lit.text), nil
	}
	return nil, fmt.Errorf("expected literal, got %q", lit.text)
}
