package plan

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
	"repro/internal/window"
)

// Catalog names the registered input streams a query may reference.
type Catalog map[string]exec.Source

// Parse compiles a query in the paper's SQL-like surface syntax into a
// plan, returning the builder and the result stream (attach a sink and
// call Run). Supported grammar:
//
//	SELECT * FROM s [WHERE a op lit [AND ...]]
//	SELECT a, b FROM s [WHERE ...]
//	SELECT g, AGG(v) [AS name] FROM s [WHERE ...]
//	    GROUP BY g[, ...] WINDOW n UNIT [SLIDE n UNIT] ON ts
//	    [PARTITION BY g[, ...] INTO n]
//	SELECT * FROM s1 UNION s2 [WITH PACE ON ts n UNIT]
//
// PARTITION BY runs the aggregate n-way data-parallel (Stream.Parallel):
// tuples are hash-routed on the named attributes, which must be a subset
// of GROUP BY.
//
// AGG ∈ {COUNT, SUM, AVG, MAX, MIN}; UNIT ∈ {MS, SECOND, MINUTE, HOUR}
// (plural accepted); op ∈ {=, !=, <, <=, >, >=}.
func Parse(query string, cat Catalog) (*Builder, Stream, error) {
	p := &parser{toks: lex(query), cat: cat, b: New()}
	s, err := p.parse()
	if err != nil {
		return nil, Stream{}, err
	}
	if err := p.b.Err(); err != nil {
		return nil, Stream{}, err
	}
	return p.b, s, nil
}

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

func lex(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',' || c == '(' || c == ')' || c == '*':
			toks = append(toks, string(c))
			i++
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			for j < len(s) && s[j] != quote {
				j++
			}
			toks = append(toks, s[i:min(j+1, len(s))])
			i = j + 1
		case strings.ContainsRune("=<>!", rune(c)):
			j := i + 1
			if j < len(s) && s[j] == '=' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n\r,()*=<>!'\"", rune(s[j])) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

type parser struct {
	toks []string
	pos  int
	cat  Catalog
	b    *Builder
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return strings.ToUpper(p.toks[p.pos])
	}
	return ""
}

func (p *parser) raw() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.raw()
	p.pos++
	return t
}

func (p *parser) expect(kw string) error {
	if p.peek() != kw {
		return fmt.Errorf("plan: expected %s, got %q", kw, p.raw())
	}
	p.pos++
	return nil
}

type selItem struct {
	agg   string // "" for plain attribute
	attr  string // attribute or "*" for COUNT(*)
	alias string
}

func (p *parser) parse() (Stream, error) {
	if err := p.expect("SELECT"); err != nil {
		return Stream{}, err
	}
	items, star, err := p.parseSelectList()
	if err != nil {
		return Stream{}, err
	}
	if err := p.expect("FROM"); err != nil {
		return Stream{}, err
	}
	left := p.next()
	union := ""
	if p.peek() == "UNION" {
		p.pos++
		union = p.next()
	}

	src, ok := p.cat[left]
	if !ok {
		return Stream{}, fmt.Errorf("plan: unknown stream %q", left)
	}
	s := p.b.Source(src)

	if union != "" {
		if !star {
			return Stream{}, fmt.Errorf("plan: UNION queries support only SELECT *")
		}
		rsrc, ok := p.cat[union]
		if !ok {
			return Stream{}, fmt.Errorf("plan: unknown stream %q", union)
		}
		r := p.b.Source(rsrc)
		return p.parseUnionTail(s, r)
	}

	if p.peek() == "WHERE" {
		p.pos++
		if s, err = p.parseWhere(s); err != nil {
			return Stream{}, err
		}
	}
	if p.peek() == "GROUP" {
		return p.parseGroupBy(s, items, star)
	}
	if p.pos < len(p.toks) {
		return Stream{}, fmt.Errorf("plan: unexpected trailing token %q", p.raw())
	}
	if star {
		return s, nil
	}
	for _, it := range items {
		if it.agg != "" {
			return Stream{}, fmt.Errorf("plan: aggregate %s(%s) requires GROUP BY ... WINDOW", it.agg, it.attr)
		}
	}
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.attr
	}
	return s.Project("project", names...), nil
}

func (p *parser) parseSelectList() (items []selItem, star bool, err error) {
	if p.peek() == "*" {
		p.pos++
		return nil, true, nil
	}
	for {
		it := selItem{attr: p.next()}
		switch strings.ToUpper(it.attr) {
		case "COUNT", "SUM", "AVG", "MAX", "MIN":
			it.agg = strings.ToUpper(it.attr)
			if err := p.expect("("); err != nil {
				return nil, false, err
			}
			it.attr = p.next() // attribute or "*"
			if err := p.expect(")"); err != nil {
				return nil, false, err
			}
		}
		if p.peek() == "AS" {
			p.pos++
			it.alias = p.next()
		}
		items = append(items, it)
		if p.peek() != "," {
			break
		}
		p.pos++
	}
	return items, false, nil
}

func (p *parser) parseWhere(s Stream) (Stream, error) {
	var steps []punct.ExprStep
	for {
		attr := p.next()
		idx := s.Schema().Index(attr)
		if idx < 0 {
			return Stream{}, fmt.Errorf("plan: WHERE: no attribute %q in %s", attr, s.Schema())
		}
		opTok := p.next()
		lit := p.next()
		v, err := parseLiteral(lit, s.Schema().Field(idx).Kind)
		if err != nil {
			return Stream{}, err
		}
		var pr punct.Pred
		switch opTok {
		case "=":
			pr = punct.Eq(v)
		case "!=":
			pr = punct.Ne(v)
		case "<":
			pr = punct.Lt(v)
		case "<=":
			pr = punct.Le(v)
		case ">":
			pr = punct.Gt(v)
		case ">=":
			pr = punct.Ge(v)
		default:
			return Stream{}, fmt.Errorf("plan: WHERE: unsupported operator %q", opTok)
		}
		steps = append(steps, punct.ExprStep{Col: idx, Name: attr, Pred: pr})
		if p.peek() != "AND" {
			break
		}
		p.pos++
	}
	// Compiled flat evaluation (punct.Expr) instead of a closure tree: what
	// the Select runs, fused or not (op.Select.FilterRun).
	return s.SelectExpr("where", steps...), nil
}

func (p *parser) parseGroupBy(s Stream, items []selItem, star bool) (Stream, error) {
	if star {
		return Stream{}, fmt.Errorf("plan: GROUP BY requires an explicit select list")
	}
	p.pos++ // GROUP
	if err := p.expect("BY"); err != nil {
		return Stream{}, err
	}
	var groups []string
	for {
		groups = append(groups, p.next())
		if p.peek() != "," {
			break
		}
		p.pos++
	}
	if err := p.expect("WINDOW"); err != nil {
		return Stream{}, err
	}
	rng, err := p.parseDuration()
	if err != nil {
		return Stream{}, err
	}
	slide := rng
	if p.peek() == "SLIDE" {
		p.pos++
		if slide, err = p.parseDuration(); err != nil {
			return Stream{}, err
		}
	}
	if err := p.expect("ON"); err != nil {
		return Stream{}, err
	}
	tsAttr := p.next()

	var agg *selItem
	for i := range items {
		if items[i].agg != "" {
			if agg != nil {
				return Stream{}, fmt.Errorf("plan: only one aggregate per query")
			}
			agg = &items[i]
		} else {
			found := false
			for _, g := range groups {
				if g == items[i].attr {
					found = true
				}
			}
			if !found {
				return Stream{}, fmt.Errorf("plan: non-aggregated attribute %q must appear in GROUP BY", items[i].attr)
			}
		}
	}
	if agg == nil {
		return Stream{}, fmt.Errorf("plan: GROUP BY query needs an aggregate in its select list")
	}
	var kind core.AggKind
	switch agg.agg {
	case "COUNT":
		kind = core.AggCount
	case "SUM":
		kind = core.AggSum
	case "AVG":
		kind = core.AggAvg
	case "MAX":
		kind = core.AggMax
	case "MIN":
		kind = core.AggMin
	}
	valAttr := agg.attr
	if valAttr == "*" {
		valAttr = ""
	}
	valueName := agg.alias
	if valueName == "" {
		valueName = strings.ToLower(agg.agg)
		if valAttr != "" {
			valueName += "_" + valAttr
		}
	}
	partBy, partN, err := p.parsePartition()
	if err != nil {
		return Stream{}, err
	}
	if p.pos < len(p.toks) {
		return Stream{}, fmt.Errorf("plan: unexpected trailing token %q", p.raw())
	}
	buildAgg := func(in Stream) Stream {
		return in.Aggregate("aggregate", kind, tsAttr, valAttr, groups, window.Sliding(rng, slide), valueName)
	}
	if partN == 0 {
		return buildAgg(s), nil
	}
	// Partition-correctness: every tuple of one group must reach one
	// partition, so the partition key must be a subset of GROUP BY.
	for _, pa := range partBy {
		found := false
		for _, g := range groups {
			if g == pa {
				found = true
			}
		}
		if !found {
			return Stream{}, fmt.Errorf("plan: PARTITION BY attribute %q must appear in GROUP BY (grouped state must stay partition-local)", pa)
		}
	}
	return s.Parallel("partition", partN, partBy, buildAgg), nil
}

// parsePartition reads an optional `PARTITION BY attr[, ...] INTO n`
// clause; n == 0 reports the clause was absent.
func (p *parser) parsePartition() (attrs []string, n int, err error) {
	if p.peek() != "PARTITION" {
		return nil, 0, nil
	}
	p.pos++
	if err := p.expect("BY"); err != nil {
		return nil, 0, err
	}
	for {
		attrs = append(attrs, p.next())
		if p.peek() != "," {
			break
		}
		p.pos++
	}
	if err := p.expect("INTO"); err != nil {
		return nil, 0, err
	}
	numTok := p.next()
	v, err := stream.ParseValue(stream.KindInt, numTok)
	if err != nil {
		return nil, 0, fmt.Errorf("plan: PARTITION BY ... INTO expects a partition count, got %q", numTok)
	}
	if v.AsInt() < 1 {
		return nil, 0, fmt.Errorf("plan: PARTITION BY ... INTO needs at least 1 partition, got %d", v.AsInt())
	}
	return attrs, int(v.AsInt()), nil
}

func (p *parser) parseUnionTail(l, r Stream) (Stream, error) {
	if p.peek() == "" {
		return l.Union("union", r), nil
	}
	if err := p.expect("WITH"); err != nil {
		return Stream{}, err
	}
	if err := p.expect("PACE"); err != nil {
		return Stream{}, err
	}
	if err := p.expect("ON"); err != nil {
		return Stream{}, err
	}
	// Accept the paper's MAX(a.time, b.time) form or a bare attribute.
	attr := p.next()
	if strings.ToUpper(attr) == "MAX" {
		if err := p.expect("("); err != nil {
			return Stream{}, err
		}
		first := p.next()
		for p.peek() == "," {
			p.pos++
			p.next()
		}
		if err := p.expect(")"); err != nil {
			return Stream{}, err
		}
		if dot := strings.LastIndexByte(first, '.'); dot >= 0 {
			first = first[dot+1:]
		}
		attr = first
	}
	tol, err := p.parseDuration()
	if err != nil {
		return Stream{}, err
	}
	if p.pos < len(p.toks) {
		return Stream{}, fmt.Errorf("plan: unexpected trailing token %q", p.raw())
	}
	return l.Pace("pace", attr, tol, r), nil
}

// parseDuration reads "n UNIT" into micros.
func (p *parser) parseDuration() (int64, error) {
	numTok := p.next()
	v, err := stream.ParseValue(stream.KindInt, numTok)
	if err != nil {
		return 0, fmt.Errorf("plan: expected a number, got %q", numTok)
	}
	n := v.AsInt()
	unit := strings.ToUpper(strings.TrimSuffix(strings.ToUpper(p.next()), "S"))
	switch unit {
	case "M": // "MS" with trailing S trimmed
		return n * 1_000, nil
	case "SECOND":
		return n * 1_000_000, nil
	case "MINUTE":
		return n * 60_000_000, nil
	case "HOUR":
		return n * 3_600_000_000, nil
	}
	return 0, fmt.Errorf("plan: unknown time unit %q", unit)
}

func parseLiteral(tok string, kind stream.Kind) (stream.Value, error) {
	if len(tok) >= 2 && (tok[0] == '\'' || tok[0] == '"') {
		return stream.String_(strings.Trim(tok, `'"`)), nil
	}
	return stream.ParseValue(kind, tok)
}
