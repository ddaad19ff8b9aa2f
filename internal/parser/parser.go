package parser

import (
	"fmt"
	"strconv"
	"strings"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/tuple"
)

// SelectItem is one entry of a query's select list: either an aggregate or
// a bare group-by column reference.
type SelectItem struct {
	IsAgg bool
	Agg   exec.AggSpec
	Col   string
}

// Query is a parsed SELECT statement.
type Query struct {
	Items   []SelectItem
	Star    bool // "select *": project every column
	Table   string
	Where   pred.Predicate // nil when absent
	GroupBy []string
	Having  []exec.RowCond // conjunctive conditions on output columns
	OrderBy []string
	// OrderDesc[i] reports whether OrderBy[i] sorts descending. Always the
	// same length as OrderBy; DESC is only accepted on projections.
	OrderDesc []bool
	Limit     int // -1 when absent
}

// IsProjection reports whether the query is a plain projection — no
// aggregates and no grouping — so it streams tuples instead of
// aggregation rows.
func (q *Query) IsProjection() bool {
	if q.Star {
		return true
	}
	if len(q.GroupBy) > 0 {
		return false
	}
	for _, it := range q.Items {
		if it.IsAgg {
			return false
		}
	}
	return true
}

// ProjColumns resolves the projected column names: the select list, or
// every schema column for "select *".
func (q *Query) ProjColumns(s *tuple.Schema) []string {
	if q.Star {
		cols := s.Columns()
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = strings.ToUpper(c.Name)
		}
		return out
	}
	out := make([]string, len(q.Items))
	for i, it := range q.Items {
		out[i] = it.Col
	}
	return out
}

// AggSpecs returns the aggregate specs of the select list, in order.
func (q *Query) AggSpecs() []exec.AggSpec {
	var out []exec.AggSpec
	for _, it := range q.Items {
		if it.IsAgg {
			out = append(out, it.Agg)
		}
	}
	return out
}

// errorf is fmt.Errorf for a complaint about the token read ahead: when the
// input does not even lex there, that is the error.
func (p *parser) errorf(format string, args ...any) error {
	if p.tok.kind == tokBad {
		return p.lexErr
	}
	return fmt.Errorf(format, args...)
}

// end consumes an optional ";" and requires the end of the input.
func (p *parser) end() error {
	p.acceptSymbol(";")
	if !p.atEOF() {
		return p.errorf("parser: trailing input at offset %d: %q", p.peek().pos, p.peek().text)
	}
	return nil
}

// isKeyword reports whether the next token is the given keyword
// (case-insensitive).
func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errs.
func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("parser: expected %q at offset %d, found %q", kw, p.peek().pos, p.peek().text)
	}
	return nil
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.advance()
		return true
	}
	return false
}

// expectSymbol consumes the symbol or errs.
func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("parser: expected %q at offset %d, found %q", sym, p.peek().pos, p.peek().text)
	}
	return nil
}

// expectIdent consumes and returns an identifier.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("parser: expected identifier at offset %d, found %q", t.pos, t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseSMADef() (core.Def, error) {
	if err := p.expectKeyword("define"); err != nil {
		return core.Def{}, err
	}
	if err := p.expectKeyword("sma"); err != nil {
		return core.Def{}, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return core.Def{}, err
	}
	if err := p.expectKeyword("select"); err != nil {
		return core.Def{}, err
	}
	aggName, err := p.expectIdent()
	if err != nil {
		return core.Def{}, err
	}
	agg, err := core.ParseAggKind(aggName)
	if err != nil {
		return core.Def{}, err
	}
	if err := p.expectSymbol("("); err != nil {
		return core.Def{}, err
	}
	var e expr.Expr
	if p.acceptSymbol("*") {
		if agg != core.Count {
			return core.Def{}, fmt.Errorf("parser: %s(*) is only valid for count", agg)
		}
	} else {
		if e, err = p.parseExpr(); err != nil {
			return core.Def{}, err
		}
		if agg == core.Count {
			return core.Def{}, fmt.Errorf("parser: SMA count must be count(*)")
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return core.Def{}, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return core.Def{}, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return core.Def{}, err
	}
	var groupBy []string
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return core.Def{}, err
		}
		if groupBy, err = p.parseColumnList(); err != nil {
			return core.Def{}, err
		}
	}
	if err := p.end(); err != nil {
		return core.Def{}, err
	}
	return core.NewDef(name, table, agg, e, groupBy...), nil
}

// ParseExpr parses a standalone scalar expression (used by the catalog to
// round-trip SMA expressions through their SQL rendering).
func ParseExpr(src string) (expr.Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("parser: trailing input %q in expression", p.peek().text)
	}
	return e, nil
}

// ParseQuery parses a SELECT statement.
func ParseQuery(src string) (*Query, error) {
	p := newParser(src)
	return p.parseQuery()
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	var err error
	q := &Query{Limit: -1}
	if p.acceptSymbol("*") {
		q.Star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Items = append(q.Items, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if q.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("where") {
		if q.Where, err = p.parseOr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		if q.GroupBy, err = p.parseColumnList(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("having") {
		for {
			cond, err := p.parseHavingCond()
			if err != nil {
				return nil, err
			}
			q.Having = append(q.Having, cond)
			if !p.acceptKeyword("and") {
				break
			}
		}
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			q.OrderBy = append(q.OrderBy, strings.ToUpper(col))
			desc := p.acceptKeyword("desc")
			if !desc {
				p.acceptKeyword("asc")
			}
			q.OrderDesc = append(q.OrderDesc, desc)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if q.IsProjection() {
			// Projections sort through a materializing sort node; any
			// scanned column works, in either direction. Column existence
			// is checked against the schema at plan time.
		} else {
			// The aggregation path sorts by group-by values; ORDER BY must
			// be a prefix of (or equal to) the GROUP BY columns, which
			// covers Query 1.
			for i, c := range q.OrderBy {
				if i >= len(q.GroupBy) || !strings.EqualFold(q.GroupBy[i], c) {
					return nil, fmt.Errorf("parser: ORDER BY must match a prefix of GROUP BY (got %s)", c)
				}
				if q.OrderDesc[i] {
					return nil, fmt.Errorf("parser: ORDER BY ... DESC is not supported with GROUP BY")
				}
			}
		}
	}
	if p.acceptKeyword("limit") {
		tok := p.peek()
		if tok.kind != tokNumber {
			return nil, p.errorf("parser: LIMIT requires a number")
		}
		p.advance()
		n, err := strconv.Atoi(tok.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("parser: bad LIMIT %q", tok.text)
		}
		q.Limit = n
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	if q.Star {
		if len(q.GroupBy) > 0 || len(q.Having) > 0 {
			return nil, fmt.Errorf("parser: SELECT * cannot be combined with GROUP BY or HAVING")
		}
		return q, nil
	}
	if q.IsProjection() {
		// A plain projection streams tuples; HAVING needs grouped rows.
		if len(q.Having) > 0 {
			return nil, fmt.Errorf("parser: HAVING requires aggregates or GROUP BY")
		}
		return q, nil
	}
	// In an aggregation query, bare select-list columns must appear in
	// GROUP BY.
	for _, it := range q.Items {
		if !it.IsAgg {
			found := false
			for _, g := range q.GroupBy {
				if strings.EqualFold(g, it.Col) {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("parser: column %s in select list but not in GROUP BY", it.Col)
			}
		}
	}
	return q, nil
}

// parseSelectItem parses "agg(expr) [AS alias]" or a bare column name.
func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return SelectItem{}, p.errorf("parser: expected select item at offset %d", t.pos)
	}
	var fn exec.AggFunc
	isAgg := true
	switch strings.ToLower(t.text) {
	case "sum":
		fn = exec.AggSum
	case "count":
		fn = exec.AggCount
	case "avg":
		fn = exec.AggAvg
	case "min":
		fn = exec.AggMin
	case "max":
		fn = exec.AggMax
	default:
		isAgg = false
	}
	if !isAgg {
		col, _ := p.expectIdent()
		item := SelectItem{Col: strings.ToUpper(col)}
		if p.acceptKeyword("as") {
			if _, err := p.expectIdent(); err != nil {
				return SelectItem{}, err
			}
		}
		return item, nil
	}
	p.advance() // the function name
	if err := p.expectSymbol("("); err != nil {
		return SelectItem{}, err
	}
	spec := exec.AggSpec{Func: fn}
	if p.acceptSymbol("*") {
		if fn != exec.AggCount {
			return SelectItem{}, fmt.Errorf("parser: %s(*) is only valid for COUNT", fn)
		}
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return SelectItem{}, err
		}
		spec.Arg = e
	}
	if err := p.expectSymbol(")"); err != nil {
		return SelectItem{}, err
	}
	spec.Name = strings.ToUpper(fn.String())
	if p.acceptKeyword("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		spec.Name = strings.ToUpper(alias)
	}
	return SelectItem{IsAgg: true, Agg: spec}, nil
}

// parseHavingCond parses "name op constant" where name is an aggregate
// alias or a group-by column.
func (p *parser) parseHavingCond() (exec.RowCond, error) {
	name, err := p.expectIdent()
	if err != nil {
		return exec.RowCond{}, err
	}
	t := p.peek()
	if t.kind != tokSymbol {
		return exec.RowCond{}, p.errorf("parser: expected comparison in HAVING at offset %d", t.pos)
	}
	var op pred.CmpOp
	switch t.text {
	case "=":
		op = pred.Eq
	case "<>", "!=":
		op = pred.Ne
	case "<":
		op = pred.Lt
	case "<=":
		op = pred.Le
	case ">":
		op = pred.Gt
	case ">=":
		op = pred.Ge
	default:
		return exec.RowCond{}, fmt.Errorf("parser: bad HAVING operator %q", t.text)
	}
	p.advance()
	rhs, err := p.parseExpr()
	if err != nil {
		return exec.RowCond{}, err
	}
	v, ok := foldConst(rhs)
	if !ok {
		return exec.RowCond{}, fmt.Errorf("parser: HAVING right-hand side must be a constant, got %s", rhs)
	}
	return exec.RowCond{Name: strings.ToUpper(name), Op: op, Value: v}, nil
}

// parseColumnList parses "col [, col ...]".
func (p *parser) parseColumnList() ([]string, error) {
	var out []string
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, strings.ToUpper(c))
		if !p.acceptSymbol(",") {
			return out, nil
		}
	}
}

// --- scalar expressions -------------------------------------------------

// parseExpr parses term (("+"|"-") term)*.
func (p *parser) parseExpr() (expr.Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = expr.Add(left, right)
		case p.acceptSymbol("-"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = expr.Sub(left, right)
		default:
			return left, nil
		}
	}
}

// parseTerm parses factor (("*"|"/") factor)*.
func (p *parser) parseTerm() (expr.Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = expr.Mul(left, right)
		case p.acceptSymbol("/"):
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = expr.Div(left, right)
		default:
			return left, nil
		}
	}
}

// parseFactor parses literals, column refs, DATE/INTERVAL literals and
// parenthesized expressions.
func (p *parser) parseFactor() (expr.Expr, error) {
	t := p.peek()
	switch {
	case p.acceptSymbol("("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.acceptSymbol("-"):
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return expr.Sub(expr.NewConst(0), e), nil
	case t.kind == tokNumber:
		p.advance()
		v, err := parseNumber(t.text)
		if err != nil {
			return nil, fmt.Errorf("parser: bad number %q: %w", t.text, err)
		}
		return expr.NewConst(v), nil
	case t.kind == tokString:
		p.advance()
		return constFromString(t.text)
	case t.kind == tokIdent && strings.EqualFold(t.text, "date"):
		p.advance()
		s := p.peek()
		if s.kind != tokString {
			return nil, p.errorf("parser: DATE must be followed by a 'YYYY-MM-DD' literal")
		}
		p.advance()
		d, err := tuple.ParseDate(s.text)
		if err != nil {
			return nil, err
		}
		return expr.NewConst(float64(d)), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "interval"):
		p.advance()
		s := p.peek()
		if s.kind != tokString {
			return nil, p.errorf("parser: INTERVAL must be followed by a quoted number")
		}
		p.advance()
		n, err := strconv.ParseFloat(strings.TrimSpace(s.text), 64)
		if err != nil {
			return nil, fmt.Errorf("parser: bad INTERVAL %q: %w", s.text, err)
		}
		if !p.acceptKeyword("day") {
			return nil, p.errorf("parser: only INTERVAL '<n>' DAY is supported")
		}
		return expr.NewConst(n), nil
	case t.kind == tokIdent:
		p.advance()
		return expr.NewCol(strings.ToUpper(t.text)), nil
	default:
		return nil, p.errorf("parser: unexpected token %q at offset %d", t.text, t.pos)
	}
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseNumber converts a number token, digits with at most one '.'. One of
// at most 15 significant digits and at most 22 after the point is its
// integer mantissa over a power of ten: both are exact float64s, so the
// quotient is the correctly rounded value, the one strconv.ParseFloat
// returns (Clinger's fast path). Longer ones go to strconv.ParseFloat.
func parseNumber(s string) (float64, error) {
	var m uint64
	sig, frac := 0, -1 // frac counts the digits after the point, once there is one
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '.' && frac < 0:
			frac = 0
			continue
		case c < '0' || c > '9':
			return strconv.ParseFloat(s, 64)
		}
		if frac >= 0 {
			frac++
		}
		if m == 0 && c == '0' {
			continue // a leading zero
		}
		if sig++; sig > 15 {
			return strconv.ParseFloat(s, 64)
		}
		m = m*10 + uint64(c-'0')
	}
	if frac > 22 {
		return strconv.ParseFloat(s, 64)
	}
	return float64(m) / pow10[max(frac, 0)], nil
}

// constFromString converts a string literal: a date when it parses as one,
// else a single character (compared by byte value, see pred.CharConst).
func constFromString(s string) (expr.Expr, error) {
	if d, err := tuple.ParseDate(s); err == nil {
		return expr.NewConst(float64(d)), nil
	}
	if len(s) == 1 {
		return expr.NewConst(pred.CharConst(s[0])), nil
	}
	return nil, fmt.Errorf("parser: string literal %q is neither a date nor a single character", s)
}

// --- predicates -----------------------------------------------------------

// parseOr parses and-chains joined by OR.
func (p *parser) parseOr() (pred.Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []pred.Predicate{left}
	for p.acceptKeyword("or") {
		k, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return pred.NewOr(kids...), nil
}

// parseAnd parses not-terms joined by AND.
func (p *parser) parseAnd() (pred.Predicate, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	kids := []pred.Predicate{left}
	for p.acceptKeyword("and") {
		k, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return pred.NewAnd(kids...), nil
}

// parseNot parses an optional NOT before a primary.
func (p *parser) parseNot() (pred.Predicate, error) {
	if p.acceptKeyword("not") {
		k, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return pred.NewNot(k), nil
	}
	return p.parsePrimaryPred()
}

// parsePrimaryPred parses a parenthesized predicate or a comparison. The
// ambiguity between "(expr)" and "(pred)" is resolved by backtracking.
func (p *parser) parsePrimaryPred() (pred.Predicate, error) {
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		m := p.mark()
		p.advance()
		if q, err := p.parseOr(); err == nil && p.acceptSymbol(")") {
			return q, nil
		}
		p.reset(m)
	}
	return p.parseComparison()
}

// parseComparison parses expr cmp expr, normalizing to a gradeable Atom.
func (p *parser) parseComparison() (pred.Predicate, error) {
	left, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokSymbol {
		return nil, p.errorf("parser: expected comparison operator at offset %d", t.pos)
	}
	var op pred.CmpOp
	switch t.text {
	case "=":
		op = pred.Eq
	case "<>", "!=":
		op = pred.Ne
	case "<":
		op = pred.Lt
	case "<=":
		op = pred.Le
	case ">":
		op = pred.Gt
	case ">=":
		op = pred.Ge
	default:
		return nil, fmt.Errorf("parser: unexpected operator %q at offset %d", t.text, t.pos)
	}
	p.advance()
	right, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return atomize(left, op, right)
}

// atomize normalizes a comparison of two scalar expressions into a
// pred.Atom: column vs constant (folding constant expressions) or column
// vs column. Other shapes are rejected — they are also outside the paper's
// grading rules.
func atomize(left expr.Expr, op pred.CmpOp, right expr.Expr) (pred.Predicate, error) {
	lc, lIsCol := left.(*expr.Col)
	rc, rIsCol := right.(*expr.Col)
	lConst, lIsConst := foldConst(left)
	rConst, rIsConst := foldConst(right)
	switch {
	case lIsCol && rIsConst:
		return pred.NewAtom(lc.Name, op, rConst), nil
	case lIsConst && rIsCol:
		return pred.NewAtom(rc.Name, op.Flip(), lConst), nil
	case lIsCol && rIsCol:
		return pred.NewColAtom(lc.Name, op, rc.Name), nil
	default:
		return nil, fmt.Errorf("parser: comparison must be column-vs-constant or column-vs-column, got %s %s %s",
			left, op, right)
	}
}

// foldConst evaluates an expression containing no column references; the
// program folds a constant tree into its root node.
func foldConst(e expr.Expr) (float64, bool) {
	if c, ok := e.(*expr.Const); ok {
		return c.Value, true
	}
	if len(expr.ColumnsOf(e)) > 0 {
		return 0, false
	}
	var p expr.Program
	node, err := p.Add(e, nil)
	if err != nil {
		return 0, false
	}
	_, v := p.Value(node, nil, 0)
	return v, true
}
