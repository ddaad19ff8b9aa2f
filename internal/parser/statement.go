package parser

import (
	"fmt"
	"strconv"
	"strings"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/tuple"
)

// Statement is one parsed SQL statement. The engine's single SQL entrypoint
// (ExecContext) dispatches on the concrete type.
type Statement interface {
	isStatement()
}

// SelectStmt wraps a SELECT query.
type SelectStmt struct {
	Query *Query
}

// DefineSMAStmt is the paper's "define sma" DDL.
type DefineSMAStmt struct {
	Def core.Def
}

// DropSMAStmt removes an SMA: "drop sma <name> on <table>".
type DropSMAStmt struct {
	Table string
	Name  string
}

// CreateTableStmt creates a table:
// "create table T (A date, B char(1), C float64, D int64)".
type CreateTableStmt struct {
	Table   string
	Columns []tuple.Column
}

// DeleteStmt deletes tuples: "delete from T [where <pred>]".
type DeleteStmt struct {
	Table string
	Where pred.Predicate // nil deletes every tuple
}

// Literal is one literal value of an INSERT row: a quoted string (CHAR
// data, or a date in "YYYY-MM-DD" form that the engine converts by column
// type) or a number, with DATE literals already folded into the numeric
// day domain.
type Literal struct {
	IsStr bool
	Str   string  // string literal text when IsStr
	Num   float64 // numeric and DATE literals otherwise
}

// String renders the literal for diagnostics.
func (l Literal) String() string {
	if l.IsStr {
		return "'" + l.Str + "'"
	}
	return strconv.FormatFloat(l.Num, 'g', -1, 64)
}

// InsertStmt inserts tuples:
// "insert into T [(col, ...)] values (v, ...), (v, ...)".
// When Columns is empty the values follow the schema's column order. The
// VALUES groups are one flat vector, Arity literals per group in statement
// order: a load statement of thousands of cells is one allocation.
type InsertStmt struct {
	Table   string
	Columns []string  // optional explicit column order
	Arity   int       // literals per VALUES group (every group has the same)
	Values  []Literal // NumRows() * Arity literals, row-major
}

// NumRows returns the number of VALUES groups.
func (s *InsertStmt) NumRows() int { return len(s.Values) / s.Arity }

// Row returns the literals of the i-th VALUES group.
func (s *InsertStmt) Row(i int) []Literal { return s.Values[i*s.Arity : (i+1)*s.Arity] }

// SetClause is one assignment of an UPDATE's SET list. Expr carries a
// scalar right-hand side over the old tuple; a bare string literal is kept
// in Str instead (only the engine knows whether the column is CHAR data or
// a date).
type SetClause struct {
	Col  string
	Expr expr.Expr
	Str  *string
}

// UpdateStmt updates tuples: "update T set col = expr [, ...] [where <pred>]".
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where pred.Predicate // nil updates every tuple
}

// ResetStatsStmt zeroes the introspection catalog: "reset stats".
type ResetStatsStmt struct{}

func (*SelectStmt) isStatement()      {}
func (*ResetStatsStmt) isStatement()  {}
func (*DefineSMAStmt) isStatement()   {}
func (*DropSMAStmt) isStatement()     {}
func (*CreateTableStmt) isStatement() {}
func (*DeleteStmt) isStatement()      {}
func (*InsertStmt) isStatement()      {}
func (*UpdateStmt) isStatement()      {}

// ParseStatement parses any supported SQL statement, dispatching on the
// leading keyword: SELECT, DEFINE SMA, DROP SMA, CREATE TABLE, INSERT,
// UPDATE, DELETE.
func ParseStatement(src string) (Statement, error) {
	p := newParser(src)
	return p.parseStatement()
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("select"):
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		return &SelectStmt{Query: q}, nil
	case p.isKeyword("explain"):
		return p.parseExplain()
	case p.isKeyword("define"):
		def, err := p.parseSMADef()
		if err != nil {
			return nil, err
		}
		return &DefineSMAStmt{Def: def}, nil
	case p.isKeyword("drop"):
		return p.parseDropSMA()
	case p.isKeyword("create"):
		return p.parseCreateTable()
	case p.isKeyword("insert"):
		return p.parseInsert()
	case p.isKeyword("update"):
		return p.parseUpdate()
	case p.isKeyword("delete"):
		return p.parseDelete()
	case p.isKeyword("reset"):
		return p.parseResetStats()
	default:
		return nil, p.errorf("parser: expected SELECT, EXPLAIN, DEFINE SMA, DROP SMA, CREATE TABLE, INSERT, UPDATE, DELETE or RESET STATS, found %q", p.peek().text)
	}
}

// parseResetStats parses "reset stats".
func (p *parser) parseResetStats() (Statement, error) {
	if err := p.expectKeyword("reset"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("stats"); err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	return &ResetStatsStmt{}, nil
}

// parseDropSMA parses "drop sma <name> on <table>".
func (p *parser) parseDropSMA() (Statement, error) {
	if err := p.expectKeyword("drop"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("sma"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	return &DropSMAStmt{Table: table, Name: strings.ToLower(name)}, nil
}

// parseCreateTable parses "create table <name> ( col type [, ...] )".
func (p *parser) parseCreateTable() (Statement, error) {
	if err := p.expectKeyword("create"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []tuple.Column
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Table: strings.ToUpper(name), Columns: cols}, nil
}

// parseColumnDef parses "name type", where type is one of int32 (int,
// integer), int64 (bigint), float64 (float, double), date, or char(n).
func (p *parser) parseColumnDef() (tuple.Column, error) {
	name, err := p.expectIdent()
	if err != nil {
		return tuple.Column{}, err
	}
	typName, err := p.expectIdent()
	if err != nil {
		return tuple.Column{}, err
	}
	col := tuple.Column{Name: strings.ToUpper(name)}
	switch strings.ToLower(typName) {
	case "int32", "int", "integer":
		col.Type = tuple.TInt32
	case "int64", "bigint":
		col.Type = tuple.TInt64
	case "float64", "float", "double":
		col.Type = tuple.TFloat64
	case "date":
		col.Type = tuple.TDate
	case "char":
		col.Type = tuple.TChar
		if err := p.expectSymbol("("); err != nil {
			return tuple.Column{}, err
		}
		t := p.peek()
		if t.kind != tokNumber {
			return tuple.Column{}, p.errorf("parser: char length must be a number at offset %d", t.pos)
		}
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return tuple.Column{}, fmt.Errorf("parser: bad char length %q", t.text)
		}
		col.Len = n
		if err := p.expectSymbol(")"); err != nil {
			return tuple.Column{}, err
		}
	default:
		return tuple.Column{}, fmt.Errorf("parser: unknown column type %q (want int32, int64, float64, date, char(n))", typName)
	}
	return col, nil
}

// parseInsert parses "insert into <table> [(col, ...)] values (lit, ...)
// [, (lit, ...) ...]". Every VALUES group must have the same arity; the
// engine checks the arity against the schema.
func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: strings.ToUpper(table)}
	if p.acceptSymbol("(") {
		cols, err := p.parseColumnList()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Columns = cols
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	st.Values = make([]Literal, 0, 16)
	for rows := 0; ; rows++ {
		open := p.peek().pos
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		n := len(st.Values)
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			st.Values = append(st.Values, lit)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		if rows == 0 {
			// The normal form ends with the first group (see emit).
			p.record = false
			st.Arity = len(st.Values)
			if next := p.peek(); next.kind == tokSymbol && next.text == "," {
				// Later groups mostly look like the first: size the vector
				// once, for as many of them as the rest of the text can
				// hold plus an eighth for shorter ones.
				est := (len(p.src) - open) / (next.pos - open)
				st.Values = append(make([]Literal, 0, (est+est/8+1)*st.Arity), st.Values...)
			}
		} else if got := len(st.Values) - n; got != st.Arity {
			return nil, fmt.Errorf("parser: VALUES row %d at offset %d has %d values, first row has %d",
				rows+1, open, got, st.Arity)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	return st, nil
}

// parseLiteral parses one INSERT value: a (possibly negated) number, a
// quoted string, or a DATE literal.
func (p *parser) parseLiteral() (Literal, error) {
	t := p.peek()
	switch {
	case p.acceptSymbol("-"):
		at := p.peek().pos
		lit, err := p.parseLiteral()
		if err != nil {
			return Literal{}, err
		}
		if lit.IsStr {
			return Literal{}, fmt.Errorf("parser: cannot negate the string literal at offset %d, %s", at, lit)
		}
		lit.Num = -lit.Num
		return lit, nil
	case t.kind == tokNumber:
		p.advance()
		v, err := parseNumber(t.text)
		if err != nil {
			return Literal{}, fmt.Errorf("parser: bad number %q at offset %d: %w", t.text, t.pos, err)
		}
		return Literal{Num: v}, nil
	case t.kind == tokString:
		p.advance()
		return Literal{IsStr: true, Str: t.text}, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "date"):
		p.advance()
		s := p.peek()
		if s.kind != tokString {
			return Literal{}, p.errorf("parser: DATE must be followed by a 'YYYY-MM-DD' literal at offset %d", s.pos)
		}
		p.advance()
		d, err := tuple.ParseDate(s.text)
		if err != nil {
			return Literal{}, fmt.Errorf("parser: DATE literal at offset %d: %w", s.pos, err)
		}
		return Literal{Num: float64(d)}, nil
	default:
		return Literal{}, p.errorf("parser: expected literal value at offset %d, found %q", t.pos, t.text)
	}
}

// parseUpdate parses "update <table> set col = rhs [, ...] [where <pred>]".
// A right-hand side that is a bare string literal stays a string (CHAR or
// date data); anything else is a scalar expression over the old tuple.
func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("update"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: strings.ToUpper(table)}
	seen := map[string]bool{}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		col = strings.ToUpper(col)
		if seen[col] {
			return nil, fmt.Errorf("parser: column %s assigned twice in SET", col)
		}
		seen[col] = true
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		sc := SetClause{Col: col}
		if s, ok := p.acceptBareString(); ok {
			sc.Str = &s
		} else if sc.Expr, err = p.parseExpr(); err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, sc)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		if st.Where, err = p.parseOr(); err != nil {
			return nil, err
		}
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	return st, nil
}

// acceptBareString consumes a string literal only when it is a complete
// clause by itself (followed by ",", ";", WHERE or end of input), so that
// expressions starting with a string — none exist today, but DATE '...'
// arithmetic does — keep going through parseExpr.
func (p *parser) acceptBareString() (string, bool) {
	t := p.peek()
	if t.kind != tokString {
		return "", false
	}
	m := p.mark()
	p.advance()
	next := p.peek()
	switch {
	case next.kind == tokEOF,
		next.kind == tokSymbol && (next.text == "," || next.text == ";"),
		next.kind == tokIdent && strings.EqualFold(next.text, "where"):
		return t.text, true
	}
	p.reset(m)
	return "", false
}

// parseDelete parses "delete from <table> [where <pred>]".
func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("delete"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: strings.ToUpper(table)}
	if p.acceptKeyword("where") {
		if st.Where, err = p.parseOr(); err != nil {
			return nil, err
		}
	}
	if err := p.end(); err != nil {
		return nil, err
	}
	return st, nil
}
