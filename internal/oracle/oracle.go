// Package oracle implements a naive in-memory reference engine for the
// SQL dialect of the real engine, plus a seeded randomized workload
// generator. Together they form a differential testing harness: the same
// statement stream is fed to the SMA engine (with its bucket grading,
// incremental maintenance, in-page delete marks, and parallel execution) and to
// this oracle (a plain slice of rows evaluated by full scans), and every
// result must match exactly.
//
// The oracle deliberately shares nothing with the execution layers under
// test: it keeps rows as plain Go values and walks the parsed expression
// and predicate trees itself instead of using their Bind/Eval machinery.
// It only reuses the parser — the component whose output both sides must
// agree on — and mirrors the engine's documented value semantics: CHAR
// columns compare by first byte (space when empty), dates live in the
// integer day domain, aggregates are float64 with AVG computed as
// SUM/COUNT, and a global aggregate over zero rows yields one all-zero
// row.
package oracle

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/parser"
	"sma/internal/pred"
	"sma/internal/tuple"
)

// val is one stored column value: str for CHAR columns, num (the shared
// float64 comparison domain, dates as days) for everything else.
type val struct {
	str string
	num float64
}

// table is a relation: its schema and live rows in physical (insertion)
// order, which is the order the engine's projection scans produce.
type table struct {
	cols   []tuple.Column
	byName map[string]int
	rows   [][]val
}

func (t *table) colIndex(name string) int {
	i, ok := t.byName[strings.ToUpper(name)]
	if !ok {
		return -1
	}
	return i
}

// Oracle is the reference engine: a set of in-memory tables addressed by
// the same SQL statements the real engine executes.
type Oracle struct {
	tables map[string]*table
}

// New creates an empty oracle.
func New() *Oracle { return &Oracle{tables: make(map[string]*table)} }

// Exec applies any non-SELECT statement and returns the rows affected
// (zero for DDL; "define sma" and "drop sma" are no-ops — SMAs must never
// change results, only plans).
func (o *Oracle) Exec(sql string) (int64, error) {
	st, err := parser.ParseStatement(sql)
	if err != nil {
		return 0, err
	}
	switch s := st.(type) {
	case *parser.CreateTableStmt:
		if _, dup := o.tables[s.Table]; dup {
			return 0, fmt.Errorf("oracle: table %s already exists", s.Table)
		}
		t := &table{cols: s.Columns, byName: make(map[string]int)}
		for i, c := range s.Columns {
			t.byName[strings.ToUpper(c.Name)] = i
		}
		o.tables[s.Table] = t
		return 0, nil
	case *parser.DefineSMAStmt, *parser.DropSMAStmt:
		return 0, nil
	case *parser.InsertStmt:
		return o.insert(s)
	case *parser.UpdateStmt:
		return o.update(s)
	case *parser.DeleteStmt:
		return o.delete(s)
	case *parser.SelectStmt:
		return 0, fmt.Errorf("oracle: SELECT goes through Query")
	default:
		return 0, fmt.Errorf("oracle: unsupported statement %T", st)
	}
}

func (o *Oracle) table(name string) (*table, error) {
	t, ok := o.tables[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("oracle: unknown table %q", name)
	}
	return t, nil
}

// insert converts each VALUES row by column type and appends it.
func (o *Oracle) insert(s *parser.InsertStmt) (int64, error) {
	t, err := o.table(s.Table)
	if err != nil {
		return 0, err
	}
	order := make([]int, len(t.cols))
	if len(s.Columns) == 0 {
		for i := range order {
			order[i] = i
		}
	} else {
		if len(s.Columns) != len(t.cols) {
			return 0, fmt.Errorf("oracle: insert must list all %d columns", len(t.cols))
		}
		seen := make([]bool, len(t.cols))
		for i, c := range s.Columns {
			j := t.colIndex(c)
			if j < 0 || seen[j] {
				return 0, fmt.Errorf("oracle: bad insert column %q", c)
			}
			seen[j] = true
			order[i] = j
		}
	}
	if s.Arity != len(order) {
		return 0, fmt.Errorf("oracle: row has %d values, want %d", s.Arity, len(order))
	}
	var n int64
	for r := 0; r < s.NumRows(); r++ {
		row := make([]val, len(t.cols))
		for i, lit := range s.Row(r) {
			v, err := convertLiteral(t.cols[order[i]], lit)
			if err != nil {
				return n, err
			}
			row[order[i]] = v
		}
		t.rows = append(t.rows, row)
		n++
	}
	return n, nil
}

// convertLiteral mirrors the engine's literal typing rules.
func convertLiteral(c tuple.Column, lit parser.Literal) (val, error) {
	switch c.Type {
	case tuple.TChar:
		if !lit.IsStr {
			return val{}, fmt.Errorf("oracle: char column %s needs a string", c.Name)
		}
		if len(lit.Str) > c.Len {
			return val{}, fmt.Errorf("oracle: %q exceeds char(%d)", lit.Str, c.Len)
		}
		return val{str: strings.TrimRight(lit.Str, " ")}, nil
	case tuple.TDate:
		if lit.IsStr {
			d, err := tuple.ParseDate(lit.Str)
			if err != nil {
				return val{}, err
			}
			return val{num: float64(d)}, nil
		}
		if lit.Num != math.Trunc(lit.Num) || lit.Num < math.MinInt32 || lit.Num > math.MaxInt32 {
			return val{}, fmt.Errorf("oracle: bad date value %g", lit.Num)
		}
		return val{num: lit.Num}, nil
	case tuple.TInt32, tuple.TInt64:
		// Exclusive upper bounds, mirroring the engine: float64(MaxInt64)
		// rounds up to 2^63, so a closed comparison would admit values
		// that overflow int64 on conversion.
		lo, hiExcl := float64(math.MinInt32), float64(1<<31)
		if c.Type == tuple.TInt64 {
			lo, hiExcl = math.MinInt64, 1<<63
		}
		if lit.IsStr || lit.Num != math.Trunc(lit.Num) || lit.Num < lo || lit.Num >= hiExcl {
			return val{}, fmt.Errorf("oracle: bad integer value %s for %s", lit, c.Name)
		}
		return val{num: lit.Num}, nil
	default:
		if lit.IsStr {
			return val{}, fmt.Errorf("oracle: float column %s needs a number", c.Name)
		}
		return val{num: lit.Num}, nil
	}
}

// update rewrites matching rows in place, evaluating every SET right-hand
// side against the old row image.
func (o *Oracle) update(s *parser.UpdateStmt) (int64, error) {
	t, err := o.table(s.Table)
	if err != nil {
		return 0, err
	}
	var n int64
	for ri, row := range t.rows {
		match, err := evalPred(s.Where, t, row)
		if err != nil {
			return n, err
		}
		if !match {
			continue
		}
		newRow := make([]val, len(row))
		copy(newRow, row)
		for _, sc := range s.Sets {
			i := t.colIndex(sc.Col)
			if i < 0 {
				return n, fmt.Errorf("oracle: unknown column %q in SET", sc.Col)
			}
			c := t.cols[i]
			switch {
			case c.Type == tuple.TChar:
				if sc.Str == nil {
					return n, fmt.Errorf("oracle: char column %s needs a string", c.Name)
				}
				if len(*sc.Str) > c.Len {
					return n, fmt.Errorf("oracle: %q exceeds char(%d)", *sc.Str, c.Len)
				}
				newRow[i] = val{str: strings.TrimRight(*sc.Str, " ")}
			case sc.Str != nil && c.Type == tuple.TDate:
				d, err := tuple.ParseDate(*sc.Str)
				if err != nil {
					return n, err
				}
				newRow[i] = val{num: float64(d)}
			case sc.Str != nil:
				return n, fmt.Errorf("oracle: column %s cannot be set from a string", c.Name)
			default:
				v, err := evalExpr(sc.Expr, t, row)
				if err != nil {
					return n, err
				}
				switch c.Type {
				case tuple.TInt32, tuple.TDate:
					if math.IsNaN(v) || v < math.MinInt32 || v >= 1<<31 {
						return n, fmt.Errorf("oracle: value %g out of range for %s", v, c.Name)
					}
					v = float64(int32(v))
				case tuple.TInt64:
					if math.IsNaN(v) || v < math.MinInt64 || v >= 1<<63 {
						return n, fmt.Errorf("oracle: value %g out of range for %s", v, c.Name)
					}
					v = float64(int64(v))
				}
				newRow[i] = val{num: v}
			}
		}
		t.rows[ri] = newRow
		n++
	}
	return n, nil
}

// delete removes matching rows, preserving the order of the survivors.
func (o *Oracle) delete(s *parser.DeleteStmt) (int64, error) {
	t, err := o.table(s.Table)
	if err != nil {
		return 0, err
	}
	kept := t.rows[:0]
	var n int64
	for _, row := range t.rows {
		match, err := evalPred(s.Where, t, row)
		if err != nil {
			return n, err
		}
		if match {
			n++
			continue
		}
		kept = append(kept, row)
	}
	t.rows = kept
	return n, nil
}

// --- scalar and predicate evaluation over oracle rows --------------------

// colNum returns the comparison-domain value of column i: numbers as-is,
// CHAR columns as their first byte (the space pad byte when empty),
// matching the storage layer's fixed-width padding.
func colNum(t *table, row []val, i int) (float64, error) {
	c := t.cols[i]
	if c.Type != tuple.TChar {
		return row[i].num, nil
	}
	if c.Len != 1 {
		return 0, fmt.Errorf("oracle: char(%d) column %s is not comparable", c.Len, c.Name)
	}
	if row[i].str == "" {
		return ' ', nil
	}
	return float64(row[i].str[0]), nil
}

// evalExpr walks an expression tree without the Bind machinery.
func evalExpr(e expr.Expr, t *table, row []val) (float64, error) {
	switch x := e.(type) {
	case *expr.Const:
		return x.Value, nil
	case *expr.Col:
		i := t.colIndex(x.Name)
		if i < 0 {
			return 0, fmt.Errorf("oracle: unknown column %q", x.Name)
		}
		if t.cols[i].Type == tuple.TChar {
			return 0, fmt.Errorf("oracle: column %q is not numeric", x.Name)
		}
		return row[i].num, nil
	case *expr.Binary:
		l, err := evalExpr(x.Left, t, row)
		if err != nil {
			return 0, err
		}
		r, err := evalExpr(x.Right, t, row)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case expr.OpAdd:
			return l + r, nil
		case expr.OpSub:
			return l - r, nil
		case expr.OpMul:
			return l * r, nil
		case expr.OpDiv:
			return l / r, nil
		}
		return 0, fmt.Errorf("oracle: bad operator %v", x.Op)
	default:
		return 0, fmt.Errorf("oracle: unsupported expression %T", e)
	}
}

// evalPred walks a predicate tree; nil means TRUE.
func evalPred(p pred.Predicate, t *table, row []val) (bool, error) {
	switch x := p.(type) {
	case nil:
		return true, nil
	case pred.True:
		return true, nil
	case *pred.Atom:
		i := t.colIndex(x.Col)
		if i < 0 {
			return false, fmt.Errorf("oracle: unknown column %q", x.Col)
		}
		l, err := colNum(t, row, i)
		if err != nil {
			return false, err
		}
		r := x.Value
		if x.RightCol != "" {
			j := t.colIndex(x.RightCol)
			if j < 0 {
				return false, fmt.Errorf("oracle: unknown column %q", x.RightCol)
			}
			if r, err = colNum(t, row, j); err != nil {
				return false, err
			}
		}
		return x.Op.Compare(l, r), nil
	case *pred.And:
		for _, k := range x.Kids {
			ok, err := evalPred(k, t, row)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case *pred.Or:
		for _, k := range x.Kids {
			ok, err := evalPred(k, t, row)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case *pred.Not:
		ok, err := evalPred(x.Kid, t, row)
		return !ok, err
	default:
		return false, fmt.Errorf("oracle: unsupported predicate %T", p)
	}
}

// --- queries --------------------------------------------------------------

// Result mirrors the rendered form of the engine's sma.Collect: column
// names plus rows of display strings.
type Result struct {
	Columns []string
	Rows    [][]string
}

// Query evaluates a SELECT by full scan and renders the result with the
// engine's display rules.
func (o *Oracle) Query(sql string) (*Result, error) {
	q, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	t, err := o.table(q.Table)
	if err != nil {
		return nil, err
	}
	var live [][]val
	for _, row := range t.rows {
		ok, err := evalPred(q.Where, t, row)
		if err != nil {
			return nil, err
		}
		if ok {
			live = append(live, row)
		}
	}
	if q.IsProjection() {
		return o.project(q, t, live)
	}
	return o.aggregate(q, t, live)
}

// project renders selected columns of every matching row in physical order.
func (o *Oracle) project(q *parser.Query, t *table, live [][]val) (*Result, error) {
	var idx []int
	res := &Result{}
	if q.Star {
		for i, c := range t.cols {
			idx = append(idx, i)
			res.Columns = append(res.Columns, strings.ToUpper(c.Name))
		}
	} else {
		for _, it := range q.Items {
			i := t.colIndex(it.Col)
			if i < 0 {
				return nil, fmt.Errorf("oracle: unknown column %q", it.Col)
			}
			idx = append(idx, i)
			res.Columns = append(res.Columns, strings.ToUpper(it.Col))
		}
	}
	for _, row := range live {
		if q.Limit >= 0 && len(res.Rows) >= q.Limit {
			break
		}
		out := make([]string, len(idx))
		for k, i := range idx {
			out[k] = renderCol(t.cols[i], row[i])
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// group accumulates one output group, mirroring the engine's Partial.
type group struct {
	vals  []val
	cols  []int // schema index per group-by position
	aggs  []float64
	seen  []bool
	count float64
}

// aggregate computes grouped aggregates, applies HAVING, sorts by the
// group-by values and renders.
func (o *Oracle) aggregate(q *parser.Query, t *table, live [][]val) (*Result, error) {
	specs := q.AggSpecs()
	gcols := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		j := t.colIndex(g)
		if j < 0 {
			return nil, fmt.Errorf("oracle: unknown group-by column %q", g)
		}
		gcols[i] = j
	}
	groups := make(map[string]*group)
	for _, row := range live {
		var key strings.Builder
		for _, j := range gcols {
			if t.cols[j].Type == tuple.TChar {
				key.WriteString("s:" + row[j].str)
			} else {
				key.WriteString("n:" + strconv.FormatFloat(row[j].num, 'g', -1, 64))
			}
			key.WriteByte(0x1f)
		}
		g := groups[key.String()]
		if g == nil {
			g = &group{cols: gcols, aggs: make([]float64, len(specs)), seen: make([]bool, len(specs))}
			for _, j := range gcols {
				g.vals = append(g.vals, row[j])
			}
			groups[key.String()] = g
		}
		g.count++
		for i, sp := range specs {
			switch sp.Func {
			case exec.AggCount:
				g.aggs[i]++
			case exec.AggSum, exec.AggAvg:
				v, err := evalExpr(sp.Arg, t, row)
				if err != nil {
					return nil, err
				}
				g.aggs[i] += v
			case exec.AggMin, exec.AggMax:
				v, err := evalExpr(sp.Arg, t, row)
				if err != nil {
					return nil, err
				}
				if !g.seen[i] || (sp.Func == exec.AggMin && v < g.aggs[i]) ||
					(sp.Func == exec.AggMax && v > g.aggs[i]) {
					g.aggs[i] = v
				}
			}
			g.seen[i] = true
		}
	}
	// A global aggregate over zero rows yields one all-zero row.
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{aggs: make([]float64, len(specs)), seen: make([]bool, len(specs))}
	}
	out := make([]*group, 0, len(groups))
	for _, g := range groups {
		for i, sp := range specs {
			if sp.Func == exec.AggAvg && g.count > 0 {
				g.aggs[i] /= g.count
			}
		}
		out = append(out, g)
	}
	// HAVING: conjunctive conditions on aggregate aliases or group-by
	// columns (compared in the numeric domain; CHAR(1) by byte value).
	kept := out[:0]
	for _, g := range out {
		pass := true
		for _, c := range q.Having {
			v, comparable, err := havingValue(t, q, specs, g, c.Name)
			if err != nil {
				return nil, err
			}
			if !comparable || !c.Op.Compare(v, c.Value) {
				pass = false
				break
			}
		}
		if pass {
			kept = append(kept, g)
		}
	}
	sort.Slice(kept, func(a, b int) bool { return lessGroupVals(t, kept[a], kept[b]) })
	res := &Result{}
	for _, it := range q.Items {
		if it.IsAgg {
			res.Columns = append(res.Columns, it.Agg.Name)
		} else {
			res.Columns = append(res.Columns, it.Col)
		}
	}
	gpos := map[string]int{}
	for i, g := range q.GroupBy {
		gpos[strings.ToUpper(g)] = i
	}
	for _, g := range kept {
		if q.Limit >= 0 && len(res.Rows) >= q.Limit {
			break
		}
		var out []string
		aggIdx := 0
		for _, it := range q.Items {
			if it.IsAgg {
				out = append(out, renderAgg(g.aggs[aggIdx]))
				aggIdx++
				continue
			}
			p := gpos[it.Col]
			out = append(out, renderCol(t.cols[g.cols[p]], g.vals[p]))
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// havingValue resolves a HAVING name against the row layout: group-by
// columns first, then aggregate aliases, like the engine's HavingFilter.
func havingValue(t *table, q *parser.Query, specs []exec.AggSpec, g *group, name string) (float64, bool, error) {
	for i, gb := range q.GroupBy {
		if strings.EqualFold(gb, name) {
			c := t.cols[g.cols[i]]
			if c.Type != tuple.TChar {
				return g.vals[i].num, true, nil
			}
			if len(g.vals[i].str) == 1 {
				return float64(g.vals[i].str[0]), true, nil
			}
			return 0, false, nil
		}
	}
	for i, sp := range specs {
		if strings.EqualFold(sp.Name, name) {
			return g.aggs[i], true, nil
		}
	}
	return 0, false, fmt.Errorf("oracle: HAVING references unknown output column %q", name)
}

// lessGroupVals orders groups by their group-by values, strings before
// numbers, mirroring the engine's SortRows.
func lessGroupVals(t *table, a, b *group) bool {
	for i := range a.vals {
		if i >= len(b.vals) {
			return false
		}
		aStr := t.cols[a.cols[i]].Type == tuple.TChar
		bStr := t.cols[b.cols[i]].Type == tuple.TChar
		if aStr != bStr {
			return aStr
		}
		if aStr {
			if a.vals[i].str != b.vals[i].str {
				return a.vals[i].str < b.vals[i].str
			}
		} else if a.vals[i].num != b.vals[i].num {
			return a.vals[i].num < b.vals[i].num
		}
	}
	return len(a.vals) < len(b.vals)
}

// renderCol renders a stored value by column type, matching the engine's
// cursor value typing plus sma.Collect's rendering.
func renderCol(c tuple.Column, v val) string {
	switch c.Type {
	case tuple.TChar:
		return v.str
	case tuple.TDate:
		return tuple.FormatDate(int32(v.num))
	case tuple.TInt32, tuple.TInt64:
		return strconv.FormatInt(int64(v.num), 10)
	default:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	}
}

// RenderValue formats one value of the engine's cursor rows by the rules
// the oracle renders its own results with, so a drained engine result
// compares with the oracle's string for string; isAgg marks an aggregate
// column.
func RenderValue(v any, isAgg bool) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case int32: // date columns
		return tuple.FormatDate(x)
	case float64:
		if isAgg {
			return renderAgg(x)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprint(x)
	}
}

// renderAgg renders an aggregate value: integral floats trimmed, else four
// decimals, matching the engine's display rule.
func renderAgg(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return fmt.Sprintf("%.4f", v)
}
