package parser

import (
	"fmt"
	"strings"
	"testing"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/tuple"
)

// TestParseSMADefPaperSyntax parses the exact DDL from the paper (§2.1).
func TestParseSMADefPaperSyntax(t *testing.T) {
	def, err := ParseSMADef(`define sma min
		select min(L_SHIPDATE)
		from LINEITEM`)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "min" || def.Table != "LINEITEM" || def.Agg != core.Min {
		t.Errorf("def = %+v", def)
	}
	if def.ExprString() != "L_SHIPDATE" {
		t.Errorf("expr = %s", def.ExprString())
	}
}

// TestParseSMADefGrouped parses the paper's grouped extdistax SMA (Fig. 4).
func TestParseSMADefGrouped(t *testing.T) {
	def, err := ParseSMADef(`define sma extdistax
		select sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT) * (1 + L_TAX))
		from LINEITEM
		group by L_RETFLAG, L_LINESTAT`)
	if err != nil {
		t.Fatal(err)
	}
	if def.Agg != core.Sum {
		t.Errorf("agg = %s", def.Agg)
	}
	if len(def.GroupBy) != 2 || def.GroupBy[0] != "L_RETFLAG" || def.GroupBy[1] != "L_LINESTAT" {
		t.Errorf("group by = %v", def.GroupBy)
	}
	want := expr.Mul(
		expr.Mul(expr.NewCol("L_EXTENDEDPRICE"), expr.Sub(expr.NewConst(1), expr.NewCol("L_DISCOUNT"))),
		expr.Add(expr.NewConst(1), expr.NewCol("L_TAX")))
	if !expr.Equal(def.Expr, want) {
		t.Errorf("expr = %s", def.Expr)
	}
}

// TestParseSMADefCount parses count(*) with grouping.
func TestParseSMADefCount(t *testing.T) {
	def, err := ParseSMADef(`define sma count select count(*) from L group by A`)
	if err != nil {
		t.Fatal(err)
	}
	if def.Agg != core.Count || def.Expr != nil {
		t.Errorf("count def = %+v", def)
	}
}

func TestParseSMADefErrors(t *testing.T) {
	cases := []string{
		"define sma x select avg(A) from T",      // avg not an SMA aggregate
		"define sma x select count(A) from T",    // count takes *
		"define sma x select min(*) from T",      // * only for count
		"define sma x select min(A) from",        // missing table
		"define sma select min(A) from T",        // "select" swallowed as name... still fails later
		"define sma x select min(A) from T junk", // trailing tokens
		"define x select min(A) from T",          // missing sma keyword
	}
	for _, src := range cases {
		if _, err := ParseSMADef(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestParseQuery1Verbatim parses the paper's Fig. 3 exactly as printed
// (delta = 90).
func TestParseQuery1Verbatim(t *testing.T) {
	q, err := ParseQuery(`
SELECT L_RETURNFLAG, L_LINESTATUS,
       SUM(L_QUANTITY) AS SUM_QTY,
       SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
       AVG(L_QUANTITY) AS AVG_QTY,
       AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
       AVG(L_DISCOUNT) AS AVG_DISC,
       COUNT(*) AS COUNT_ORDER
FROM LINEITEM
WHERE L_SHIPDATE <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY L_RETURNFLAG, L_LINESTATUS
ORDER BY L_RETURNFLAG, L_LINESTATUS`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "LINEITEM" {
		t.Errorf("table = %s", q.Table)
	}
	if len(q.Items) != 10 {
		t.Fatalf("items = %d, want 10", len(q.Items))
	}
	specs := q.AggSpecs()
	if len(specs) != 8 {
		t.Fatalf("agg specs = %d, want 8", len(specs))
	}
	if specs[0].Func != exec.AggSum || specs[0].Name != "SUM_QTY" {
		t.Errorf("spec 0 = %v", specs[0])
	}
	if specs[7].Func != exec.AggCount || specs[7].Name != "COUNT_ORDER" {
		t.Errorf("spec 7 = %v", specs[7])
	}
	atom, ok := q.Where.(*pred.Atom)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	wantCut := float64(tuple.MustParseDate("1998-12-01") - 90)
	if atom.Col != "L_SHIPDATE" || atom.Op != pred.Le || atom.Value != wantCut {
		t.Errorf("atom = %+v, want L_SHIPDATE <= %v", atom, wantCut)
	}
	if len(q.GroupBy) != 2 || len(q.OrderBy) != 2 {
		t.Errorf("group/order = %v / %v", q.GroupBy, q.OrderBy)
	}
}

// TestParseWhereForms covers the predicate grammar.
func TestParseWhereForms(t *testing.T) {
	cases := []struct {
		src  string
		want string // String() of the predicate
	}{
		{"select count(*) from T where A = 1", "A = 1"},
		{"select count(*) from T where 1 < A", "A > 1"},
		{"select count(*) from T where A <> 2", "A <> 2"},
		{"select count(*) from T where A != 2", "A <> 2"},
		{"select count(*) from T where A <= B", "A <= B"},
		{"select count(*) from T where A = 'R'", "A = 82"},
		{"select count(*) from T where A < date '1997-04-30'", "A < 9981"},
		{"select count(*) from T where A = '1997-04-30'", "A = 9981"},
		{"select count(*) from T where A <= 1 and B > 2", "(A <= 1) AND (B > 2)"},
		{"select count(*) from T where A <= 1 or B > 2 and C = 3", "(A <= 1) OR ((B > 2) AND (C = 3))"},
		{"select count(*) from T where not A <= 1", "NOT (A <= 1)"},
		{"select count(*) from T where (A <= 1 or B > 2) and C = 3", "((A <= 1) OR (B > 2)) AND (C = 3)"},
		{"select count(*) from T where A <= 1 + 2 * 3", "A <= 7"},
	}
	for _, tc := range cases {
		q, err := ParseQuery(tc.src)
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		if got := q.Where.String(); got != tc.want {
			t.Errorf("%q: where = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	cases := []string{
		"select from T",
		"select count(*) T",
		"select sum(*) from T",                           // * only for count
		"select X, count(*) from T group by Y",           // X not grouped
		"select * from T group by A",                     // * cannot be grouped
		"select X from T having X > 1",                   // HAVING needs aggregation
		"select count(*) from T where A + 1 <= B",        // non-atomizable comparison
		"select count(*) from T where A <= 'LONGSTR'",    // bad literal
		"select count(*) from T order by A",              // order by without group by
		"select count(*) from T group by A order by B",   // order by not a prefix
		"select count(*) from T where A <=",              // incomplete
		"select count(*) from T where A ~ 1",             // bad operator
		"select count(*) from T where A <= interval '9'", // interval without DAY
		"select count(*) from T; junk",                   // trailing tokens
	}
	for _, src := range cases {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestParseExprRoundTrip: rendering then reparsing preserves structure; this
// is what the catalog relies on.
func TestParseExprRoundTrip(t *testing.T) {
	exprs := []string{
		"L_SHIPDATE",
		"(L_EXTENDEDPRICE * (1 - L_DISCOUNT))",
		"((L_EXTENDEDPRICE * (1 - L_DISCOUNT)) * (1 + L_TAX))",
		"((A + B) / (C - 2.5))",
	}
	for _, src := range exprs {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		back, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e.String(), err)
		}
		if !expr.Equal(e, back) {
			t.Errorf("round trip changed %q -> %q", src, back.String())
		}
	}
	if _, err := ParseExpr("A +"); err == nil {
		t.Errorf("incomplete expression should fail")
	}
	if _, err := ParseExpr("A B"); err == nil {
		t.Errorf("trailing input should fail")
	}
}

// TestLexerBasics covers comments, strings and error cases.
func TestLexerBasics(t *testing.T) {
	q, err := ParseQuery("select count(*) -- a comment\nfrom T")
	if err != nil {
		t.Fatalf("comments should be skipped: %v", err)
	}
	if q.Table != "T" {
		t.Errorf("table = %s", q.Table)
	}
	if _, err := ParseQuery("select count(*) from T where A = 'unterminated"); err == nil {
		t.Errorf("unterminated string should fail")
	}
	if _, err := ParseQuery("select count(*) from T where A = #"); err == nil {
		t.Errorf("bad character should fail")
	}
}

// TestSelectItemAlias: aliases apply to aggregates and are tolerated on
// group columns.
func TestSelectItemAlias(t *testing.T) {
	q, err := ParseQuery("select G as GG, sum(A) as TOTAL from T group by G")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.EqualFold(q.AggSpecs()[0].Name, "TOTAL") {
		t.Errorf("alias = %s", q.AggSpecs()[0].Name)
	}
}

// TestParseHavingLimit covers the HAVING and LIMIT grammar.
func TestParseHavingLimit(t *testing.T) {
	q, err := ParseQuery(`select G, count(*) as N, sum(A) as S from T
		group by G having N > 10 and S <= 100.5 order by G limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Having) != 2 {
		t.Fatalf("having = %v", q.Having)
	}
	if q.Having[0].Name != "N" || q.Having[0].Op != pred.Gt || q.Having[0].Value != 10 {
		t.Errorf("having[0] = %v", q.Having[0])
	}
	if q.Having[1].Name != "S" || q.Having[1].Op != pred.Le || q.Having[1].Value != 100.5 {
		t.Errorf("having[1] = %v", q.Having[1])
	}
	if q.Limit != 3 {
		t.Errorf("limit = %d", q.Limit)
	}
	// Absent LIMIT is -1.
	q2, err := ParseQuery("select count(*) from T")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Limit != -1 {
		t.Errorf("default limit = %d", q2.Limit)
	}
	// HAVING with char constant.
	q3, err := ParseQuery("select G, count(*) as N from T group by G having G = 'R'")
	if err != nil {
		t.Fatal(err)
	}
	if q3.Having[0].Value != float64('R') {
		t.Errorf("char having = %v", q3.Having[0])
	}
	for _, bad := range []string{
		"select count(*) as N from T having N >",
		"select count(*) as N from T having N ~ 1",
		"select count(*) as N from T having N > X", // non-constant RHS
		"select count(*) from T limit",
		"select count(*) from T limit x",
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

// TestNonASCIIOutsideStringsIsAPositionedError: the scanner reads bytes and
// the dialect is ASCII. A byte >= 0x80 is data inside a string literal,
// skipped inside a comment, and anywhere else an error naming its offset —
// never an identifier letter or a space, as the Latin-1 reading of the old
// lexer had it.
func TestNonASCIIOutsideStringsIsAPositionedError(t *testing.T) {
	for _, tc := range []struct {
		src string
		at  int // offset of the offending byte, -1 when the statement parses
	}{
		{"select count(*) from T where K = '\xe9'", -1},
		{"select count(*) from T -- café\n where A = 1", -1},
		{"insert into T values ('naïve', 1)", -1},
		{"select count(*) from Té", 22},
		{"select count(*) from T where A = 1", 30},     // NBSP is not a space
		{"select count(*) from T where A = 1\x85", 34}, // nor is NEL
		{"insert into T values (1, ½)", 25},
		{"define sma é select min(A) from T", 11},
	} {
		_, err := ParseStatement(tc.src)
		switch {
		case tc.at < 0 && err != nil:
			t.Errorf("%q: %v", tc.src, err)
		case tc.at >= 0 && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at offset %d", tc.at))):
			t.Errorf("%q: got %v, want an error at offset %d", tc.src, err, tc.at)
		}
		if tc.at >= 0 && Normalize(tc.src) != strings.Join(strings.Fields(strings.ToLower(tc.src)), " ") {
			t.Errorf("%q: an input that does not lex must normalize textually, got %q", tc.src, Normalize(tc.src))
		}
	}
}
