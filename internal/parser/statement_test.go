package parser

import (
	"testing"

	"sma/internal/core"
	"sma/internal/tuple"
)

// TestParseStatementDispatch: every statement kind routes to its node type.
func TestParseStatementDispatch(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"select count(*) from T", "select"},
		{"define sma m select min(A) from T", "define"},
		{"drop sma m on T", "drop"},
		{"create table T (A date, B char(3), C float64)", "create"},
		{"delete from T where A <= 5", "delete"},
		{"insert into T values (1, 'x')", "insert"},
		{"update T set A = 1", "update"},
	}
	for _, c := range cases {
		st, err := ParseStatement(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		var got string
		switch st.(type) {
		case *SelectStmt:
			got = "select"
		case *DefineSMAStmt:
			got = "define"
		case *DropSMAStmt:
			got = "drop"
		case *CreateTableStmt:
			got = "create"
		case *DeleteStmt:
			got = "delete"
		case *InsertStmt:
			got = "insert"
		case *UpdateStmt:
			got = "update"
		}
		if got != c.want {
			t.Errorf("%q parsed as %T", c.src, st)
		}
	}
}

// TestParseCreateTable: column types and char lengths round-trip.
func TestParseCreateTable(t *testing.T) {
	st, err := ParseStatement("create table SALES (SALE_DATE date, REGION char(2), AMOUNT float64, UNITS int64, STORE int32)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if ct.Table != "SALES" {
		t.Errorf("table = %q", ct.Table)
	}
	want := []tuple.Column{
		{Name: "SALE_DATE", Type: tuple.TDate},
		{Name: "REGION", Type: tuple.TChar, Len: 2},
		{Name: "AMOUNT", Type: tuple.TFloat64},
		{Name: "UNITS", Type: tuple.TInt64},
		{Name: "STORE", Type: tuple.TInt32},
	}
	if len(ct.Columns) != len(want) {
		t.Fatalf("%d columns", len(ct.Columns))
	}
	for i, c := range ct.Columns {
		if c.Name != want[i].Name || c.Type != want[i].Type || c.Len != want[i].Len {
			t.Errorf("col %d = %+v, want %+v", i, c, want[i])
		}
	}
}

// TestParseDropSMA: name is normalized to lower case like SMA definitions.
func TestParseDropSMA(t *testing.T) {
	st, err := ParseStatement("drop sma MIN on LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	ds := st.(*DropSMAStmt)
	if ds.Name != "min" || ds.Table != "LINEITEM" {
		t.Errorf("drop = %+v", ds)
	}
}

// TestParseDelete: optional WHERE clause.
func TestParseDelete(t *testing.T) {
	st, err := ParseStatement("delete from SALES where SALE_DATE <= date '2020-06-30'")
	if err != nil {
		t.Fatal(err)
	}
	de := st.(*DeleteStmt)
	if de.Table != "SALES" || de.Where == nil {
		t.Errorf("delete = %+v", de)
	}
	st, err = ParseStatement("delete from SALES")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DeleteStmt).Where != nil {
		t.Errorf("bare delete should have nil predicate")
	}
}

// TestParseDefineSMAStatement: the define path yields the same Def as
// ParseSMADef.
func TestParseDefineSMAStatement(t *testing.T) {
	st, err := ParseStatement("define sma cnt select count(*) from SALES group by REGION")
	if err != nil {
		t.Fatal(err)
	}
	def := st.(*DefineSMAStmt).Def
	if def.Name != "cnt" || def.Agg != core.Count || len(def.GroupBy) != 1 {
		t.Errorf("def = %+v", def)
	}
}

// TestParseProjection: bare-column and star selects parse as projections.
func TestParseProjection(t *testing.T) {
	q, err := ParseQuery("select A, B from T where A <= 5 limit 10")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsProjection() || len(q.Items) != 2 || q.Limit != 10 {
		t.Errorf("projection = %+v", q)
	}
	q, err = ParseQuery("select * from T")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star || !q.IsProjection() {
		t.Errorf("star = %+v", q)
	}
	// An aggregation query is not a projection.
	q, err = ParseQuery("select count(*) from T")
	if err != nil {
		t.Fatal(err)
	}
	if q.IsProjection() {
		t.Errorf("aggregate query classified as projection")
	}
}

// TestParseInsert: multi-row VALUES, optional column list, every literal
// form.
func TestParseInsert(t *testing.T) {
	st, err := ParseStatement(
		"insert into SALES values (date '2020-01-02', 'N', 129.95, -3), ('2020-01-03', 'S', 0, 4)")
	if err != nil {
		t.Fatal(err)
	}
	in := st.(*InsertStmt)
	if in.Table != "SALES" || len(in.Columns) != 0 || in.NumRows() != 2 || in.Arity != 4 {
		t.Fatalf("insert = %+v", in)
	}
	r0 := in.Row(0)
	if r0[0].IsStr || r0[0].Num != float64(tuple.MustParseDate("2020-01-02")) {
		t.Errorf("date literal = %+v", r0[0])
	}
	if !r0[1].IsStr || r0[1].Str != "N" {
		t.Errorf("string literal = %+v", r0[1])
	}
	if r0[2].Num != 129.95 || r0[3].Num != -3 {
		t.Errorf("numeric literals = %+v %+v", r0[2], r0[3])
	}
	if r1 := in.Row(1); !r1[0].IsStr || r1[0].Str != "2020-01-03" {
		t.Errorf("date-as-string literal = %+v", r1[0])
	}

	st, err = ParseStatement("insert into T (B, A) values (1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	in = st.(*InsertStmt)
	if len(in.Columns) != 2 || in.Columns[0] != "B" || in.Columns[1] != "A" {
		t.Errorf("columns = %v", in.Columns)
	}
}

// TestParseUpdate: expression and string right-hand sides, optional WHERE.
func TestParseUpdate(t *testing.T) {
	st, err := ParseStatement(
		"update T set A = A + 1, G = 'B', D = date '2024-06-01' where B >= 10")
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if up.Table != "T" || len(up.Sets) != 3 || up.Where == nil {
		t.Fatalf("update = %+v", up)
	}
	if up.Sets[0].Col != "A" || up.Sets[0].Expr == nil || up.Sets[0].Str != nil {
		t.Errorf("expr set = %+v", up.Sets[0])
	}
	if up.Sets[1].Col != "G" || up.Sets[1].Str == nil || *up.Sets[1].Str != "B" {
		t.Errorf("string set = %+v", up.Sets[1])
	}
	if up.Sets[2].Expr == nil {
		t.Errorf("date set should parse as an expression, got %+v", up.Sets[2])
	}
	st, err = ParseStatement("update T set A = 0")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*UpdateStmt).Where != nil {
		t.Errorf("bare update should have nil predicate")
	}
}

// TestParseStatementErrors: malformed statements are rejected.
func TestParseStatementErrors(t *testing.T) {
	cases := []string{
		"",
		"drop sma m",                       // missing ON table
		"create table T ()",                // no columns
		"create table T (A varchar)",       // unknown type
		"create table T (A char)",          // char without length
		"create table T (A char(0))",       // bad length
		"delete T",                         // missing FROM
		"delete from T where A ~ 1",        // bad operator
		"drop sma m on T junk",             // trailing tokens
		"create table T (A date) junk",     // trailing tokens
		"insert into T",                    // missing VALUES
		"insert into T values",             // missing row
		"insert into T values (1,)",        // dangling comma
		"insert into T values (1) (2)",     // missing comma between rows
		"insert into T values (1, 2), (3)", // ragged arity
		"insert into T values (-'x')",      // negated string
		"update T",                         // missing SET
		"update T set",                     // missing assignment
		"update T set A",                   // missing '='
		"update T set A = ",                // missing value
		"update T set A = 1, A = 2",        // duplicate target
		"update T set A = 1 where",         // dangling WHERE
	}
	for _, src := range cases {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}
