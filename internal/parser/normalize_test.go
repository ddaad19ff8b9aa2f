package parser

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"select * from sales", "select * from sales"},
		{"SELECT   *\n FROM Sales", "select * from sales"},
		{"select * from sales;", "select * from sales"},
		{"select * from sales where amount > 10", "select * from sales where amount > ?"},
		{"select * from sales where amount > 99.5", "select * from sales where amount > ?"},
		{"select * from sales where region = 'N'", "select * from sales where region = ?"},
		{
			"select * from sales where d <= date '1995-06-17'",
			"select * from sales where d <= ?",
		},
		{
			"-- a comment\nselect count(*) from sales -- trailing\n",
			"select count ( * ) from sales",
		},
		{
			"select sum(amount) from sales group by region order by region",
			"select sum ( amount ) from sales group by region order by region",
		},
		// One logical INSERT, one normal form: later VALUES groups of the
		// first one's arity fold away, whatever their literals look like.
		{"insert into t values (1, 'a')", "insert into t values ( ? , ? )"},
		{
			"INSERT INTO T VALUES (1, 'a'), (-2.5, date '2024-01-01') , ('x', +3);",
			"insert into t values ( ? , ? )",
		},
		{
			"insert into t (b, a) values (1, 2), (3, 4)",
			"insert into t ( b , a ) values ( ? , ? )",
		},
		// Another arity, or anything but literals, is another statement.
		{
			"insert into t values (1, 2), (3), (4, 5)",
			"insert into t values ( ? , ? ) , ( ? )",
		},
		{
			"insert into t values (1, 2), (3, (4))",
			"insert into t values ( ? , ? ) , ( ? , ( ? ) )",
		},
		{
			"insert into t values (1, 2), (a, 4), (5, 6)",
			"insert into t values ( ? , ? ) , ( a , ? )",
		},
		{"insert into t values (1, 2), 3", "insert into t values ( ? , ? ) , ?"},
		// VALUES means nothing special outside an INSERT.
		{"select values from t where a = (1) , (2)", "select values from t where a = ( ? ) , ( ? )"},
	}
	for _, tc := range cases {
		if got := Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestNormalizeLexErrorFallback: inputs the lexer rejects still get a
// deterministic textual normal form (case and whitespace folding).
func TestNormalizeLexErrorFallback(t *testing.T) {
	in := "SELECT 'unterminated"
	if lexes(in) {
		t.Fatalf("expected %q to fail lexing", in)
	}
	if got, want := Normalize(in), "select 'unterminated"; got != want {
		t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
	}
}

// TestFingerprintStability: the documented invariances — literals, case,
// whitespace, comments, trailing semicolon — all map to one fingerprint;
// genuinely different statements do not.
func TestFingerprintStability(t *testing.T) {
	base, norm := Fingerprint("select sum(AMOUNT) from SALES where SALE_DATE <= date '1995-06-17'")
	if norm != "select sum ( amount ) from sales where sale_date <= ?" {
		t.Fatalf("unexpected normal form %q", norm)
	}
	same := []string{
		"select sum(AMOUNT) from SALES where SALE_DATE <= date '1998-09-02'",
		"SELECT SUM(amount)\n\tFROM sales\n\tWHERE sale_date <= DATE '2000-01-01';",
		"-- q1\nselect sum(amount) from sales where sale_date <= date '1995-06-17'",
	}
	for _, s := range same {
		if fp, _ := Fingerprint(s); fp != base {
			t.Errorf("Fingerprint(%q) != base fingerprint", s)
		}
	}
	diff := []string{
		"select sum(AMOUNT) from SALES where SALE_DATE < date '1995-06-17'",
		"select sum(AMOUNT) from SALES",
		"select min(AMOUNT) from SALES where SALE_DATE <= date '1995-06-17'",
	}
	for _, s := range diff {
		if fp, _ := Fingerprint(s); fp == base {
			t.Errorf("Fingerprint(%q) unexpectedly equals base fingerprint", s)
		}
	}
}

// FuzzNormalize checks the same-fingerprint-for-literal-variants property:
// one statement template instantiated with two different literal values must
// normalize (and therefore fingerprint) identically — and its INSERT form:
// a k-row VALUES list and its first row alone share a fingerprint, a list
// holding a row of another arity has its own.
func FuzzNormalize(f *testing.F) {
	f.Add(int64(7), int64(1999), "select * from sales where amount > %d and y = %d")
	f.Add(int64(0), int64(-3), "select sum(x) from t where a = %d or b < %d")
	f.Add(int64(42), int64(42), "select count(*) from t where k >= %d limit %d")
	f.Add(int64(3), int64(5), "insert into t values (%d, 'x', %d)")
	f.Fuzz(func(t *testing.T, a, b int64, template string) {
		if strings.Count(template, "%d") != 2 || strings.Contains(template, "%!") {
			t.Skip()
		}
		// Only vary the literals; the template itself is shared verbatim.
		s1 := fmtTemplate(template, a, b)
		s2 := fmtTemplate(template, b, a)
		n1 := Normalize(s1)
		n2 := Normalize(s2)
		fp1, got1 := Fingerprint(s1)
		fp2, got2 := Fingerprint(s2)
		if got1 != n1 || got2 != n2 {
			t.Fatalf("Fingerprint normal form disagrees with Normalize")
		}
		// The property only holds when both instantiations lex: the textual
		// fallback preserves literal text. Lexable inputs must collapse.
		if lexes(s1) && lexes(s2) && fp1 != fp2 {
			t.Errorf("literal variants diverge:\n  %q -> %q\n  %q -> %q", s1, n1, s2, n2)
		}
		// Normalizing is idempotent for lexable normal forms.
		if lexes(n1) {
			if again := Normalize(n1); again != n1 {
				t.Errorf("Normalize not idempotent: %q -> %q", n1, again)
			}
		}

		// k rows of arity w fingerprint as one row does; a row of arity w+1
		// among them does not.
		k, w := int(uint64(a)%5)+2, int(uint64(b)%4)+1
		row := func(w int, v int64) string {
			cells := make([]string, w)
			num := itoa(int64(uint64(v) % 100000))
			for i := range cells {
				cells[i] = []string{num, "'s'", "date '2024-01-01'", "-" + num + ".5"}[(i+int(uint64(v)%4))%4]
			}
			return "(" + strings.Join(cells, ", ") + ")"
		}
		one := "insert into T values " + row(w, a)
		many, odd := one, one
		for i := 1; i < k; i++ {
			many += ", " + row(w, b+int64(i))
			odd += ", " + row(w+i%2, b+int64(i)) // every other row one cell wider
		}
		fpOne, normOne := Fingerprint(one)
		if fpMany, normMany := Fingerprint(many); fpMany != fpOne {
			t.Errorf("%d-row and 1-row inserts diverge:\n  %q -> %q\n  %q -> %q", k, one, normOne, many, normMany)
		}
		if fpOdd, normOdd := Fingerprint(odd); fpOdd == fpOne {
			t.Errorf("an insert with rows of two arities shares the 1-row fingerprint:\n  %q -> %q", odd, normOdd)
		}
	})
}

// lexes reports whether the scanner reads src to its end without a lexical
// error.
func lexes(src string) bool {
	p := newParser(src)
	for !p.atEOF() && p.lexErr == nil {
		p.advance()
	}
	return p.lexErr == nil
}

// fmtTemplate substitutes the two %d verbs, padding each literal with
// spaces so it always lexes as a standalone number token (a bare "A%d"
// template would otherwise fuse the digits into the identifier).
func fmtTemplate(template string, a, b int64) string {
	s := strings.Replace(template, "%d", " "+itoa(a)+" ", 1)
	return strings.Replace(s, "%d", " "+itoa(b)+" ", 1)
}

func itoa(v int64) string {
	if v < 0 {
		// The lexer has no unary minus in numbers; spell negatives as an
		// expression-free positive to keep the template lexable.
		v = -v
	}
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return string(b[i:])
}

// normalFormSeeds exercise what the parse's normal form must get right: a
// load statement, DATE and negated literals, comments, case, a trailing
// ";", EXPLAIN, and the two places the grammar backtracks (a parenthesized
// predicate against a parenthesized expression, and UPDATE's bare string).
var normalFormSeeds = []string{
	"INSERT INTO T VALUES (1, 'a'), (-2.5, date '2024-01-01') , ('x', - - 3);",
	"insert into t (b, a) values (date '2024-01-02', -0.5), ('2024-01-03', 7.)",
	"insert into values (a) values (.5), (1)",
	"insert into T values (1) -- one row\n;",
	"-- leading\nSeLeCt Sum(AMOUNT) from Sales where Sale_Date <= DATE '1995-06-17'; -- trailing",
	"select * from sales where amount > 99.5 and region = 'N' or not d >= date '2021-01-01';",
	"select count(*) from t where (a > 1 and (b < 2 or c = 3))",
	"select count(*) from t where (a + 1) * 2 > (3)",
	"select count(*) from t where ((a)) = (b)",
	"select k, sum(v) from t where v >= 1 group by k having sum > -2 order by k limit 10",
	"select d from w where d <= date '2024-11-19' order by d desc limit 3",
	"update T set G = 'B', D = date '2024-06-01', A = A + 1 where B >= 10",
	"update T set G = 'B'; ",
	"update T set D = '2024-01-01' where K = 'x'",
	"delete from T where A <= -5 and B <> 'x';",
	"explain select count(*) from T where D <= date '2024-01-01'",
	"EXPLAIN ANALYZE select K, sum(V) from W group by K;",
	"explain\tanalyze\nselect * from T -- c",
	"define sma m select min(L_SHIPDATE) from LINEITEM group by L_RETURNFLAG",
	"drop sma m on T",
	"create table T (A date, B char(3), C float64)",
	"reset stats;",
	"select date from t where date = date '2024-01-01'",
	"select sum(v + interval '30' day) from w",
	"select * from t where a = 1;;",
	"select 'unterminated from t",
}

// FuzzParseNormalForm: a parse writes the normal form and fingerprint that
// Fingerprint, the reference, gives its text, whichever entrypoint parses
// it, and recording them changes nothing about what is parsed. A text the
// parse rejects gets Fingerprint's too.
func FuzzParseNormalForm(f *testing.F) {
	for _, seeds := range [][]string{normalFormSeeds, statementSeeds, querySeeds, smaDefSeeds} {
		for _, s := range seeds {
			f.Add(s)
		}
	}
	// A normal form longer than the parser's own buffer, backtracking on
	// both sides of where it spills.
	f.Add("select count(*) from t where " + strings.Repeat("(a > 1 and (b + 1) < 2) or ", 12) + "c = 3")
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{1, 3} {
		f.Add(loadInsert(rng, rows))
		f.Add(loadInsert(rng, rows) + ";")
	}
	f.Fuzz(func(t *testing.T, src string) {
		fp, norm := Fingerprint(src)
		check := func(entry string, got any, gotFP uint64, gotNorm string, err error, want any, wantErr error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s(%q): error %v, unrecorded parse %v", entry, src, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s(%q): recorded parse %+v, unrecorded %+v", entry, src, got, want)
			}
			if gotFP != fp || gotNorm != norm {
				t.Fatalf("%s(%q) (err %v): normal form %q (%016x), Fingerprint's %q (%016x)",
					entry, src, err, gotNorm, gotFP, norm, fp)
			}
		}
		st, sfp, snorm, err := ParseStatementFingerprint(src)
		want, wantErr := ParseStatement(src)
		check("ParseStatementFingerprint", st, sfp, snorm, err, want, wantErr)
		q, qfp, qnorm, err := ParseQueryFingerprint(src)
		wantQ, wantErr := ParseQuery(src)
		check("ParseQueryFingerprint", q, qfp, qnorm, err, wantQ, wantErr)
	})
}
