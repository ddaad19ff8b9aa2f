package parser

import (
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
