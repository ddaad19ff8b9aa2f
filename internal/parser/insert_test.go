package parser

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sma/internal/tuple"
)

// loadInsert renders an INSERT of rows 16-column LINEITEM-shaped groups,
// the text a bulk loader sends: never the same statement twice.
func loadInsert(rng *rand.Rand, rows int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO LINEITEM VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %d, %d, %.2f, 0.%02d, 0.%02d, '%c', '%c', DATE '199%d-0%d-1%d', DATE '1995-03-%02d', DATE '1996-11-%02d', 'DELIVER IN PERSON', 'TRUCK', 'generated by bench')",
			rng.Intn(6_000_000), rng.Intn(200_000), rng.Intn(10_000), 1+rng.Intn(7), 1+rng.Intn(50),
			900+rng.Float64()*100_000, rng.Intn(11), rng.Intn(9), "ANR"[rng.Intn(3)], "FO"[rng.Intn(2)],
			2+rng.Intn(7), 1+rng.Intn(9), rng.Intn(10), 1+rng.Intn(28), 1+rng.Intn(28))
	}
	return b.String()
}

// BenchmarkParseInsert is the parser's share of an ingest statement: a
// 100-row, 16-column INSERT validated from text to literal vector, with the
// fingerprint and normal form the engine records, in one scan.
func BenchmarkParseInsert(b *testing.B) {
	sql := loadInsert(rand.New(rand.NewSource(1)), 100)
	b.SetBytes(int64(len(sql)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, _, norm, err := ParseStatementFingerprint(sql)
		if err != nil || st.(*InsertStmt).NumRows() != 100 || len(norm) > 200 {
			b.Fatalf("%v (normal form %d bytes)", err, len(norm))
		}
	}
}

// BenchmarkFingerprintInsert is the scan an ingest statement no longer
// pays: Fingerprint, the reference normal form, on its own. The engine
// runs it only for a text that does not parse.
func BenchmarkFingerprintInsert(b *testing.B) {
	sql := loadInsert(rand.New(rand.NewSource(1)), 100)
	b.SetBytes(int64(len(sql)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, norm := Fingerprint(sql); len(norm) > 200 {
			b.Fatalf("normal form of a load statement is %d bytes", len(norm))
		}
	}
}

// refValues is the reference FuzzInsertValues holds the streaming parser
// to: a byte-level splitter of the VALUES list that starts at src[i:]. It
// returns the literal of every cell, row by row, or the offset of the first
// byte at which the text stops being a VALUES list. It knows no tokens and
// no comments (the fuzz target feeds it none).
func refValues(src string, i int) (rows [][]Literal, errAt int) {
	space := func() {
		for i < len(src) && strings.IndexByte(" \t\n\v\f\r", src[i]) >= 0 {
			i++
		}
	}
	at := func(j int) byte {
		if j < len(src) {
			return src[j]
		}
		return 0
	}
	digit := func(c byte) bool { return '0' <= c && c <= '9' }
	word := func(c byte) bool { return c == '_' || digit(c) || 'a' <= c|0x20 && c|0x20 <= 'z' }
	quoted := func() (string, bool) { // src[i] is the opening quote
		end := strings.IndexByte(src[i+1:], '\'')
		if end < 0 {
			return "", false
		}
		s := src[i+1 : i+1+end]
		i += end + 2
		return s, true
	}
	for {
		space()
		open := i
		if at(i) != '(' {
			return nil, i
		}
		i++
		var row []Literal
		for {
			space()
			signs := 0
			for at(i) == '-' {
				signs++
				i++
				space()
			}
			start := i
			var lit Literal
			switch c := at(i); {
			case digit(c) || c == '.' && digit(at(i+1)):
				for dot := false; digit(at(i)) || at(i) == '.' && !dot; i++ {
					dot = dot || at(i) == '.'
				}
				v, err := strconv.ParseFloat(src[start:i], 64)
				if err != nil {
					return nil, start
				}
				lit = Literal{Num: v}
			case c == '\'':
				s, ok := quoted()
				if !ok || signs > 0 {
					return nil, start
				}
				lit = Literal{IsStr: true, Str: s}
			case word(c) && !digit(c):
				for word(at(i)) {
					i++
				}
				if !strings.EqualFold(src[start:i], "date") {
					return nil, start
				}
				space()
				if start = i; at(i) != '\'' {
					return nil, start
				}
				s, ok := quoted()
				if !ok {
					return nil, start
				}
				d, err := tuple.ParseDate(s)
				if err != nil {
					return nil, start
				}
				lit = Literal{Num: float64(d)}
			default:
				return nil, start
			}
			if signs%2 == 1 {
				lit.Num = -lit.Num
			}
			row = append(row, lit)
			space()
			if at(i) == ',' {
				i++
				continue
			}
			if at(i) != ')' {
				return nil, i
			}
			i++
			break
		}
		if len(rows) > 0 && len(row) != len(rows[0]) {
			return nil, open
		}
		rows = append(rows, row)
		space()
		if at(i) != ',' {
			break
		}
		i++
	}
	if at(i) == ';' {
		i++
		space()
	}
	if i < len(src) {
		return nil, i
	}
	return rows, -1
}

// FuzzInsertValues: the streaming INSERT parser and a byte-level splitter
// agree on every VALUES list — the same cells in the same rows, or an error
// at the same offset.
func FuzzInsertValues(f *testing.F) {
	for _, s := range []string{
		"(1, 'x', 2.5)",
		"(date '2024-01-01', 'A', -1, .5, 'p'), ('2024-01-02', 'B', - -2.5, 2., '')",
		"(1, 2), (3)",
		"(1, 2) , (3, 4);",
		"(1, 2), (3, 4) x",
		"(1, -'x')",
		"(date '2024-02-30')",
		"(DATE'2024-02-28', date 7)",
		"(1, 'unterminated)",
		"(1 2)",
		"(1, \xe9)",
		"('\xe9')",
		"",
	} {
		f.Add(s)
	}
	const head = "insert into T values "
	offsetOf := regexp.MustCompile(`at offset (\d+)`)
	f.Fuzz(func(t *testing.T, values string) {
		if strings.Contains(values, "--") {
			t.Skip() // comments are the lexer's business, not the splitter's
		}
		src := head + values
		want, errAt := refValues(src, len(head))
		st, err := ParseStatement(src)
		if errAt >= 0 {
			m := offsetOf.FindStringSubmatch(fmt.Sprint(err))
			if err == nil || m == nil || m[1] != strconv.Itoa(errAt) {
				t.Fatalf("%q: parser says %v, the splitter stops at offset %d", src, err, errAt)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: parser says %v, the splitter finds %d rows", src, err, len(want))
		}
		in := st.(*InsertStmt)
		if in.NumRows() != len(want) || in.Arity != len(want[0]) {
			t.Fatalf("%q: parsed %d rows of %d, the splitter %d of %d", src, in.NumRows(), in.Arity, len(want), len(want[0]))
		}
		for r, row := range want {
			for c, lit := range row {
				got := in.Row(r)[c]
				if got.IsStr != lit.IsStr || got.Str != lit.Str || math.Float64bits(got.Num) != math.Float64bits(lit.Num) {
					t.Fatalf("%q: row %d cell %d is %s, the splitter reads %s", src, r, c, got, lit)
				}
			}
		}
	})
}

// TestParseNumberMatchesParseFloat: a number token converts to the float64
// strconv.ParseFloat reads from it, bit for bit, on either side of the
// fast path's limits of 15 significant and 22 fractional digits.
func TestParseNumberMatchesParseFloat(t *testing.T) {
	same := func(s string) {
		t.Helper()
		got, err := parseNumber(s)
		want, wantErr := strconv.ParseFloat(s, 64)
		if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("parseNumber(%q) = %v (%v), strconv.ParseFloat %v (%v)", s, got, err, want, wantErr)
		}
	}
	for _, s := range []string{
		"0", "0.0", "00", "5.", ".5", "0.5", "000012.500", "4.35", "0.1", "0.3", "1.7976931348623157",
		"123456789012345", "999999999999999", "0.000000000000001", "99999999999999.9", // 15 digits
		"1234567890123456", "9999999999999999", "9007199254740993", "0.1234567890123456", // 16 digits
		"1.0000000000000000000001", "0.0000000000000000000001", "0.00000000000000000000001", // 22, 23 after the point
		"100000000000000000000000", strings.Repeat("9", 400), "." + strings.Repeat("0", 400) + "1",
	} {
		same(s)
	}
	rng := rand.New(rand.NewSource(1))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	for i := 0; i < 200_000; i++ {
		ip, fp := digits(rng.Intn(19)), digits(rng.Intn(26))
		switch {
		case rng.Intn(4) == 0 && ip != "":
			same(ip)
		case ip == "" && fp == "":
		default:
			same(ip + "." + fp)
		}
	}
}
