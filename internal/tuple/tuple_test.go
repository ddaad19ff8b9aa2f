package tuple

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "I32", Type: TInt32},
		{Name: "I64", Type: TInt64},
		{Name: "F64", Type: TFloat64},
		{Name: "D", Type: TDate},
		{Name: "C1", Type: TChar, Len: 1},
		{Name: "C10", Type: TChar, Len: 10},
	})
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaLayout(t *testing.T) {
	s := testSchema(t)
	if got, want := s.RecordSize(), 4+8+8+4+1+10; got != want {
		t.Errorf("RecordSize = %d, want %d", got, want)
	}
	if s.NumColumns() != 6 {
		t.Errorf("NumColumns = %d, want 6", s.NumColumns())
	}
	if s.ColumnIndex("f64") != 2 {
		t.Errorf("ColumnIndex is not case-insensitive")
	}
	if s.ColumnIndex("NOPE") != -1 {
		t.Errorf("ColumnIndex of unknown column should be -1")
	}
	if !s.HasColumn("c10") || s.HasColumn("c99") {
		t.Errorf("HasColumn misbehaves")
	}
}

func TestSchemaErrors(t *testing.T) {
	cases := []struct {
		name string
		cols []Column
	}{
		{"empty", nil},
		{"dup", []Column{{Name: "A", Type: TInt32}, {Name: "a", Type: TInt32}}},
		{"noname", []Column{{Name: "", Type: TInt32}}},
		{"charlen", []Column{{Name: "C", Type: TChar}}},
	}
	for _, tc := range cases {
		if _, err := NewSchema(tc.cols); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	s := testSchema(t)
	tp := NewTuple(s)
	tp.SetInt32(0, -42)
	tp.SetInt64(1, 1<<40)
	tp.SetFloat64(2, 3.25)
	tp.SetInt32(3, MustParseDate("1997-04-30"))
	tp.SetChar(4, "R")
	tp.SetChar(5, "TRUCK")

	if tp.Int32(0) != -42 {
		t.Errorf("Int32 = %d", tp.Int32(0))
	}
	if tp.Int64(1) != 1<<40 {
		t.Errorf("Int64 = %d", tp.Int64(1))
	}
	if tp.Float64(2) != 3.25 {
		t.Errorf("Float64 = %v", tp.Float64(2))
	}
	if FormatDate(tp.Int32(3)) != "1997-04-30" {
		t.Errorf("date = %s", FormatDate(tp.Int32(3)))
	}
	if tp.Char(4) != "R" {
		t.Errorf("char1 = %q", tp.Char(4))
	}
	if tp.Char(5) != "TRUCK" {
		t.Errorf("char10 = %q (padding should be trimmed)", tp.Char(5))
	}
}

func TestTupleCharTruncation(t *testing.T) {
	s := testSchema(t)
	tp := NewTuple(s)
	tp.SetChar(5, "ABCDEFGHIJKLMNOP") // longer than 10
	if got := tp.Char(5); got != "ABCDEFGHIJ" {
		t.Errorf("Char = %q, want truncation to 10", got)
	}
}

func TestTupleNumeric(t *testing.T) {
	s := testSchema(t)
	tp := NewTuple(s)
	tp.SetInt32(0, 7)
	tp.SetInt64(1, 9)
	tp.SetFloat64(2, 1.5)
	tp.SetInt32(3, 100)
	for i, want := range []float64{7, 9, 1.5, 100} {
		if got := tp.Numeric(i); got != want {
			t.Errorf("Numeric(%d) = %v, want %v", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Numeric on char column should panic")
		}
	}()
	tp.Numeric(4)
}

func TestSetNumeric(t *testing.T) {
	s := testSchema(t)
	tp := NewTuple(s)
	tp.SetNumeric(0, 12)
	tp.SetNumeric(1, 13)
	tp.SetNumeric(2, 2.5)
	tp.SetNumeric(3, 14)
	if tp.Int32(0) != 12 || tp.Int64(1) != 13 || tp.Float64(2) != 2.5 || tp.Int32(3) != 14 {
		t.Errorf("SetNumeric round trip failed: %s", tp)
	}
}

func TestTupleCopyIsDeep(t *testing.T) {
	s := testSchema(t)
	tp := NewTuple(s)
	tp.SetInt32(0, 1)
	cp := tp.Copy()
	tp.SetInt32(0, 2)
	if cp.Int32(0) != 1 {
		t.Errorf("Copy aliases the original")
	}
}

func TestDateHelpers(t *testing.T) {
	if DateFromYMD(1970, 1, 1) != 0 {
		t.Errorf("epoch should be day 0")
	}
	d, err := ParseDate("1992-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDate(d) != "1992-01-01" {
		t.Errorf("round trip = %s", FormatDate(d))
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Errorf("expected parse error")
	}
	// 1992-01-01 .. 1998-12-31 is 2557 days inclusive (two leap years); the
	// paper's cube model rounds this to 2556, which internal/tpcd keeps as
	// its model constant.
	span := MustParseDate("1998-12-31") - MustParseDate("1992-01-01") + 1
	if span != 2557 {
		t.Errorf("date domain = %d days, want 2557", span)
	}
}

func TestMustParseDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustParseDate should panic on bad input")
		}
	}()
	MustParseDate("bogus")
}

// TestQuickDateRoundTrip property-tests FormatDate/ParseDate inversion.
func TestQuickDateRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		d := int32(n) // 0 .. 65535 days ≈ 1970..2149
		back, err := ParseDate(FormatDate(d))
		return err == nil && back == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickNumericRoundTrip property-tests float64 storage.
func TestQuickNumericRoundTrip(t *testing.T) {
	s := testSchema(t)
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		tp := NewTuple(s)
		tp.SetFloat64(2, v)
		return tp.Float64(2) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCharRoundTrip property-tests char padding/trimming for printable
// ASCII content.
func TestQuickCharRoundTrip(t *testing.T) {
	s := testSchema(t)
	f := func(raw []byte) bool {
		var sb strings.Builder
		for _, b := range raw {
			if b > ' ' && b < 127 {
				sb.WriteByte(b)
			}
		}
		v := sb.String()
		if len(v) > 10 {
			v = v[:10]
		}
		tp := NewTuple(s)
		tp.SetChar(5, v)
		return tp.Char(5) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypeProperties(t *testing.T) {
	if TInt32.Width() != 4 || TDate.Width() != 4 || TInt64.Width() != 8 || TFloat64.Width() != 8 {
		t.Errorf("type widths wrong")
	}
	if TChar.Width() != 0 {
		t.Errorf("char width should be per-column")
	}
	for _, typ := range []Type{TInt32, TInt64, TFloat64, TDate} {
		if !typ.Numeric() {
			t.Errorf("%s should be numeric", typ)
		}
	}
	if TChar.Numeric() {
		t.Errorf("char should not be numeric")
	}
	if TInt32.String() != "INT32" || TChar.String() != "CHAR" {
		t.Errorf("type names wrong")
	}
}

func TestTupleString(t *testing.T) {
	s := testSchema(t)
	tp := NewTuple(s)
	tp.SetInt32(0, 5)
	tp.SetChar(4, "X")
	tp.SetInt32(3, MustParseDate("1995-06-17"))
	str := tp.String()
	for _, want := range []string{"5", `"X"`, "1995-06-17"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %s missing %s", str, want)
		}
	}
}

// TestParseDateFastPathMatchesTimeParse: the calendar arithmetic ParseDate
// uses for well-formed dates returns what time.Parse does for every day of
// its range, and declines everything else.
func TestParseDateFastPathMatchesTimeParse(t *testing.T) {
	for d := time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC); d.Year() < 2200; d = d.AddDate(0, 0, 1) {
		s := d.Format("2006-01-02")
		got, ok := civilDays(s)
		if want := int32(d.Sub(epoch).Hours() / 24); !ok || got != want {
			t.Fatalf("civilDays(%q) = %d, %v; time.Parse gives %d", s, got, ok, want)
		}
	}
	for _, s := range []string{"1699-12-31", "2200-01-01", "1999-02-29", "2000-13-01", "2000-00-10",
		"2000-01-00", "2000-04-31", "2000-1-01", "2000/01/01", "20000101", "2000-01-0x", ""} {
		if d, ok := civilDays(s); ok {
			t.Errorf("civilDays(%q) = %d, want it left to time.Parse", s, d)
		}
	}
	if d, err := ParseDate("2000-02-29"); err != nil || d != DateFromYMD(2000, 2, 29) {
		t.Errorf("ParseDate(2000-02-29) = %d, %v", d, err)
	}
	if _, err := ParseDate("1999-02-29"); err == nil {
		t.Error("ParseDate accepted 1999-02-29")
	}
}
