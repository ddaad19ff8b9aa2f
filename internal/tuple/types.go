// Package tuple defines typed schemas and the fixed-width binary record
// layout used by the storage engine. Records are fixed width so that the
// i-th entry of an SMA-file corresponds positionally to the i-th bucket of
// consecutive pages, exactly as the paper requires ("the order of the
// entries in the SMA will directly correspond to the physical order of the
// buckets on disc").
package tuple

import (
	"fmt"
	"time"
)

// Type enumerates the column types supported by the engine.
type Type uint8

const (
	// TInt32 is a 32-bit signed integer.
	TInt32 Type = iota
	// TInt64 is a 64-bit signed integer.
	TInt64
	// TFloat64 is an IEEE-754 double.
	TFloat64
	// TDate is a date stored as int32 days since 1970-01-01.
	TDate
	// TChar is a fixed-width character field, padded with spaces.
	TChar
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TInt32:
		return "INT32"
	case TInt64:
		return "INT64"
	case TFloat64:
		return "FLOAT64"
	case TDate:
		return "DATE"
	case TChar:
		return "CHAR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Width returns the on-disk width in bytes for scalar types. For TChar the
// width is per-column (see Column.Len); Width returns 0 in that case.
func (t Type) Width() int {
	switch t {
	case TInt32, TDate:
		return 4
	case TInt64, TFloat64:
		return 8
	default:
		return 0
	}
}

// Numeric reports whether values of the type can be used in arithmetic
// expressions and min/max/sum aggregates.
func (t Type) Numeric() bool {
	switch t {
	case TInt32, TInt64, TFloat64, TDate:
		return true
	default:
		return false
	}
}

// epoch is the zero point of TDate values.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// DateFromYMD converts a calendar date to its TDate representation
// (days since 1970-01-01).
func DateFromYMD(year, month, day int) int32 {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return int32(t.Sub(epoch).Hours() / 24)
}

// ParseDate parses a "YYYY-MM-DD" string into a TDate value.
func ParseDate(s string) (int32, error) {
	if d, ok := civilDays(s); ok {
		return d, nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("tuple: parse date %q: %w", s, err)
	}
	return int32(t.Sub(epoch).Hours() / 24), nil
}

// civilDays is ParseDate for the strings a load sends by the thousand: ten
// bytes, digits and dashes in place, a real calendar day in 1700-2199. It
// computes the day number by calendar arithmetic, no time.Time involved;
// anything else — and every malformed date, for its error — is left to
// time.Parse.
func civilDays(s string) (int32, bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	num := func(lo, hi int) int {
		n := 0
		for _, c := range []byte(s[lo:hi]) {
			if c < '0' || c > '9' {
				return -1
			}
			n = n*10 + int(c-'0')
		}
		return n
	}
	y, m, d := num(0, 4), num(5, 7), num(8, 10)
	if y < 1700 || y > 2199 || m < 1 || m > 12 || d < 1 {
		return 0, false
	}
	days := [...]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	if leap := y%4 == 0 && (y%100 != 0 || y%400 == 0); d > days[m-1] && !(leap && m == 2 && d == 29) {
		return 0, false
	}
	// Days from 1970-01-01 of a proleptic Gregorian date, counting years
	// from March so the leap day falls at a year's end.
	if m <= 2 {
		y--
		m += 12
	}
	era := y / 400
	yoe := y - era*400
	doy := (153*(m-3)+2)/5 + d - 1
	return int32(era*146097 + yoe*365 + yoe/4 - yoe/100 + doy - 719468), true
}

// MustParseDate is ParseDate that panics on malformed input. It is intended
// for constants in tests and generators.
func MustParseDate(s string) int32 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FormatDate renders a TDate value as "YYYY-MM-DD".
func FormatDate(d int32) string {
	return epoch.AddDate(0, 0, int(d)).Format("2006-01-02")
}
