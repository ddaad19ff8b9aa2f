package sma

import (
	"fmt"
	"time"

	"sma/internal/tuple"
)

// ColumnType enumerates the column types of the engine.
type ColumnType uint8

// Column types.
const (
	// TypeInt32 is a 32-bit signed integer.
	TypeInt32 ColumnType = iota
	// TypeInt64 is a 64-bit signed integer.
	TypeInt64
	// TypeFloat64 is an IEEE-754 double. Aggregate output columns are
	// always TypeFloat64.
	TypeFloat64
	// TypeDate is a calendar date (see Date).
	TypeDate
	// TypeChar is a fixed-width character field, padded with spaces.
	TypeChar
)

// String returns the SQL name of the type, as accepted by "create table".
func (t ColumnType) String() string {
	switch t {
	case TypeInt32:
		return "int32"
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeDate:
		return "date"
	case TypeChar:
		return "char"
	default:
		return fmt.Sprintf("ColumnType(%d)", uint8(t))
	}
}

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type ColumnType
	// Len is the character count for TypeChar columns; ignored otherwise.
	Len int
}

// Date is a calendar date stored as days since 1970-01-01, the engine's
// on-disk date representation.
type Date int32

// DateOf builds a Date from a calendar day.
func DateOf(year, month, day int) Date {
	return Date(tuple.DateFromYMD(year, month, day))
}

// ParseDate parses a "YYYY-MM-DD" string.
func ParseDate(s string) (Date, error) {
	d, err := tuple.ParseDate(s)
	return Date(d), err
}

// MustParseDate is ParseDate that panics on malformed input; for constants.
func MustParseDate(s string) Date {
	return Date(tuple.MustParseDate(s))
}

// String renders the date as "YYYY-MM-DD".
func (d Date) String() string { return tuple.FormatDate(int32(d)) }

// Time converts the date to a UTC time.Time at midnight.
func (d Date) Time() time.Time {
	return time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(d))
}

// AddDays returns the date shifted by n days.
func (d Date) AddDays(n int) Date { return d + Date(n) }

// RID identifies a stored record by page and slot: where Table.Append
// placed its row. No method takes one; rows are found, changed and
// removed through SQL.
type RID struct {
	Page int64
	Slot int
}

// String renders the record id.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// fromTupleType converts an internal column type to the public enum.
func fromTupleType(t tuple.Type) ColumnType {
	switch t {
	case tuple.TInt32:
		return TypeInt32
	case tuple.TInt64:
		return TypeInt64
	case tuple.TDate:
		return TypeDate
	case tuple.TChar:
		return TypeChar
	default:
		return TypeFloat64
	}
}
