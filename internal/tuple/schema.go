package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Column describes one column of a schema.
type Column struct {
	Name string
	Type Type
	// Len is the character count for TChar columns; ignored otherwise.
	Len int

	offset int // byte offset within a record, computed by NewSchema
}

// Width returns the on-disk width of the column in bytes.
func (c Column) Width() int {
	if c.Type == TChar {
		return c.Len
	}
	return c.Type.Width()
}

// Schema is an ordered list of columns with a fixed-width record layout.
// A Schema is immutable after construction.
type Schema struct {
	cols    []Column
	byName  map[string]int
	recSize int
}

// NewSchema builds a schema from the given columns, computing field offsets.
// Column names must be unique (case-insensitive) and non-empty.
func NewSchema(cols []Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("tuple: schema must have at least one column")
	}
	s := &Schema{
		cols:   make([]Column, len(cols)),
		byName: make(map[string]int, len(cols)),
	}
	off := 0
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("tuple: column %d has empty name", i)
		}
		key := strings.ToUpper(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("tuple: duplicate column name %q", c.Name)
		}
		if c.Type == TChar && c.Len <= 0 {
			return nil, fmt.Errorf("tuple: char column %q needs positive Len", c.Name)
		}
		c.offset = off
		off += c.Width()
		s.cols[i] = c
		s.byName[key] = i
	}
	s.recSize = off
	return s, nil
}

// MustSchema is NewSchema that panics on error; for schema constants.
func MustSchema(cols []Column) *Schema {
	s, err := NewSchema(cols)
	if err != nil {
		panic(err)
	}
	return s
}

// RecordSize returns the fixed record width in bytes.
func (s *Schema) RecordSize() int { return s.recSize }

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// ColumnOffset returns the byte offset of the i-th column within a record,
// as computed by NewSchema. Batch operators use it to compare raw column
// bytes without re-deriving the record layout.
func (s *Schema) ColumnOffset(i int) int { return s.cols[i].offset }

// ColumnIndex resolves a column name (case-insensitive) to its index,
// returning -1 if absent.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[strings.ToUpper(name)]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the schema contains the named column.
func (s *Schema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// Tuple is a fixed-width binary record interpreted through a Schema.
// The underlying bytes may alias page memory; callers that retain a Tuple
// across iterator advances must Copy it.
type Tuple struct {
	Schema *Schema
	Data   []byte
}

// NewTuple allocates a zeroed record for the schema.
func NewTuple(s *Schema) Tuple {
	return Tuple{Schema: s, Data: make([]byte, s.recSize)}
}

// Copy returns a Tuple backed by freshly allocated memory.
func (t Tuple) Copy() Tuple {
	d := make([]byte, len(t.Data))
	copy(d, t.Data)
	return Tuple{Schema: t.Schema, Data: d}
}

// Int32 reads an int32/date column by index.
func (t Tuple) Int32(i int) int32 {
	c := t.Schema.cols[i]
	return int32(binary.LittleEndian.Uint32(t.Data[c.offset:]))
}

// Int64 reads an int64 column by index.
func (t Tuple) Int64(i int) int64 {
	c := t.Schema.cols[i]
	return int64(binary.LittleEndian.Uint64(t.Data[c.offset:]))
}

// Float64 reads a float64 column by index.
func (t Tuple) Float64(i int) float64 {
	c := t.Schema.cols[i]
	return math.Float64frombits(binary.LittleEndian.Uint64(t.Data[c.offset:]))
}

// Char reads a TChar column by index, with trailing padding trimmed.
func (t Tuple) Char(i int) string {
	c := t.Schema.cols[i]
	return strings.TrimRight(string(t.Data[c.offset:c.offset+c.Len]), " ")
}

// CharBytes returns the bytes of a TChar column with trailing padding
// trimmed, aliasing the tuple's memory. It is the allocation-free
// counterpart of Char for hot loops; callers must not retain or mutate the
// slice.
func (t Tuple) CharBytes(i int) []byte {
	c := t.Schema.cols[i]
	b := t.Data[c.offset : c.offset+c.Len]
	for len(b) > 0 && b[len(b)-1] == ' ' {
		b = b[:len(b)-1]
	}
	return b
}

// Numeric reads any numeric column (int32/int64/float64/date) as a float64.
// This is the value domain used by expressions and SMA aggregates.
func (t Tuple) Numeric(i int) float64 {
	switch t.Schema.cols[i].Type {
	case TInt32, TDate:
		return float64(t.Int32(i))
	case TInt64:
		return float64(t.Int64(i))
	case TFloat64:
		return t.Float64(i)
	default:
		panic(fmt.Sprintf("tuple: column %q is not numeric", t.Schema.cols[i].Name))
	}
}

// SetInt32 writes an int32/date column by index.
func (t Tuple) SetInt32(i int, v int32) {
	c := t.Schema.cols[i]
	binary.LittleEndian.PutUint32(t.Data[c.offset:], uint32(v))
}

// SetInt64 writes an int64 column by index.
func (t Tuple) SetInt64(i int, v int64) {
	c := t.Schema.cols[i]
	binary.LittleEndian.PutUint64(t.Data[c.offset:], uint64(v))
}

// SetFloat64 writes a float64 column by index.
func (t Tuple) SetFloat64(i int, v float64) {
	c := t.Schema.cols[i]
	binary.LittleEndian.PutUint64(t.Data[c.offset:], math.Float64bits(v))
}

// SetChar writes a TChar column by index, truncating or space-padding to the
// declared length.
func (t Tuple) SetChar(i int, v string) {
	c := t.Schema.cols[i]
	dst := t.Data[c.offset : c.offset+c.Len]
	n := copy(dst, v)
	for ; n < c.Len; n++ {
		dst[n] = ' '
	}
}

// SetNumeric writes a float64 into any numeric column, converting to the
// column's storage type.
func (t Tuple) SetNumeric(i int, v float64) {
	switch t.Schema.cols[i].Type {
	case TInt32, TDate:
		t.SetInt32(i, int32(v))
	case TInt64:
		t.SetInt64(i, int64(v))
	case TFloat64:
		t.SetFloat64(i, v)
	default:
		panic(fmt.Sprintf("tuple: column %q is not numeric", t.Schema.cols[i].Name))
	}
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range t.Schema.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		switch c.Type {
		case TInt32:
			fmt.Fprintf(&b, "%d", t.Int32(i))
		case TInt64:
			fmt.Fprintf(&b, "%d", t.Int64(i))
		case TFloat64:
			fmt.Fprintf(&b, "%g", t.Float64(i))
		case TDate:
			b.WriteString(FormatDate(t.Int32(i)))
		case TChar:
			fmt.Fprintf(&b, "%q", t.Char(i))
		}
	}
	b.WriteByte(')')
	return b.String()
}
