package sma

import (
	"fmt"
	"math"
	"time"

	"sma/internal/engine"
	"sma/internal/tuple"
)

// Table is a handle on a stored relation: its schema, size and SMAs, and
// Append, the loader. Rows also enter, change and leave through SQL
// (DB.Exec); every write maintains every SMA of the table in place, the
// paper's "cheap to maintain" property.
type Table struct {
	t *engine.Table
}

// Name returns the (upper-cased) table name.
func (t *Table) Name() string { return t.t.Name }

// Columns returns the table schema.
func (t *Table) Columns() []Column { return columns(t.t.Schema) }

// columns converts an internal schema to public column specs.
func columns(s *tuple.Schema) []Column {
	cols := s.Columns()
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = Column{Name: c.Name, Type: fromTupleType(c.Type), Len: c.Len}
	}
	return out
}

// Pages returns the number of heap pages.
func (t *Table) Pages() int64 { return t.t.Heap.NumPages() }

// Buckets returns the number of SMA buckets.
func (t *Table) Buckets() int { return t.t.Heap.NumBuckets() }

// BucketPages returns the bucket granularity in pages.
func (t *Table) BucketPages() int { return t.t.BucketPages }

// Append is the loader: it adds one row (one value per column, in schema
// order) on the append path INSERT takes and maintains every SMA of the
// table. Unlike a SQL statement it is not recorded in sma_stat_* and does
// not wait for the redo log's fsync. Accepted value types per column:
//
//	int32:   int, int32, int64
//	int64:   int, int32, int64
//	float64: float64, float32, int, int64
//	date:    Date, time.Time, string ("YYYY-MM-DD")
//	char:    string
func (t *Table) Append(vals ...any) (RID, error) {
	tp, err := t.newTuple(vals)
	if err != nil {
		return RID{}, err
	}
	rid, err := t.t.Append(tp)
	return RID{Page: int64(rid.Page), Slot: rid.Slot}, err
}

// TableInfo is a catalog snapshot of one table: name, schema, size, and
// defined SMAs. DB.Tables returns one per table.
type TableInfo struct {
	Name    string
	Columns []Column
	// Rows is the live record count (deleted tuples excluded); -1 when the
	// count failed with an I/O error.
	Rows int64
	// Pages is the heap size in pages (deleted records still occupy their
	// slots until compaction).
	Pages int64
	// Buckets is the number of SMA buckets; BucketPages the bucket
	// granularity in pages.
	Buckets     int
	BucketPages int
	SMAs        []SMAInfo
}

// PoolStats aggregates buffer pool activity across every table's pool.
type PoolStats struct {
	Hits         int64 // page requests satisfied without disk I/O
	Misses       int64 // page requests that required a physical read
	Evictions    int64 // frames written back / recycled
	Prefetched   int64 // physical reads issued by prefetchers
	PrefetchHits int64 // demand fetches that landed on a prefetched frame
	Overflows    int64 // frames allocated past capacity under a statement barrier
}

// Rows returns the table's live record count (deleted tuples excluded).
func (t *Table) Rows() (int64, error) { return t.t.NumRecords() }

// SMAInfo describes one SMA of a table.
type SMAInfo struct {
	Name string
	// SQL is the defining DDL ("define sma ... select ... from ...").
	SQL     string
	Files   int
	Pages   int64
	Buckets int
}

// SMAs lists the table's SMAs in name order.
func (t *Table) SMAs() []SMAInfo { return smaInfos(t.t.SMAInfos()) }

// smaInfos converts the engine's SMA descriptions, field for field.
func smaInfos(in []engine.SMAInfo) []SMAInfo {
	out := make([]SMAInfo, len(in))
	for i, s := range in {
		out[i] = SMAInfo(s)
	}
	return out
}

// VerifySMA recomputes the named SMA from the heap and compares it against
// the maintained state, returning an error on any mismatch.
func (t *Table) VerifySMA(name string) error { return t.t.VerifySMA(name) }

// newTuple converts one row of Go values into the table's record layout.
func (t *Table) newTuple(vals []any) (tuple.Tuple, error) {
	s := t.t.Schema
	if len(vals) != s.NumColumns() {
		return tuple.Tuple{}, fmt.Errorf("sma: table %s has %d columns, got %d values",
			t.t.Name, s.NumColumns(), len(vals))
	}
	tp := tuple.NewTuple(s)
	for i, v := range vals {
		if err := setColumn(tp, i, v); err != nil {
			return tuple.Tuple{}, fmt.Errorf("sma: column %s: %w", s.Column(i).Name, err)
		}
	}
	return tp, nil
}

// setColumn writes one Go value into column i of a record.
func setColumn(tp tuple.Tuple, i int, v any) error {
	col := tp.Schema.Column(i)
	switch col.Type {
	case tuple.TChar:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("char column needs a string, got %T", v)
		}
		if len(s) > col.Len {
			return fmt.Errorf("value %q exceeds char(%d)", s, col.Len)
		}
		tp.SetChar(i, s)
	case tuple.TDate:
		switch d := v.(type) {
		case Date:
			tp.SetInt32(i, int32(d))
		case time.Time:
			tp.SetInt32(i, tuple.DateFromYMD(d.Year(), int(d.Month()), d.Day()))
		case string:
			parsed, err := tuple.ParseDate(d)
			if err != nil {
				return err
			}
			tp.SetInt32(i, parsed)
		default:
			return fmt.Errorf("date column needs a Date, time.Time, or string, got %T", v)
		}
	case tuple.TInt32:
		n, err := asInt64(v)
		if err != nil {
			return err
		}
		if n < math.MinInt32 || n > math.MaxInt32 {
			return fmt.Errorf("value %d overflows int32", n)
		}
		tp.SetInt32(i, int32(n))
	case tuple.TInt64:
		n, err := asInt64(v)
		if err != nil {
			return err
		}
		tp.SetInt64(i, n)
	case tuple.TFloat64:
		switch f := v.(type) {
		case float64:
			tp.SetFloat64(i, f)
		case float32:
			tp.SetFloat64(i, float64(f))
		default:
			n, err := asInt64(v)
			if err != nil {
				return fmt.Errorf("float column needs a number, got %T", v)
			}
			tp.SetFloat64(i, float64(n))
		}
	default:
		return fmt.Errorf("unsupported column type %v", col.Type)
	}
	return nil
}

// asInt64 widens the supported integer types.
func asInt64(v any) (int64, error) {
	switch n := v.(type) {
	case int:
		return int64(n), nil
	case int32:
		return int64(n), nil
	case int64:
		return n, nil
	default:
		return 0, fmt.Errorf("integer column needs an int, got %T", v)
	}
}
