package sma

import (
	"fmt"
	"math"
	"time"

	"sma/internal/engine"
)

// Rows is a streaming query cursor in the style of database/sql: call Next
// until it returns false, Scan inside the loop, then check Err and Close.
// Rows pulls from the exec-layer iterator pipeline one row at a time; the
// full result is never materialized by the cursor. A projection's cursor
// holds the database read lock while it is open and releases it by Close
// or when the stream ends; an aggregation computes its rows before
// QueryContext returns and holds the lock no longer.
type Rows struct {
	cur  *engine.Cursor
	cols []engine.ColInfo
	vals []any
	err  error
	done bool
	// cells and ends are RowStrings' scratch: the row's rendered bytes and
	// where each cell ends in them.
	cells []byte
	ends  []int
}

// Columns returns the output column names in select-list order.
func (r *Rows) Columns() []string {
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.Name
	}
	return out
}

// ColumnTypes returns the value type of each output column. Aggregate
// columns are TypeFloat64.
func (r *Rows) ColumnTypes() []ColumnType {
	out := make([]ColumnType, len(r.cols))
	for i, c := range r.cols {
		if c.IsAgg {
			out[i] = TypeFloat64
		} else {
			out[i] = fromTupleType(c.Type)
		}
	}
	return out
}

// Strategy names the physical plan executing the query (diagnostics).
func (r *Rows) Strategy() string { return r.cur.Plan().StrategyName() }

// Parallelism returns the degree of intra-query parallelism the plan
// executes with (1 = serial).
func (r *Rows) Parallelism() int { return r.cur.Plan().DOP }

// QueryStats reports how the executed query classified and touched the
// relation: the §3.1 bucket partition the scan observed and the heap pages
// it fetched. For parallel plans the counts are merged across all
// partition workers.
type QueryStats struct {
	QualifyingBuckets    int
	DisqualifyingBuckets int
	AmbivalentBuckets    int
	PagesRead            int
	// Batches counts the tuple batches the scans produced (one per page
	// for a projection).
	Batches int
	// PagesPrefetched counts heap pages the asynchronous prefetcher read
	// ahead of the scan cursors.
	PagesPrefetched int
	// PrefetchHits counts page fetches that found their page already
	// resident because readahead got there first.
	PrefetchHits int
}

// Stats returns the query's scan statistics and whether the plan tracks
// any. For aggregation queries stats are complete as soon as the Rows
// exist (the aggregation runs up front); for projections they are complete
// when the stream ends.
func (r *Rows) Stats() (QueryStats, bool) {
	s, ok := r.cur.Stats()
	if !ok {
		return QueryStats{}, false
	}
	return QueryStats{
		QualifyingBuckets:    s.Qualifying,
		DisqualifyingBuckets: s.Disqualifying,
		AmbivalentBuckets:    s.Ambivalent,
		PagesRead:            s.PagesRead,
		Batches:              s.Batches,
		PagesPrefetched:      s.PagesPrefetched,
		PrefetchHits:         s.PrefetchHits,
	}, true
}

// Trace returns the query's trace when it was traced (WithQueryTrace or
// EXPLAIN ANALYZE) and the stream has ended; nil otherwise. The tree is the
// statement record's phase vector — parse, plan, grade, scan, fold (or
// merge with one row per worker), stream — with each phase's wall time,
// rows, pages, and bucket grading counts.
func (r *Rows) Trace() *TraceNode { return r.cur.TraceNode() }

// QueryID returns the identifier the observability layer assigned this
// query ("" with observability disabled). It tags the query's log
// records and server-side request logs.
func (r *Rows) QueryID() string { return r.cur.QueryID() }

// Next advances to the next row, returning false at end of stream or on
// error (check Err to tell them apart). When Next returns false the read
// lock has been released.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	vals, ok, err := r.cur.Next()
	if err != nil {
		r.err = err
		r.done = true
		return false
	}
	if !ok {
		r.done = true
		return false
	}
	r.vals = vals
	return true
}

// Err returns the error that terminated iteration, if any. A query
// cancelled via its context reports context.Canceled (or
// context.DeadlineExceeded).
func (r *Rows) Err() error { return r.err }

// Close releases the cursor and, for a projection, the database read lock.
// Close is idempotent and safe after the stream has ended.
func (r *Rows) Close() error { return r.cur.Close() }

// Scan copies the current row into dest, one pointer per column. Supported
// destinations per value type:
//
//	int64 columns:   *int64, *int, *int32 (in range), *float64, *any
//	float64 columns: *float64, *int64 (integral values only), *any
//	string columns:  *string, *any
//	date columns:    *Date, *time.Time, *string ("YYYY-MM-DD"), *any (Date)
func (r *Rows) Scan(dest ...any) error {
	if r.vals == nil {
		return fmt.Errorf("sma: Scan called without a successful Next")
	}
	if len(dest) != len(r.vals) {
		return fmt.Errorf("sma: Scan expected %d destinations, got %d", len(r.vals), len(dest))
	}
	for i, v := range r.vals {
		if err := scanValue(dest[i], v); err != nil {
			return fmt.Errorf("sma: column %s: %w", r.cols[i].Name, err)
		}
	}
	return nil
}

// RowStrings renders the current row with the engine's display rules —
// the same rendering Collect uses: aggregates with integral values trimmed
// ("4" not "4.0000"), other aggregates with the bytes of fmt's "%.4f",
// dates as "YYYY-MM-DD". Serving layers stream these strings so every
// consumer of a result sees identical bytes. The row's cells share one
// allocation.
func (r *Rows) RowStrings() ([]string, error) {
	if r.vals == nil {
		return nil, fmt.Errorf("sma: RowStrings called without a successful Next")
	}
	b, ends := r.cells[:0], r.ends[:0]
	for i, v := range r.vals {
		b = appendValue(b, v, r.cols[i].IsAgg)
		ends = append(ends, len(b))
	}
	all, out, start := string(b), make([]string, len(r.vals)), 0
	for i, end := range ends {
		out[i], start = all[start:end], end
	}
	r.cells, r.ends = b, ends
	return out, nil
}

// Values returns the current row as typed values: int64, float64, string,
// or Date per column. The slice is freshly allocated each call.
func (r *Rows) Values() ([]any, error) {
	if r.vals == nil {
		return nil, fmt.Errorf("sma: Values called without a successful Next")
	}
	out := make([]any, len(r.vals))
	for i, v := range r.vals {
		if d, ok := v.(int32); ok {
			out[i] = Date(d)
		} else {
			out[i] = v
		}
	}
	return out, nil
}

// scanValue converts one cursor value (int64/float64/string/int32-date)
// into the destination pointer.
func scanValue(dest, v any) error {
	switch src := v.(type) {
	case int64:
		switch d := dest.(type) {
		case *int64:
			*d = src
		case *int:
			*d = int(src)
		case *int32:
			if src < math.MinInt32 || src > math.MaxInt32 {
				return fmt.Errorf("value %d overflows *int32", src)
			}
			*d = int32(src)
		case *float64:
			*d = float64(src)
		case *any:
			*d = src
		default:
			return fmt.Errorf("cannot scan int64 into %T", dest)
		}
	case float64:
		switch d := dest.(type) {
		case *float64:
			*d = src
		case *int64:
			if src != float64(int64(src)) {
				return fmt.Errorf("cannot scan non-integral %v into *int64", src)
			}
			*d = int64(src)
		case *any:
			*d = src
		default:
			return fmt.Errorf("cannot scan float64 into %T", dest)
		}
	case string:
		switch d := dest.(type) {
		case *string:
			*d = src
		case *any:
			*d = src
		default:
			return fmt.Errorf("cannot scan string into %T", dest)
		}
	case int32: // date columns
		switch d := dest.(type) {
		case *Date:
			*d = Date(src)
		case *time.Time:
			*d = Date(src).Time()
		case *string:
			*d = Date(src).String()
		case *any:
			*d = Date(src)
		default:
			return fmt.Errorf("cannot scan date into %T", dest)
		}
	default:
		return fmt.Errorf("unsupported cursor value %T", v)
	}
	return nil
}
