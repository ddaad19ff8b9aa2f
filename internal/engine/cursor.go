package engine

import (
	"context"
	"fmt"
	"strings"

	"sma/internal/exec"
	"sma/internal/obs"
	"sma/internal/parser"
	"sma/internal/planner"
	"sma/internal/tuple"
)

// QueryOption adjusts the execution of a single query.
type QueryOption func(*queryConfig)

// queryConfig collects per-query execution overrides.
type queryConfig struct {
	dop   int
	trace bool
}

// WithDOP overrides the engine's default degree of intra-query parallelism
// for one query: 1 forces serial execution, n > 1 requests n partition
// workers (capped by the work the plan dispatches). 0 keeps the engine
// default.
func WithDOP(n int) QueryOption {
	return func(c *queryConfig) { c.dop = n }
}

// WithTrace renders one query's phase clock as a trace: when the statement
// ends, its record — the wall time and counters of parse, plan, grade,
// scan, fold or merge (with one row per parallel worker) and stream — is
// drawn as a tree, exposed via TraceNode. The clock runs on every query, so
// tracing adds only the tree. It works with or without an Observer on the
// database.
func WithTrace(on bool) QueryOption {
	return func(c *queryConfig) { c.trace = on }
}

// ColInfo describes one output column of a streaming cursor.
type ColInfo struct {
	Name string
	// Type is the value type produced for the column: TChar columns yield
	// string, TDate columns int32 (days since 1970-01-01), TInt32/TInt64
	// columns int64, TFloat64 columns float64. Aggregate columns always
	// report TFloat64 and yield float64.
	Type tuple.Type
	// IsAgg marks aggregate output columns.
	IsAgg bool
}

// Cursor is a streaming query result: it pulls rows one at a time from the
// exec-layer iterator pipeline. Rows carry typed values (see ColInfo), not
// rendered strings.
//
// A projection's cursor holds the database read lock until released: by
// Close, or automatically when the stream ends (exhaustion or error). An
// aggregation's cursor releases it as soon as its pipeline is open, since
// by then every page it reads has been read and the rows are computed; a
// client that stops reading one delays no writer. A Cursor is not safe for
// concurrent use.
type Cursor struct {
	// st is the statement's record: its plan, id, trace, and the read lock
	// that finish hands back through st.end.
	st  *statement
	lay *cursorLayout
	row []any // the row Next fills, one value per column

	// Aggregation mode.
	rows exec.RowIter

	// Projection mode.
	tuples exec.TupleIter

	// Text mode (EXPLAIN): the cursor streams pre-rendered lines through
	// a single "QUERY PLAN" column and holds no database lock.
	text    bool
	lines   []string
	lineIdx int

	released bool
}

// cursorLayout is where a query's output columns come from: their
// metadata, and per select item the group-key position (aggregation) or
// the scan tuple's column (projection). It depends only on the query and
// the table's schema, so the statement cache entry keeps it for every
// cursor of its plan, and it is read-only.
type cursorLayout struct {
	cols     []ColInfo
	groupPos []int // aggregation, per select item: index into Row.Vals, -1 for aggregates
	tupIdx   []int // projection, per select item: column index into the scan tuple
	err      error // why no cursor can be built for the query
}

// newCursorLayout lays out the output of plan's query over schema.
func newCursorLayout(plan *planner.Plan, schema *tuple.Schema) *cursorLayout {
	l := &cursorLayout{}
	if plan.IsProjection() {
		// The planner already validated the projection columns.
		cols := plan.Query.ProjColumns(schema)
		l.tupIdx = make([]int, len(cols))
		l.cols = make([]ColInfo, len(cols))
		for i, name := range cols {
			j := schema.ColumnIndex(name)
			l.tupIdx[i] = j
			l.cols[i] = ColInfo{Name: name, Type: schema.Column(j).Type}
		}
		return l
	}
	// Aggregation: column metadata follows the select list; group-by
	// values are located by their position in the group key.
	l.groupPos = make([]int, len(plan.Query.Items))
	l.cols = make([]ColInfo, len(plan.Query.Items))
	for i, it := range plan.Query.Items {
		if it.IsAgg {
			l.groupPos[i] = -1
			l.cols[i] = ColInfo{Name: it.Agg.Name, Type: tuple.TFloat64, IsAgg: true}
			continue
		}
		for k, g := range plan.Query.GroupBy {
			if strings.EqualFold(g, it.Col) {
				l.groupPos[i] = k
				break
			}
		}
		j := schema.ColumnIndex(it.Col)
		if j < 0 {
			return &cursorLayout{err: fmt.Errorf("engine: unknown column %q in select list", it.Col)}
		}
		l.cols[i] = ColInfo{Name: it.Col, Type: schema.Column(j).Type}
	}
	return l
}

// newCursor builds and opens the iterator pipeline for a planned query,
// laid out as its statement cache entry says. The statement holds
// db.mu.RLock; on error the caller ends it.
func newCursor(ctx context.Context, st *statement) (*Cursor, error) {
	plan, lay := st.plan, st.entry.layout
	if lay.err != nil {
		return nil, lay.err
	}
	c := &Cursor{st: st, lay: lay}
	if plan.IsProjection() {
		it, err := plan.TupleIterator(ctx)
		if err != nil {
			return nil, err
		}
		if err := it.Open(); err != nil {
			_ = it.Close() // the Open error is the one worth reporting
			return nil, err
		}
		c.tuples = it
		c.row = make([]any, len(lay.cols))
		return c, nil
	}
	it, err := plan.RowIterator(ctx)
	if err != nil {
		return nil, err
	}
	// Open runs the aggregation (the operators are pipeline breakers); the
	// context is checked every bucket/page, so cancellation aborts here.
	if err := it.Open(); err != nil {
		_ = it.Close() // the Open error is the one worth reporting
		return nil, err
	}
	c.rows = it
	c.row = make([]any, len(lay.cols))
	return c, nil
}

// Columns returns the output column metadata. Every cursor of one cached
// plan shares the slice: callers must not modify it.
func (c *Cursor) Columns() []ColInfo { return c.lay.cols }

// Plan returns the executed physical plan (diagnostics).
func (c *Cursor) Plan() *planner.Plan { return c.st.plan }

// Stats returns the merged scan statistics of the executed plan — bucket
// grading counts and heap pages read, folded across all partition workers
// for parallel plans — and whether the plan tracks any. For aggregation
// queries the stats are complete as soon as the cursor exists; for
// projections they are complete when the stream ends.
func (c *Cursor) Stats() (exec.ScanStats, bool) { return c.st.plan.ScanStats() }

// TraceNode returns the finished execution trace of the query. It is
// available once the stream has ended (exhaustion, error, or Close) and
// nil when the query was not traced (see WithTrace). A cancelled or
// failed query yields a well-formed trace of the phases it reached.
func (c *Cursor) TraceNode() *obs.TraceNode { return c.st.trace }

// QueryID returns the query's observability id ("" when the database has
// no observer).
func (c *Cursor) QueryID() string { return c.st.qid }

// Next returns the next result row as typed values (see ColInfo), or
// ok=false at end of stream or on error. The cursor fills one slice for
// every row, so the returned slice is valid until the next call of Next: a
// caller that keeps a row copies it. The values themselves are plain Go
// scalars safe to retain. When the stream ends (ok=false), the database
// read lock is released; Close afterwards is a no-op.
func (c *Cursor) Next() (row []any, ok bool, err error) {
	// Panic boundary: a panic in the iterator pipeline ends the stream
	// with a typed error (releasing the read lock) instead of unwinding
	// into the caller — one poisoned query must not take down a server.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		c.st.db.opts.Obs.Logger().Error("query panic mid-stream", "qid", c.st.qid, "err", fmt.Sprint(r), "sql", c.st.sql)
		row, ok = nil, false
		err = fmt.Errorf("%w: %v", ErrStatementPanic, r)
		func() {
			defer func() { _ = recover() }() // cleanup of a broken pipeline may panic again
			_ = c.finish(err)
		}()
	}()
	if c.released {
		return nil, false, nil
	}
	if c.text {
		if c.lineIdx >= len(c.lines) {
			return nil, false, c.finish(nil)
		}
		c.row[0] = c.lines[c.lineIdx]
		c.lineIdx++
		return c.row, true, nil
	}
	if c.tuples != nil {
		t, ok, err := c.tuples.Next()
		if err != nil || !ok {
			return nil, false, c.finish(err)
		}
		out := c.row
		for i, j := range c.lay.tupIdx {
			out[i] = tupleValue(t, j)
		}
		c.st.Rows++
		return out, true, nil
	}
	r, ok, err := c.rows.Next()
	if err != nil || !ok {
		return nil, false, c.finish(err)
	}
	out := c.row
	for i, ci := range c.lay.cols {
		if ci.IsAgg {
			continue // filled below, in aggregate order
		}
		gv := r.Vals[c.lay.groupPos[i]]
		if gv.IsStr {
			out[i] = gv.Str
			continue
		}
		switch ci.Type {
		case tuple.TDate:
			out[i] = int32(gv.Num)
		case tuple.TInt32, tuple.TInt64:
			out[i] = int64(gv.Num)
		default:
			out[i] = gv.Num
		}
	}
	aggIdx := 0
	for i, ci := range c.lay.cols {
		if ci.IsAgg {
			out[i] = r.Aggs[aggIdx]
			aggIdx++
		}
	}
	c.st.Rows++
	return out, true, nil
}

// tupleValue extracts column j of a scan tuple as a typed Go value.
func tupleValue(t tuple.Tuple, j int) any {
	switch t.Schema.Column(j).Type {
	case tuple.TChar:
		return t.Char(j)
	case tuple.TDate:
		return t.Int32(j)
	case tuple.TInt32:
		return int64(t.Int32(j))
	case tuple.TInt64:
		return t.Int64(j)
	default:
		return t.Float64(j)
	}
}

// finish ends the stream exactly once: it closes the iterator pipeline and
// settles the statement — which releases the read lock — with the error
// that ended the stream (cause, or else the pipeline's close error),
// returning that error.
func (c *Cursor) finish(cause error) error {
	if c.released {
		return nil
	}
	c.released = true
	err := cause
	if c.tuples != nil {
		if cerr := c.tuples.Close(); err == nil {
			err = cerr
		}
	}
	if c.rows != nil {
		if cerr := c.rows.Close(); err == nil {
			err = cerr
		}
	}
	c.st.end(err)
	return err
}

// Close releases the cursor's resources and the database read lock. Close
// is idempotent and safe after the stream has ended.
func (c *Cursor) Close() error { return c.finish(nil) }

// QueryContext parses, plans, and begins executing a SELECT, returning a
// streaming cursor. The database read lock is held from here until an
// aggregation's pipeline is open, or a projection's cursor is closed (or
// exhausted), so concurrent DDL and data modification cannot mutate SMA
// vectors or pages mid-read (parallel partition workers read under the
// same lock). The context is threaded into the scan operators
// and checked on every bucket/page: cancelling it makes QueryContext (or a
// subsequent Next) fail with the context's error, and under parallelism
// the first failing worker cancels its siblings the same way.
func (db *DB) QueryContext(ctx context.Context, sql string, opts ...QueryOption) (*Cursor, error) {
	if inner, analyze, isExplain := parser.SplitExplain(sql); isExplain {
		return db.explainContext(ctx, inner, analyze, opts...)
	}
	return db.queryContext(ctx, sql, opts...)
}

// queryContext is QueryContext for a plain SELECT: the statement begins,
// and either a cursor takes it over (its finish ends it) or it ends here
// with the error that kept the cursor from existing.
func (db *DB) queryContext(ctx context.Context, sql string, opts ...QueryOption) (*Cursor, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctx, st := db.begin(ctx, sql, true, cfg.trace)
	cur, err := db.openCursor(ctx, st, cfg)
	if err != nil {
		st.end(err)
		return nil, err
	}
	return cur, nil
}

// openCursor plans the statement's query under the read lock and opens its
// pipeline. It is a panic boundary: a panicking plan or pipeline Open
// becomes an error, not a downed process.
func (db *DB) openCursor(ctx context.Context, st *statement, cfg queryConfig) (cur *Cursor, err error) {
	defer db.recoverQueryPanic(st.sql, &err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st.rlock()
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	plan, err := db.planLocked(st)
	if err != nil {
		db.opts.Obs.Logger().Warn("query rejected", "qid", st.qid, "err", err, "sql", st.sql)
		return nil, err
	}
	if cfg.dop > 0 {
		plan.DOP = db.pl.ChooseDOP(plan, cfg.dop)
	}
	st.plan = plan
	cur, err = newCursor(ctx, st)
	st.mark(openPhase(plan))
	if err != nil {
		db.opts.Obs.Logger().Warn("query failed", "qid", st.qid, "err", err, "sql", st.sql)
		return nil, err
	}
	if !plan.IsProjection() {
		// The aggregation's Open read every page it reads and computed
		// every row: what the cursor hands out from here is its own.
		st.unlock()
	}
	return cur, nil
}

// explainContext implements EXPLAIN and EXPLAIN ANALYZE. Plain EXPLAIN
// plans the inner query and streams the plan description. EXPLAIN
// ANALYZE runs the query to completion traced and streams the plan
// description followed by its rendered trace, the phase times and
// counters of its record; the text cursor shares the inner query's
// settled statement, so its Stats and TraceNode reflect the real
// execution.
func (db *DB) explainContext(ctx context.Context, inner string, analyze bool, opts ...QueryOption) (*Cursor, error) {
	if !analyze {
		plan, err := db.Plan(inner)
		if err != nil {
			return nil, err
		}
		// Nothing executes, so nothing is recorded: a settled, empty record.
		return newTextCursor(&statement{db: db, plan: plan, done: true}, strings.Split(plan.Explain(), "\n")), nil
	}
	cur, err := db.queryContext(ctx, inner, append(opts, WithTrace(true))...)
	if err != nil {
		return nil, err
	}
	for {
		_, more, err := cur.Next()
		if err != nil {
			_ = cur.Close() // already finished by the failing Next
			return nil, err
		}
		if !more {
			break
		}
	}
	lines := strings.Split(cur.Plan().Explain(), "\n")
	lines = append(lines, "")
	lines = append(lines, strings.Split(strings.TrimRight(cur.TraceNode().Render(), "\n"), "\n")...)
	return newTextCursor(cur.st, lines), nil
}

// textLayout is the one column of a text cursor.
var textLayout = &cursorLayout{cols: []ColInfo{{Name: "QUERY PLAN", Type: tuple.TChar}}}

// newTextCursor builds a lock-free cursor streaming pre-rendered lines
// through a single QUERY PLAN column.
func newTextCursor(st *statement, lines []string) *Cursor {
	return &Cursor{
		st:   st,
		lay:  textLayout,
		row:  make([]any, 1),
		text: true, lines: lines,
	}
}
