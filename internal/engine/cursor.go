package engine

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

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
	batch *int
	trace bool
}

// WithDOP overrides the engine's default degree of intra-query parallelism
// for one query: 1 forces serial execution, n > 1 requests n partition
// workers (capped by the work the plan dispatches). 0 keeps the engine
// default.
func WithDOP(n int) QueryOption {
	return func(c *queryConfig) { c.dop = n }
}

// WithBatchSize overrides the engine's tuples-per-batch target for one
// query; values <= 0 batch at the default size. The prefetch window is
// unaffected.
func WithBatchSize(n int) QueryOption {
	return func(c *queryConfig) { c.batch = &n }
}

// WithTrace enables per-operator execution tracing for one query: the
// cursor records a span tree over the real pipeline (parse → plan →
// grade → execute → sort → fold → scan → prefetch) and exposes it via
// TraceNode once the stream ends. Tracing works with or without an
// Observer on the database.
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
// exec-layer iterator pipeline and holds the database read lock until
// released. Rows carry typed values (see ColInfo), not rendered strings.
//
// The lock is released by Close, or automatically when the stream ends
// (exhaustion or error). A Cursor is not safe for concurrent use.
type Cursor struct {
	db   *DB
	plan *planner.Plan
	cols []ColInfo

	// Aggregation mode.
	rows     exec.RowIter
	groupPos []int // per select item: index into Row.Vals, -1 for aggregates

	// Projection mode.
	tuples exec.TupleIter
	tupIdx []int // per select item: column index into the scan tuple

	// Text mode (EXPLAIN): the cursor streams pre-rendered lines through
	// a single "QUERY PLAN" column and holds no database lock.
	text    bool
	lines   []string
	lineIdx int
	noLock  bool

	// Observability state, wired by queryContext. All nil-safe.
	obs     *obs.Observer
	trace   *obs.Trace
	execSp  *obs.Span
	node    *obs.TraceNode
	sql     string
	qid     string
	start   time.Time
	rowsOut int64

	// Introspection state: the statement fingerprint, its normalized
	// text, and the activity-registry token. fp == 0 with norm == ""
	// means stats are disabled for this query.
	fp   uint64
	norm string
	act  int64

	// cancel releases the statement-timeout context (if any) when the
	// stream ends.
	cancel context.CancelFunc

	released bool
	closed   bool
}

// newCursor builds and opens the iterator pipeline for a planned query.
// The caller holds db.mu.RLock; on error the caller releases it.
func newCursor(ctx context.Context, db *DB, plan *planner.Plan) (*Cursor, error) {
	c := &Cursor{db: db, plan: plan}
	var schema *tuple.Schema
	if plan.Mem != nil {
		schema = plan.Mem.Schema
	} else {
		t, err := db.table(plan.Query.Table)
		if err != nil {
			return nil, err
		}
		schema = t.Schema
	}
	if plan.IsProjection() {
		// The planner already validated the projection columns.
		cols := plan.Query.ProjColumns(schema)
		c.tupIdx = make([]int, len(cols))
		for i, name := range cols {
			j := schema.ColumnIndex(name)
			c.tupIdx[i] = j
			c.cols = append(c.cols, ColInfo{Name: name, Type: schema.Column(j).Type})
		}
		it, err := plan.TupleIterator(ctx)
		if err != nil {
			return nil, err
		}
		if err := it.Open(); err != nil {
			_ = it.Close() // the Open error is the one worth reporting
			return nil, err
		}
		c.tuples = it
		return c, nil
	}

	// Aggregation mode: column metadata follows the select list; group-by
	// values are located by their position in the group key.
	groupIdx := map[string]int{}
	for i, g := range plan.Query.GroupBy {
		groupIdx[strings.ToUpper(g)] = i
	}
	c.groupPos = make([]int, len(plan.Query.Items))
	for i, it := range plan.Query.Items {
		if it.IsAgg {
			c.groupPos[i] = -1
			c.cols = append(c.cols, ColInfo{Name: it.Agg.Name, Type: tuple.TFloat64, IsAgg: true})
			continue
		}
		c.groupPos[i] = groupIdx[it.Col]
		j := schema.ColumnIndex(it.Col)
		if j < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in select list", it.Col)
		}
		c.cols = append(c.cols, ColInfo{Name: it.Col, Type: schema.Column(j).Type})
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
	return c, nil
}

// Columns returns the output column metadata.
func (c *Cursor) Columns() []ColInfo { return c.cols }

// Plan returns the executed physical plan (diagnostics).
func (c *Cursor) Plan() *planner.Plan { return c.plan }

// Stats returns the merged scan statistics of the executed plan — bucket
// grading counts and heap pages read, folded across all partition workers
// for parallel plans — and whether the plan tracks any. For aggregation
// queries the stats are complete as soon as the cursor exists; for
// projections they are complete when the stream ends.
func (c *Cursor) Stats() (exec.ScanStats, bool) {
	if c.plan == nil {
		return exec.ScanStats{}, false
	}
	return c.plan.ScanStats()
}

// TraceNode returns the finished execution trace of the query. It is
// available once the stream has ended (exhaustion, error, or Close) and
// nil when the query was not traced (see WithTrace). A cancelled or
// failed query yields a well-formed partial trace.
func (c *Cursor) TraceNode() *obs.TraceNode { return c.node }

// QueryID returns the query's observability id ("" when the database has
// no observer and the context carried none).
func (c *Cursor) QueryID() string { return c.qid }

// Next returns the next result row as typed values (see ColInfo), or
// ok=false at end of stream or on error. The returned slice is reused
// across calls in projection mode only for its backing tuple memory — the
// values themselves are plain Go scalars safe to retain. When the stream
// ends (ok=false), the database read lock is released; Close afterwards is
// a no-op.
func (c *Cursor) Next() (row []any, ok bool, err error) {
	// Panic boundary: a panic in the iterator pipeline ends the stream
	// with a typed error (releasing the read lock) instead of unwinding
	// into the caller — one poisoned query must not take down a server.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		c.logPanic(r)
		row, ok = nil, false
		func() {
			defer func() { _ = recover() }() // cleanup of a broken pipeline may panic again
			_ = c.finish()
		}()
		err = fmt.Errorf("%w: %v", ErrStatementPanic, r)
	}()
	if c.released {
		return nil, false, nil
	}
	if c.text {
		if c.lineIdx >= len(c.lines) {
			return nil, false, c.finish()
		}
		line := c.lines[c.lineIdx]
		c.lineIdx++
		return []any{line}, true, nil
	}
	if c.tuples != nil {
		t, ok, err := c.tuples.Next()
		if err != nil || !ok {
			if cerr := c.finish(); err == nil {
				err = cerr
			}
			return nil, false, err
		}
		out := make([]any, len(c.tupIdx))
		for i, j := range c.tupIdx {
			out[i] = tupleValue(t, j)
		}
		c.rowsOut++
		return out, true, nil
	}
	r, ok, err := c.rows.Next()
	if err != nil || !ok {
		if cerr := c.finish(); err == nil {
			err = cerr
		}
		return nil, false, err
	}
	out := make([]any, len(c.cols))
	for i, ci := range c.cols {
		if ci.IsAgg {
			continue // filled below, in aggregate order
		}
		gv := r.Vals[c.groupPos[i]]
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
	for i, ci := range c.cols {
		if ci.IsAgg {
			out[i] = r.Aggs[aggIdx]
			aggIdx++
		}
	}
	c.rowsOut++
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

// finish closes the iterator and releases the read lock exactly once,
// returning the iterator's close error (if any). It is also the single
// point where a query's observability state settles: the execute span
// ends, the trace finishes into its node tree, the engine metric
// families absorb the final stats, and the query is logged.
func (c *Cursor) finish() error {
	if c.released {
		return nil
	}
	c.released = true
	var err error
	if c.tuples != nil {
		err = c.tuples.Close()
	}
	if c.rows != nil {
		if cerr := c.rows.Close(); err == nil {
			err = cerr
		}
	}
	c.finishObs(err)
	if c.cancel != nil {
		c.cancel()
	}
	if !c.noLock {
		c.db.mu.RUnlock()
	}
	return err
}

// logPanic records a cursor panic with its stack before the stream is
// torn down.
func (c *Cursor) logPanic(r any) {
	if o := c.obs; o != nil {
		o.Logger().Error("query panic mid-stream", "qid", c.qid, "err", fmt.Sprint(r), "sql", c.sql)
	}
}

// finishObs settles the cursor's observability state; see finish.
func (c *Cursor) finishObs(err error) {
	c.execSp.End()
	if n := c.trace.Finish(); n != nil {
		c.node = n
	}
	o := c.obs
	if o == nil {
		return
	}
	dur := time.Since(c.start)
	strat := c.plan.StrategyName()
	if st := o.Stats; st != nil && c.norm != "" {
		st.EndActivity(c.act)
		c.recordQueryStats(st, err, strat, dur)
	}
	em := o.Engine
	em.Queries.With(strat).Inc()
	em.QuerySeconds.With(strat).ObserveDuration(dur)
	em.Rows.Add(c.rowsOut)
	var q, d, a int64
	if st, ok := c.plan.ScanStats(); ok {
		em.PagesRead.Add(int64(st.PagesRead))
		q, d, a = int64(st.Qualifying), int64(st.Disqualifying), int64(st.Ambivalent)
		em.Buckets.With("qualify").Add(q)
		em.Buckets.With("disqualify").Add(d)
		em.Buckets.With("ambivalent").Add(a)
		if graded := q + d + a; graded > 0 {
			em.AmbivalentShare.Observe(float64(a) / float64(graded))
		}
	}
	// The log record is built only for a logger that will take it: most
	// statements are neither slow nor logged at debug level.
	level, msg := slog.LevelDebug, "query"
	if o.Slow > 0 && dur >= o.Slow {
		em.SlowQueries.Inc()
		level, msg = slog.LevelWarn, "slow query"
	}
	log := o.Logger()
	if !log.Enabled(context.Background(), level) {
		return
	}
	attrs := []any{
		"qid", c.qid, "strategy", strat, "dur", dur, "rows", c.rowsOut,
		"buckets", fmt.Sprintf("%d/%d/%d", q, d, a),
	}
	if err != nil {
		attrs = append(attrs, "err", err)
	}
	if level == slog.LevelWarn {
		attrs = append(attrs, "sql", c.sql)
	}
	log.Log(context.Background(), level, msg, attrs...)
}

// Close releases the cursor's resources and the database read lock. Close
// is idempotent and safe after the stream has ended.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.finish()
}

// QueryContext parses, plans, and begins executing a SELECT, returning a
// streaming cursor. The database read lock is held from here until the
// cursor is closed (or exhausted), so concurrent DDL and data modification
// cannot mutate SMA vectors mid-query (parallel partition workers read
// under the same lock). The context is threaded into the scan operators
// and checked on every bucket/page: cancelling it makes QueryContext (or a
// subsequent Next) fail with the context's error, and under parallelism
// the first failing worker cancels its siblings the same way.
func (db *DB) QueryContext(ctx context.Context, sql string, opts ...QueryOption) (*Cursor, error) {
	if inner, analyze, isExplain := parser.SplitExplain(sql); isExplain {
		return db.explainContext(ctx, inner, analyze, opts...)
	}
	return db.queryContext(ctx, sql, opts...)
}

// queryContext is QueryContext for a plain SELECT.
func (db *DB) queryContext(ctx context.Context, sql string, opts ...QueryOption) (cur *Cursor, err error) {
	// Panic boundary, registered first so it runs after the lock-release
	// defer below during an unwind: a panicking plan or pipeline Open
	// becomes an error, not a downed process.
	defer db.recoverQueryPanic(sql, &err)
	if ctx == nil {
		ctx = context.Background()
	}
	var cancel context.CancelFunc
	if d := db.opts.StatementTimeout; d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	if err := ctx.Err(); err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	start := time.Now()
	o := db.opts.Obs
	var qid string
	if o != nil {
		// Prefer an id the serving layer already stamped on the context so
		// engine and request logs correlate.
		if qid = obs.QueryIDFrom(ctx); qid == "" {
			qid = o.NextQueryID()
		}
	}
	var tr *obs.Trace
	if cfg.trace {
		tr = obs.NewTrace(qid, sql)
	}
	// Register the in-flight statement before planning so the activity
	// table's own snapshot — materialized at plan time — includes the
	// query that is reading it.
	var fp uint64
	var norm string
	var act int64
	st := db.statsC()
	if st != nil {
		fp, norm = db.fingerprint(sql)
		act = st.BeginActivity("query", sql, fp)
	}
	db.mu.RLock()
	ok := false
	defer func() {
		if !ok {
			db.mu.RUnlock()
			st.EndActivity(act)
			tr.Finish() // release pooled spans of a failed query
			if cancel != nil {
				cancel()
			}
		}
	}()
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	plan, err := db.planTracedLocked(sql, tr)
	if err != nil {
		o.Logger().Warn("query rejected", "qid", qid, "err", err, "sql", sql)
		return nil, err
	}
	if cfg.dop > 0 {
		plan.DOP = db.pl.ChooseDOP(plan, cfg.dop)
	}
	if cfg.batch != nil {
		plan.Exec.BatchSize = *cfg.batch
	}
	plan.Span = tr.Root().Child("execute")
	c, err := newCursor(ctx, db, plan)
	if err != nil {
		o.Logger().Warn("query failed", "qid", qid, "err", err, "sql", sql)
		return nil, err
	}
	c.obs, c.trace, c.execSp = o, tr, plan.Span
	c.sql, c.qid, c.start = sql, qid, start
	c.cancel = cancel
	c.fp, c.norm, c.act = fp, norm, act
	ok = true
	return c, nil
}

// explainContext implements EXPLAIN and EXPLAIN ANALYZE. Plain EXPLAIN
// plans the inner query and streams the plan description. EXPLAIN
// ANALYZE runs the query to completion with tracing forced on and
// streams the plan description followed by the rendered span tree with
// per-operator timings and counters; the cursor's Stats and TraceNode
// reflect the real execution.
func (db *DB) explainContext(ctx context.Context, inner string, analyze bool, opts ...QueryOption) (*Cursor, error) {
	if !analyze {
		db.mu.RLock()
		if err := db.checkOpen(); err != nil {
			db.mu.RUnlock()
			return nil, err
		}
		plan, err := db.planLocked(inner)
		db.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		return newTextCursor(db, plan, strings.Split(plan.Explain(), "\n"), nil), nil
	}
	cur, err := db.queryContext(ctx, inner, append(opts, WithTrace(true))...)
	if err != nil {
		return nil, err
	}
	for {
		_, more, err := cur.Next()
		if err != nil {
			_ = cur.Close()
			return nil, err
		}
		if !more {
			break
		}
	}
	node := cur.TraceNode()
	lines := strings.Split(cur.plan.Explain(), "\n")
	lines = append(lines, "")
	lines = append(lines, strings.Split(strings.TrimRight(node.Render(), "\n"), "\n")...)
	return newTextCursor(db, cur.plan, lines, node), nil
}

// newTextCursor builds a lock-free cursor streaming pre-rendered lines
// through a single QUERY PLAN column.
func newTextCursor(db *DB, plan *planner.Plan, lines []string, node *obs.TraceNode) *Cursor {
	return &Cursor{
		db:   db,
		plan: plan,
		cols: []ColInfo{{Name: "QUERY PLAN", Type: tuple.TChar}},
		text: true, lines: lines, noLock: true,
		node: node,
	}
}
