// Package sma is the public face of the library: an embedded warehouse
// engine built on Small Materialized Aggregates (Moerkotte, VLDB '98).
// It owns an on-disk catalog, tables, and SMAs, and runs SQL through an
// SMA-aware planner that answers selective aggregate queries mostly from
// the SMA-files instead of the relation's pages.
//
// Typical use:
//
//	db, _ := sma.Open(dir)
//	defer db.Close()
//	db.Exec(`create table SALES (SALE_DATE date, REGION char(1), AMOUNT float64)`)
//	tbl, _ := db.Table("SALES")
//	tbl.Append(sma.DateOf(2020, 1, 2), "N", 129.95)
//	db.Exec(`define sma amt select sum(AMOUNT) from SALES group by REGION`)
//	rows, _ := db.QueryContext(ctx, `select REGION, sum(AMOUNT) as REV from SALES
//	    where SALE_DATE <= date '2020-03-31' group by REGION`)
//	defer rows.Close()
//	for rows.Next() {
//	    var region string
//	    var rev float64
//	    rows.Scan(&region, &rev)
//	}
//
// Queries stream: QueryContext returns a cursor that pulls from the
// exec-layer iterator pipeline one row at a time, carrying typed values
// (int64, float64, string, Date) rather than rendered strings. The
// database read lock is held while a projection's cursor is open and
// released on Close (or when the stream ends), so hold cursors briefly and
// never run DDL on the same goroutine before closing an open cursor; an
// aggregation computes its rows inside QueryContext and releases the lock
// before it returns. Cancelling the
// query's context aborts scans at the next bucket or page boundary.
//
// Below the cursor there is one execution pipeline: operators exchange
// tuple batches, and rows appear only at the cursor's edge. A serial query
// runs that pipeline inline over the whole table, a parallel one runs it
// once per partition and merges; a projection streams from one-page
// batches, so an open cursor pins no buffer-pool page between Next calls.
package sma

import (
	"context"
	"io"
	"log/slog"
	"time"

	"sma/internal/engine"
	"sma/internal/obs"
	"sma/internal/storage"
	"sma/internal/wal"
)

// openConfig collects Open options: the engine knobs plus the
// observability configuration the Observer is built from.
type openConfig struct {
	eng    engine.Options
	logger *slog.Logger
	slow   time.Duration
}

// Option configures an engine instance; pass options to Open.
type Option func(*openConfig)

// WithPoolPages sets the buffer pool capacity per table in pages
// (default 2048 pages = 8 MB, the paper's intertransaction buffer size).
func WithPoolPages(n int) Option {
	return func(o *openConfig) { o.eng.PoolPages = n }
}

// WithBucketPages sets the SMA bucket granularity for new tables in pages
// (default 1 page, the paper's default).
func WithBucketPages(n int) Option {
	return func(o *openConfig) { o.eng.BucketPages = n }
}

// WithCheckpointBytes sets the redo-log size that triggers a checkpoint
// — flushing every table and truncating the log (default 8 MB). Smaller
// values bound recovery time; larger ones batch more work per
// checkpoint.
func WithCheckpointBytes(n int64) Option {
	return func(o *openConfig) { o.eng.CheckpointBytes = n }
}

// WithReadLatency simulates per-page disk read latency; useful for
// benchmarks that reproduce the paper's disk model.
func WithReadLatency(d time.Duration) Option {
	return func(o *openConfig) { o.eng.ReadLatency = d }
}

// WithBatchSize sets the tuples-per-batch target of the read path; n <= 0
// means the default (1024 tuples). The operators decode each heap page
// into a reusable batch once, evaluate the predicate as a tight loop
// producing a selection vector, and fold aggregates per batch instead of
// per tuple. Projections stream from one-page batches whatever n is, so
// LIMIT stops reading at page granularity.
func WithBatchSize(n int) Option {
	return func(o *openConfig) { o.eng.BatchSize = n }
}

// WithPrefetchWindow sets the number of pages of SMA-guided asynchronous
// readahead per scan (n = 0, the default, reads two batches ahead, at least
// 16 pages). Because bucket grading computes the
// exact surviving page set before the first page access, the prefetcher
// never reads a page the query will skip; it stays at most n pages ahead
// of the cursor and is derated per worker under parallelism. Passing a
// negative n disables prefetch.
func WithPrefetchWindow(n int) Option {
	return func(o *openConfig) { o.eng.PrefetchWindow = n }
}

// WithParallelism sets the default degree of intra-query parallelism for
// aggregation queries: buckets are pre-graded with the selection SMAs,
// disqualified buckets are dropped, and the survivors are split into n
// page-balanced partitions, each executed by its own worker; the partial
// aggregates merge into one deterministic, sorted result. 0 or 1 executes
// serially (the default); runtime.NumCPU() is a good value for CPU-bound
// workloads. Individual queries can override it with WithQueryParallelism.
func WithParallelism(n int) Option {
	return func(o *openConfig) { o.eng.Parallelism = n }
}

// WithLogger attaches a structured logger: the engine logs every query
// at Debug with its query id, strategy, duration, row count, and bucket
// grading, and slow queries at Warn (see WithSlowQueryLog). Without a
// logger the records are discarded but metrics still accumulate.
func WithLogger(l *slog.Logger) Option {
	return func(o *openConfig) { o.logger = l }
}

// WithSlowQueryLog sets the slow-query threshold: queries whose total
// wall time (parse to cursor close) reaches d are logged at Warn with
// their full SQL and counted in sma_engine_slow_queries_total. 0 (the
// default) disables the slow-query log.
func WithSlowQueryLog(d time.Duration) Option {
	return func(o *openConfig) { o.slow = d }
}

// WithScrubInterval starts a background scrubber that verifies every
// page checksum and SMA file each interval, paced so a pass never
// monopolizes the disk. Corruption found by the scrubber quarantines the
// page and degrades the database exactly as a query hitting it would —
// the scrubber just finds it first. 0 (the default) disables scrubbing.
func WithScrubInterval(d time.Duration) Option {
	return func(o *openConfig) { o.eng.ScrubInterval = d }
}

// WithUnsafeCrash arms DB.Crash, the test-only kill switch that abandons
// the database without checkpointing. Without this option Crash returns
// an error, so a production embedder cannot reach it by accident.
func WithUnsafeCrash() Option {
	return func(o *openConfig) { o.eng.AllowUnsafeCrash = true }
}

// QueryOption adjusts the execution of a single query; pass options to
// QueryContext.
type QueryOption = engine.QueryOption

// WithQueryParallelism overrides the database's degree of parallelism for
// one query: 1 forces serial execution, n > 1 requests n partition workers
// (capped by the work the plan dispatches), 0 keeps the database default.
func WithQueryParallelism(n int) QueryOption { return engine.WithDOP(n) }

// WithQueryTrace renders one query's statement record as a trace: the
// phases parse → plan → grade → scan → fold (or merge, with one row per
// parallel worker) → stream, each carrying its exclusive wall time, rows,
// pages, and the paper's qualify/disqualify/ambivalent grading counts. The
// tree is available from Rows.Trace once the stream ends. Every query keeps
// the phase clock — a few clock reads per statement and two per batch — so
// tracing costs only the tree, built once when the statement ends.
func WithQueryTrace() QueryOption { return engine.WithTrace(true) }

// DB is an embedded warehouse instance rooted at a directory. A DB is safe
// for concurrent use: queries hold a read lock while they read pages (a
// projection until its cursor is closed or drained), DDL and data
// modification take the write lock.
type DB struct {
	eng *engine.DB
}

// Open opens (or initializes) a database directory. Every database keeps
// the statement record: it carries a metrics registry (rendered by
// WritePrometheus), the sma_stat_* tables and per-query ids; attach
// WithLogger for structured logs.
func Open(dir string, opts ...Option) (*DB, error) {
	var cfg openConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.eng.Obs = obs.NewObserver(obs.Config{Logger: cfg.logger, SlowQuery: cfg.slow})
	eng, err := engine.Open(dir, cfg.eng)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}

// WritePrometheus renders every engine-side metric family — queries by
// strategy, grading outcomes, buffer pool activity, storage latency
// histograms, parallel skew/utilization — in Prometheus text exposition
// format. It is the one source of the sma_pool_* families.
func (db *DB) WritePrometheus(w io.Writer) error { return db.eng.WritePrometheus(w) }

// TraceNode is one node of a query trace — the query, one of its phases, or
// a parallel worker under merge — with its wall time and row/page/bucket
// counters. Rows.Trace returns the root after a traced query finishes;
// TraceNode.Render prints the tree EXPLAIN ANALYZE style.
type TraceNode = obs.TraceNode

// Dir returns the database directory.
func (db *DB) Dir() string { return db.eng.Dir() }

// Close flushes and closes every table, persisting its heap pages and SMAs.
// Close is idempotent: a second call is a no-op. Close blocks until open
// projection cursors release their read locks.
func (db *DB) Close() error { return db.eng.Close() }

// Tables returns a catalog snapshot: every table in name order with its
// schema, live row count, heap size, and defined SMAs, taken under one
// read lock so it never races DDL. It is the inspection surface CLIs and
// the query server's /status endpoint report from, so tools never reach
// into engine internals.
func (db *DB) Tables() []TableInfo {
	cat := db.eng.Catalog()
	out := make([]TableInfo, len(cat))
	for i, c := range cat {
		out[i] = TableInfo{
			Name: c.Name, Columns: columns(c.Schema), Rows: c.Rows,
			Pages: c.Pages, Buckets: c.Buckets, BucketPages: c.BucketPages, SMAs: smaInfos(c.SMAs),
		}
	}
	return out
}

// PoolStats returns buffer pool activity counters summed across every
// table's pool: the database-wide I/O picture. The counters are
// cumulative since Open.
func (db *DB) PoolStats() PoolStats {
	s := db.eng.PoolStats()
	return PoolStats{
		Hits:         s.Hits,
		Misses:       s.Misses,
		Evictions:    s.Evictions,
		Prefetched:   s.Prefetched,
		PrefetchHits: s.PrefetchHits,
		Overflows:    s.Overflows,
	}
}

// RecoveryStats reports what crash recovery did when the database was
// opened: whether it ran at all, how many committed statements and
// operations were replayed from the redo log, page images restored,
// trailing garbage bytes discarded, uncommitted pages truncated, and
// SMAs rebuilt. The zero value means the previous shutdown was clean.
type RecoveryStats = engine.RecoveryStats

// WALStats is a point-in-time snapshot of redo-log activity: commits,
// fsyncs, group-commit waits shared with another statement's fsync,
// records and bytes appended, checkpoints, and the current file size.
type WALStats = wal.Stats

// RecoveryStats reports what recovery did when this database was opened.
func (db *DB) RecoveryStats() RecoveryStats { return db.eng.RecoveryStats() }

// WALStats snapshots the redo log's activity counters.
func (db *DB) WALStats() WALStats { return db.eng.WALStats() }

// Sync forces every statement committed so far onto stable storage. A
// SQL statement is durable when it returns (a group-committed fsync), but
// Table.Append does not wait for the fsync: a bulk load appends its rows
// and then calls Sync once.
func (db *DB) Sync() error { return db.eng.Sync() }

// Crash abandons the database without checkpointing or marking the
// directory clean, simulating a process kill: buffered redo is flushed,
// files close, and the next Open replays the log. It exists for
// crash-recovery tests and is disarmed unless the database was opened
// with WithUnsafeCrash; production code should call Close.
func (db *DB) Crash() error { return db.eng.Crash() }

// ErrDegraded marks a database that detected page corruption and fell
// back to read-only operation; errors.Is(db.Degraded(), ErrDegraded)
// and errors.Is on rejected writes both match it.
var ErrDegraded = engine.ErrDegraded

// ErrStatementPanic marks a statement that panicked inside the engine
// and was contained at the statement boundary.
var ErrStatementPanic = engine.ErrStatementPanic

// ScrubReport summarizes one verification pass over the database.
type ScrubReport = engine.ScrubReport

// CorruptPage identifies one quarantined page.
type CorruptPage = engine.CorruptPage

// IsCorrupt reports whether err (or anything it wraps) is a checksum
// failure: of a heap page — the typed error a query returns when it needed
// a quarantined page — or of the catalog or an SMA-file, which Open returns
// when it cannot rebuild the damaged file from the heap.
func IsCorrupt(err error) bool { return storage.IsCorrupt(err) }

// Scrub runs one verification pass now: every heap page checksum is
// verified, and the catalog and every SMA-file read back. Corrupt pages are quarantined and degrade the database; the report
// lists everything found.
func (db *DB) Scrub(ctx context.Context) (*ScrubReport, error) { return db.eng.Scrub(ctx) }

// Degraded returns nil on a healthy database, or an error wrapping
// ErrDegraded once page corruption has been detected. A degraded
// database rejects writes and keeps answering every read that can avoid
// the quarantined pages (SMA grades prove when a skipped page cannot
// affect a result).
func (db *DB) Degraded() error { return db.eng.Degraded() }

// CorruptPages lists every quarantined page in detection order.
func (db *DB) CorruptPages() []CorruptPage { return db.eng.CorruptPages() }

// LastScrub returns the most recent scrub report — from Scrub or the
// background scrubber — or nil if none ran yet.
func (db *DB) LastScrub() *ScrubReport { return db.eng.LastScrub() }

// Table returns a handle for an existing table.
func (db *DB) Table(name string) (*Table, error) {
	t, err := db.eng.Table(name)
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// QueryContext parses, plans, and begins executing a SELECT, returning a
// streaming cursor over typed values. The context is threaded into the
// scan operators and checked on every bucket/page: cancelling it aborts
// the query mid-flight with context.Canceled (or DeadlineExceeded); under
// parallel execution the first failing worker cancels its siblings the
// same way. The caller must Close the returned Rows to end the statement
// and, for a projection, release the read lock.
func (db *DB) QueryContext(ctx context.Context, query string, opts ...QueryOption) (*Rows, error) {
	cur, err := db.eng.QueryContext(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	return &Rows{cur: cur, cols: cur.Columns()}, nil
}

// Query is QueryContext with a background context.
func (db *DB) Query(query string, opts ...QueryOption) (*Rows, error) {
	return db.QueryContext(context.Background(), query, opts...)
}

// ExecContext runs a DDL or DML statement through the unified SQL
// entrypoint: "define sma", "drop sma <name> on <table>", "create table",
// "insert into <table> [(cols)] values (...), (...)", "update <table> set
// col = expr [, ...] [where ...]", and "delete from <table> [where ...]".
// DML maintains every SMA of the table by the paper's two rules: an
// INSERT extends the last bucket's entries in O(1) per row and SMA-file,
// and an UPDATE or DELETE refolds each bucket it wrote in once, at
// statement end, into every SMA of the table, so every SMA equals a fresh
// build bit for bit. The statement holds the write lock throughout, so
// concurrent queries — parallel ones included — never observe a
// half-applied statement.
func (db *DB) ExecContext(ctx context.Context, stmt string) (*ExecResult, error) {
	res, err := db.eng.ExecContext(ctx, stmt)
	if err != nil {
		return nil, err
	}
	out := &ExecResult{
		Kind: res.Kind, Table: res.Table, RowsAffected: res.RowsAffected,
		WALBytes: res.WALBytes, WALSyncs: res.WALSyncs,
	}
	if res.SMA != nil {
		out.SMAName = res.SMA.Def.Name
		out.SMABuckets = res.SMA.NumBuckets
		out.SMAFiles = res.SMA.NumFiles()
		out.SMAPages = res.SMA.PagesUsed()
	}
	return out, nil
}

// Exec is ExecContext with a background context.
func (db *DB) Exec(stmt string) (*ExecResult, error) {
	return db.ExecContext(context.Background(), stmt)
}

// ExecResult reports the effect of a non-SELECT statement.
type ExecResult struct {
	// Kind names the executed statement: "define sma", "drop sma",
	// "create table", "insert", "update", or "delete".
	Kind  string
	Table string
	// RowsAffected is the number of tuples inserted, updated, or removed
	// by a DML statement. An update or delete whose predicate matches no
	// tuple reports 0 without error.
	RowsAffected int64
	// SMAName, SMABuckets, SMAFiles, and SMAPages describe the SMA built
	// by a "define sma" statement.
	SMAName    string
	SMABuckets int
	SMAFiles   int
	SMAPages   int64
	// WALBytes is the size of the statement's own redo-log frame; WALSyncs
	// is 1 when it led the fsync that covered it, 0 when another did.
	WALBytes int64
	WALSyncs int64
}
