// Package engine implements the embedded warehouse engine behind the
// public root package sma: it owns the on-disk catalog, tables, and SMAs,
// and runs SQL through the SMA-aware planner. External programs import the
// root package sma; this package is the internal implementation layer the
// public API delegates to.
//
// Typical (internal) use:
//
//	db, _ := engine.Open(dir, engine.Options{})
//	tbl, _ := db.CreateTable("LINEITEM", tpcd.LineItemSchema().Columns())
//	... load tuples via tbl.Append ...
//	db.ExecContext(ctx, "define sma min select min(L_SHIPDATE) from LINEITEM")
//	cur, _ := db.QueryContext(ctx, "select count(*) from LINEITEM where L_SHIPDATE <= date '1998-09-02'")
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/obs"
	"sma/internal/parser"
	"sma/internal/planner"
	"sma/internal/storage"
	"sma/internal/tuple"
	"sma/internal/wal"
)

// Options configures an engine instance.
type Options struct {
	// PoolPages is the buffer pool capacity per table (default 2048 pages
	// = 8 MB, the paper's intertransaction buffer size).
	PoolPages int
	// BucketPages is the SMA bucket granularity for new tables (default 1
	// page, the paper's default).
	BucketPages int
	// ReadLatency simulates per-page disk read latency (0 = off).
	ReadLatency time.Duration
	// Parallelism is the default degree of intra-query parallelism for
	// aggregation queries: the number of partition workers that buckets
	// are divided across. 0 or 1 executes serially. Individual queries
	// can override it with the WithDOP query option.
	Parallelism int
	// BatchSize is the tuples-per-batch target of the read path; values
	// <= 0 mean the default (1024).
	BatchSize int
	// PrefetchWindow is the number of pages of SMA-guided asynchronous
	// readahead per scan (0, the default: two batches' worth, at least 16;
	// derated per worker under parallelism). Negative values disable
	// prefetch.
	PrefetchWindow int
	// Obs enables the observability subsystem: the unified metrics
	// registry, structured engine logs with per-query ids, the slow-query
	// log, and the statement-stats collector. The public sma.Open always
	// sets one; nil — the engine tests and the ledger's overhead baseline —
	// disables all of it at one pointer test per query. Tracing (EXPLAIN
	// ANALYZE, WithTrace) is per-query and works either way. An
	// Observer registers engine-wide metric families, so it must not be
	// shared by two open databases.
	Obs *obs.Observer
	// CheckpointBytes is the redo-log size that triggers a checkpoint
	// (flush everything, truncate the log) at the next statement boundary
	// (default 8 MB).
	CheckpointBytes int64
	// ScrubInterval starts a background scrubber that verifies every
	// heap page and SMA file at this cadence, paced so it cannot
	// monopolize the disk; 0 disables.
	ScrubInterval time.Duration
	// AllowUnsafeCrash arms DB.Crash, the simulated-process-kill switch
	// used by crash and chaos tests. Production openings leave it false,
	// making Crash an error — an operator (or a bug) cannot abandon a
	// live database through the API.
	AllowUnsafeCrash bool
}

func (o Options) withDefaults() Options {
	if o.PoolPages <= 0 {
		o.PoolPages = 2048
	}
	if o.BucketPages <= 0 {
		o.BucketPages = 1
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 8 << 20
	}
	return o
}

// Table is a stored relation with its SMAs.
type Table struct {
	Name        string
	Schema      *tuple.Schema
	Heap        *storage.HeapFile
	BucketPages int

	db   *DB
	disk *storage.DiskManager
	pool *storage.BufferPool
	smas map[string]*core.SMA
	// smaDirty records that maintenance or a rebuild has changed the
	// in-memory SMA vectors since they were loaded or saved, so the next
	// persistLocked must save them. Guarded by db.mu like the rest of the
	// table state.
	smaDirty bool
	// maintFault, when non-nil, is consulted before each SMA's append-run
	// hook or statement-end refold; crash tests use it to fail maintenance
	// at a precise point. Guarded by db.mu.
	maintFault func() error
}

// recordMaint credits every SMA of t with the maintenance hooks of rows
// heap mutations. The statement journal tallies its rows and calls it once
// when it ends (an aborted statement reports the rows it reached), so the
// statistics collector is not visited per row per SMA.
func (t *Table) recordMaint(rows int) {
	c := t.db.statsC()
	for name := range t.smas {
		c.RecordMaint(t.Name, name, int64(rows))
	}
}

// DB is an embedded warehouse instance rooted at a directory. A DB is safe
// for concurrent use: queries take a read lock, while DDL and data
// modifications (which mutate SMA vectors in place) take the write lock.
type DB struct {
	mu     sync.RWMutex
	dir    string
	opts   Options
	tables map[string]*Table
	pl     *planner.Planner
	lock   *dirLock
	wal    *wal.Log
	closed bool
	// failed poisons the database after a rollback or log append failed:
	// the in-memory state may no longer match what recovery would
	// reconstruct, so writes are refused until the directory is reopened.
	failed error
	// recovery records what Open's crash recovery did (zero when the
	// previous shutdown was clean).
	recovery RecoveryStats

	// Degraded-mode state, guarded by degMu (never db.mu: the buffer
	// pools' corruption callback fires under fetch paths that may hold
	// db.mu in read mode).
	degMu    sync.Mutex
	degErr   error
	degPages []CorruptPage

	// Background scrubber lifecycle and last published report.
	scrubCancel func()
	scrubDone   chan struct{}
	scrubMu     sync.Mutex
	lastScrub   *ScrubReport

	// stmts is the statement cache: the raw SQL of a read, up to
	// stmtCacheMaxLen bytes, to its fingerprint and normal form, parsed
	// query, plan template and per-SMA attribution, at most stmtCacheMax
	// entries. A repeated read skips the normalizing lex and the parse
	// always, and planning and grading while the entry's epoch is current.
	// Exec statements are not stored (a load's unique INSERT texts would
	// only churn the map), nor plans over virtual tables, which scan a
	// snapshot taken at plan time.
	stmts stmtCache
	// epoch counts the changes that can make a plan template or an
	// attribution stale: every write statement (beginStmt, so rollbacks
	// and Table.Append too), CREATE TABLE and SMA DDL bump it under the
	// write lock; readers compare it under the read lock. A template's
	// AggSMAs and its binding's SMA-files hold only while it stands still,
	// so nothing may replace an SMA or add an SMA-file without moving it:
	// maintenance, refolds and repairSMAs' rebuild run inside a statement
	// beginStmt counted, and the rebuilds of Open (a damaged SMA-file,
	// recovery) run before any plan exists.
	epoch uint64
}

// Open opens (or initializes) a database directory. Open takes an
// exclusive advisory lock on the directory's LOCK sentinel and fails when
// another live process (or another open DB in this one) already holds it,
// so two engines can never maintain the same SMA-files concurrently.
//
// A non-empty sentinel means the previous session never completed a clean
// Close; Open then replays the redo log's committed prefix into the heaps,
// drops uncommitted page allocations, and rebuilds affected SMA vectors
// before the database accepts work (see RecoveryStats). Open finishes by
// starting a fresh log whose header records the now-durable page counts.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: open %s: %w", dir, err)
	}
	lock, wasUnclean, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, opts: opts, tables: make(map[string]*Table), pl: planner.New(), lock: lock,
		stmts: stmtCache{max: stmtCacheMax}}
	db.pl.DOP = opts.Parallelism
	db.pl.Exec = exec.ExecOptions{
		BatchSize:      opts.BatchSize,
		PrefetchWindow: opts.PrefetchWindow,
	}
	db.registerPoolMetrics()
	fail := func(err error) (*DB, error) {
		if rerr := lock.release(); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return nil, err
	}
	if err := db.loadCatalog(); err != nil {
		return fail(err)
	}
	if wasUnclean {
		// Replay may legitimately read a torn page before the full-page
		// image that heals it is applied, so checksum verification is
		// off for the duration; everything replay touches is rewritten
		// and restamped on its flush.
		for _, t := range db.tables {
			t.pool.SetVerifyReads(false)
		}
		if err := db.recoverLocked(); err != nil {
			return fail(err)
		}
		for _, t := range db.tables {
			t.pool.SetVerifyReads(true)
		}
	} else if err := db.loadDeletedLocked(); err != nil {
		return fail(err)
	}
	w, err := wal.Create(db.walPath(), db.tableStatesLocked(), wal.Grouped())
	if err != nil {
		return fail(err)
	}
	db.wal = w
	for _, t := range db.tables {
		t.pool.SetWriteBackHook(&walHook{log: w, table: t.Name})
	}
	db.registerWALMetrics()
	if opts.ScrubInterval > 0 {
		db.startScrubber()
	}
	return db, nil
}

// loadDeletedLocked gives every table, on a clean Open, the deleted-record
// count the last Close wrote into the log's checkpoint header. A directory
// with no log (a new one) has its pages counted. A log of an older format
// fails the Open: its heap pages are of another layout.
func (db *DB) loadDeletedLocked() error {
	states, err := wal.ReadHeader(db.walPath())
	if errors.Is(err, fs.ErrNotExist) {
		for _, t := range db.tables {
			if err := t.Heap.Recount(); err != nil {
				return err
			}
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("engine: open %s: %w", db.dir, err)
	}
	for _, s := range states {
		if t, ok := db.tables[s.Name]; ok {
			t.Heap.SetDeleted(s.Deleted)
		}
	}
	return nil
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// WritePrometheus renders the engine-side metric families (engine,
// storage, parallel, and buffer-pool) in Prometheus text exposition
// format. With observability disabled it writes nothing.
func (db *DB) WritePrometheus(w io.Writer) error {
	if db.opts.Obs == nil {
		return nil
	}
	return db.opts.Obs.Reg.WritePrometheus(w)
}

// registerPoolMetrics registers the database-wide buffer-pool counters
// as callback families: they sample PoolStats (a lock-free fold over the
// per-table atomic counters) at render time, replacing the serving
// layer's hand-rendered exposition.
func (db *DB) registerPoolMetrics() {
	o := db.opts.Obs
	if o == nil {
		return
	}
	sample := func(f func(storage.PoolStats) int64) func() float64 {
		return func() float64 { return float64(f(db.PoolStats())) }
	}
	o.Reg.CounterFunc("sma_pool_hits_total",
		"Buffer pool requests satisfied without disk I/O.",
		sample(func(s storage.PoolStats) int64 { return s.Hits }))
	o.Reg.CounterFunc("sma_pool_misses_total",
		"Buffer pool requests that required a physical read.",
		sample(func(s storage.PoolStats) int64 { return s.Misses }))
	o.Reg.CounterFunc("sma_pool_evictions_total",
		"Buffer pool frames written back or recycled.",
		sample(func(s storage.PoolStats) int64 { return s.Evictions }))
	o.Reg.CounterFunc("sma_pool_prefetched_total",
		"Physical reads issued by SMA-guided prefetchers.",
		sample(func(s storage.PoolStats) int64 { return s.Prefetched }))
	o.Reg.CounterFunc("sma_pool_prefetch_hits_total",
		"Demand fetches that landed on a prefetched frame.",
		sample(func(s storage.PoolStats) int64 { return s.PrefetchHits }))
	o.Reg.CounterFunc("sma_storage_corrupt_pages",
		"Pages quarantined after failing checksum verification.",
		sample(func(s storage.PoolStats) int64 { return s.CorruptPages }))
}

// Close checkpoints and closes every table: heap pages (with their delete
// marks) are flushed and fsynced, incrementally-maintained SMA vectors are
// saved, and the redo log is truncated to a header of each table's page
// and deleted-record counts. Only when every step succeeded is
// the directory marked clean; any failure leaves the dirty marker in
// place so the next Open replays the log instead of trusting partially-
// written files. Close is idempotent: a second call is a no-op and
// returns nil. Close blocks until open streaming cursors release their
// read locks.
func (db *DB) Close() error {
	// Stop the background scrubber before taking the write lock: a
	// running pass holds the read lock and exits on cancellation.
	db.stopScrubber()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if db.failed != nil {
		firstErr = fmt.Errorf("engine: closing failed database (reopen to recover): %w", db.failed)
	} else if db.wal != nil {
		record(db.checkpointLocked())
	}
	if db.wal != nil {
		record(db.wal.Close())
	}
	for _, t := range db.tables {
		record(t.disk.Close())
	}
	if firstErr == nil {
		record(db.lock.markClean())
	}
	record(db.lock.release())
	return firstErr
}

// checkOpen rejects operations on a closed database; callers hold db.mu.
func (db *DB) checkOpen() error {
	if db.closed {
		return fmt.Errorf("engine: database is closed")
	}
	return nil
}

// tablePath returns the page-file path of a table.
func (db *DB) tablePath(name string) string {
	return filepath.Join(db.dir, strings.ToLower(name)+".tbl")
}

// smaDir returns the SMA-file directory of a table.
func (db *DB) smaDir(table string) string {
	return filepath.Join(db.dir, "smas", strings.ToLower(table))
}

// openTable wires up the storage stack for a table.
func (db *DB) openTable(name string, schema *tuple.Schema, bucketPages int) (*Table, error) {
	dm, err := storage.OpenDiskManager(db.tablePath(name))
	if err != nil {
		return nil, err
	}
	if db.opts.ReadLatency > 0 {
		dm.SetReadLatency(db.opts.ReadLatency)
	}
	pool := storage.NewBufferPool(dm, db.opts.PoolPages)
	if db.opts.Obs != nil {
		pool.SetObs(db.opts.Obs.Storage)
	}
	heap, err := storage.NewHeapFile(pool, schema, bucketPages)
	if err != nil {
		dm.Close()
		return nil, err
	}
	t := &Table{
		Name: strings.ToUpper(name), Schema: schema, Heap: heap,
		BucketPages: bucketPages, db: db, disk: dm, pool: pool,
		smas: make(map[string]*core.SMA),
	}
	if db.wal != nil {
		pool.SetWriteBackHook(&walHook{log: db.wal, table: t.Name})
	}
	pool.SetCorruptionHandler(func(id storage.PageID) { db.noteCorruption(t.Name, id) })
	db.tables[t.Name] = t
	return t, nil
}

// CreateTable creates a new table and persists the catalog.
func (db *DB) CreateTable(name string, cols []tuple.Column) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	if err := db.checkFailed(); err != nil {
		return nil, err
	}
	key := strings.ToUpper(name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("engine: table %s already exists", key)
	}
	schema, err := tuple.NewSchema(cols)
	if err != nil {
		return nil, err
	}
	t, err := db.openTable(key, schema, db.opts.BucketPages)
	if err != nil {
		return nil, err
	}
	db.epoch++
	if err := db.saveCatalog(); err != nil {
		return nil, err
	}
	return t, nil
}

// table resolves a table without locking; callers hold db.mu.
func (db *DB) table(name string) (*Table, error) {
	t, ok := db.tables[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// Table returns a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.table(name)
}

// tableNames lists names without locking; callers hold db.mu.
func (db *DB) tableNames() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Append adds a tuple and maintains every SMA of the table: a one-row
// statement on INSERT's append path (appendRows), unrecorded. The append is
// atomic — a failed maintenance hook rolls the heap back — and is redo-
// logged but NOT waited on: the raw table API is the bulk-load path, so a
// loader appends its rows and then calls DB.Sync once (or Close, whose
// checkpoint syncs). A later SQL statement's fsync covers them too.
func (t *Table) Append(tp tuple.Tuple) (storage.RID, error) {
	db := t.db
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return storage.RID{}, err
	}
	if err := t.checkWidth(tp); err != nil {
		return storage.RID{}, err
	}
	rid, _, err := db.appendRows(context.Background(), t, tp.Data)
	return rid, err
}

// checkWidth rejects a tuple whose width is not the table's record size.
func (t *Table) checkWidth(tp tuple.Tuple) error {
	if len(tp.Data) != t.Schema.RecordSize() {
		return fmt.Errorf("engine: tuple of %d bytes appended to %s, whose records have %d",
			len(tp.Data), t.Name, t.Schema.RecordSize())
	}
	return nil
}

// VerifySMA recomputes one SMA from the heap and compares it against the
// maintained state.
func (t *Table) VerifySMA(name string) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	s, ok := t.smas[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("engine: no sma %s on %s", name, t.Name)
	}
	return s.Verify(t.Heap)
}

// SMAs returns the table's SMAs in name order without locking: callers
// hold db.mu, or own the database alone. Catalog and SMAInfos are the
// locked views.
func (t *Table) SMAs() []*core.SMA {
	names := make([]string, 0, len(t.smas))
	for n := range t.smas {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*core.SMA, len(names))
	for i, n := range names {
		out[i] = t.smas[n]
	}
	return out
}

// TableInfo is one table's catalog entry: schema, size and SMAs.
type TableInfo struct {
	Name   string
	Schema *tuple.Schema
	// Rows is the live record count (deleted tuples excluded); -1 when the
	// count failed with an I/O error.
	Rows        int64
	Pages       int64
	Buckets     int
	BucketPages int
	SMAs        []SMAInfo
}

// SMAInfo describes one SMA of a table.
type SMAInfo struct {
	Name string
	// SQL is the defining DDL ("define sma ... select ... from ...").
	SQL     string
	Files   int
	Pages   int64
	Buckets int
}

// Catalog snapshots every table in name order under one read lock, so no
// entry races DDL or a write statement.
func (db *DB) Catalog() []TableInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]TableInfo, 0, len(db.tables))
	for _, name := range db.tableNames() {
		t := db.tables[name]
		rows, err := t.Heap.NumRecords() //lint:allow ctxscan one tail-page read per table, no scan
		if err != nil {
			rows = -1 // the catalog stays usable when a count hits an I/O error
		}
		out = append(out, TableInfo{
			Name: t.Name, Schema: t.Schema, Rows: rows,
			Pages: t.Heap.NumPages(), Buckets: t.Heap.NumBuckets(), BucketPages: t.BucketPages,
			SMAs: t.smaInfos(),
		})
	}
	return out
}

// SMAInfos describes the table's SMAs in name order under the read lock.
func (t *Table) SMAInfos() []SMAInfo {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.smaInfos()
}

// smaInfos describes the table's SMAs; callers hold db.mu.
func (t *Table) smaInfos() []SMAInfo {
	smas := t.SMAs()
	out := make([]SMAInfo, len(smas))
	for i, s := range smas {
		out[i] = SMAInfo{
			Name: s.Def.Name, SQL: s.Def.String(),
			Files: s.NumFiles(), Pages: s.PagesUsed(), Buckets: s.NumBuckets,
		}
	}
	return out
}

// NumRecords counts the table's live records (deleted tuples excluded)
// under the read lock: one read of the tail page, less the deleted count.
func (t *Table) NumRecords() (int64, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.Heap.NumRecords()
}

// PoolStats returns buffer pool activity counters summed across every
// table's pool — the database-wide I/O picture a serving layer reports.
func (db *DB) PoolStats() storage.PoolStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out storage.PoolStats
	for _, t := range db.tables {
		out.Add(t.pool.Stats())
	}
	return out
}

// Pool exposes the table's buffer pool (benchmarks use it for cold/warm
// control and I/O statistics).
func (t *Table) Pool() *storage.BufferPool { return t.pool }

// Disk exposes the table's disk manager.
func (t *Table) Disk() *storage.DiskManager { return t.disk }

// DefineSMA parses a "define sma" statement, bulkloads the SMA, persists
// its SMA-files, and registers it in the catalog.
func (db *DB) DefineSMA(ddl string) (*core.SMA, error) {
	def, err := parser.ParseSMADef(ddl)
	if err != nil {
		return nil, err
	}
	return db.DefineSMADef(def)
}

// DefineSMADef is DefineSMA for an already-constructed definition.
func (db *DB) DefineSMADef(def core.Def) (*core.SMA, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	if err := db.checkFailed(); err != nil {
		return nil, err
	}
	t, err := db.table(def.Table)
	if err != nil {
		return nil, err
	}
	if _, dup := t.smas[def.Name]; dup {
		return nil, fmt.Errorf("engine: sma %s already exists on %s", def.Name, t.Name)
	}
	s, err := core.Build(t.Heap, def)
	if err != nil {
		return nil, err
	}
	if err := s.Save(db.smaDir(t.Name)); err != nil {
		return nil, err
	}
	t.smas[def.Name] = s
	db.epoch++
	if err := db.saveCatalog(); err != nil {
		return nil, err
	}
	return s, nil
}

// DropSMA removes an SMA and its files.
func (db *DB) DropSMA(table, name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return err
	}
	if err := db.checkFailed(); err != nil {
		return err
	}
	t, err := db.table(table)
	if err != nil {
		return err
	}
	name = strings.ToLower(name)
	if _, ok := t.smas[name]; !ok {
		return fmt.Errorf("engine: no sma %s on %s", name, t.Name)
	}
	delete(t.smas, name)
	db.epoch++
	paths, err := filepath.Glob(filepath.Join(db.smaDir(t.Name), name+".g*.smaf"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return db.saveCatalog()
}

// Plan parses and plans a query without executing it.
func (db *DB) Plan(sql string) (*planner.Plan, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	return db.planLocked(&statement{db: db, sql: sql, entry: db.stmts.get(sql)})
}

// planLocked plans the statement's query under a held lock through its
// statement cache entry, charging the parse, plan and grade phases on its
// clock: a template built at the current epoch is copied — no parse, no
// planning, no grading, and the grade phase keeps its counts at no time; an
// older entry's query is planned again without a parse; without an entry
// the text is parsed and planned. The last two leave a new entry.
func (db *DB) planLocked(s *statement) (*planner.Plan, error) {
	e := s.entry
	var plan *planner.Plan
	if e != nil && e.plan != nil && e.epoch == db.epoch {
		s.clock.Lap(obs.PhaseParse, 0)
		plan = new(planner.Plan)
		*plan = *e.plan
		plan.GradeTime = 0
		s.mark(obs.PhasePlan)
	} else {
		var q *parser.Query
		if e != nil {
			q = e.query
			s.Fingerprint, s.Norm = e.fp, e.norm
			s.clock.Lap(obs.PhaseParse, 0)
		} else {
			var err error
			q, err = s.parseQuery()
			s.mark(obs.PhaseParse)
			if err != nil {
				return nil, err
			}
		}
		var err error
		plan, err = db.planQuery(q)
		s.mark(obs.PhasePlan)
		if err != nil {
			return nil, err
		}
		e = db.remember(s, q, plan)
	}
	s.entry = e
	// The template's grade time says whether planning graded; a copy's is 0.
	if e.plan != nil && e.plan.GradeTime > 0 {
		s.clock.Carve(obs.PhasePlan, obs.PhaseGrade, plan.GradeTime)
		g := &s.clock.Phase[obs.PhaseGrade]
		g.Qualify, g.Disqualify, g.Ambivalent = int64(plan.Grades.Qualifying), int64(plan.Grades.Disqualifying), int64(plan.Grades.Ambivalent)
	}
	return plan, nil
}

// planQuery plans a parsed query over a virtual or a stored table. Caller
// holds db.mu (either mode).
func (db *DB) planQuery(q *parser.Query) (*planner.Plan, error) {
	if rel := db.virtualRelation(q.Table); rel != nil {
		return db.planVirtual(q, rel)
	}
	t, err := db.table(q.Table)
	if err != nil {
		return nil, err
	}
	if q.Where != nil {
		if err := q.Where.Bind(t.Schema); err != nil {
			return nil, err
		}
	}
	return db.pl.PlanQuery(q, t.Heap, t.SMAs())
}
