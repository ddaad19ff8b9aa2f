package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"

	"sma/internal/core"
	"sma/internal/storage"
	"sma/internal/tuple"
	"sma/internal/wal"
)

// WALFileName is the redo log kept in every database directory.
const WALFileName = "wal"

// walPath returns the redo-log path.
func (db *DB) walPath() string { return filepath.Join(db.dir, WALFileName) }

// walHook adapts one table's buffer-pool write-backs to the shared log:
// before a dirty page is rewritten in place, its full pre-write image is
// appended (torn-write protection) and the log is forced so the image is
// on stable storage before the in-place write can tear.
type walHook struct {
	log   *wal.Log
	table string
}

func (h *walHook) PageImage(id storage.PageID, data []byte) error {
	return h.log.PageImage(h.table, int64(id), data)
}

func (h *walHook) Barrier() error { return h.log.SyncForWriteback() }

// tableStatesLocked snapshots every table's on-disk page count and
// deleted-record count, the baseline a WAL checkpoint header records;
// callers hold db.mu.
func (db *DB) tableStatesLocked() []wal.TableState {
	states := make([]wal.TableState, 0, len(db.tables))
	for _, name := range db.tableNames() {
		t := db.tables[name]
		states = append(states, wal.TableState{Name: name, Pages: t.disk.NumPages(), Deleted: t.Heap.Deleted()})
	}
	return states
}

// checkFailed rejects writes on a poisoned database: once a rollback or
// log append has failed, the in-memory state can no longer be trusted to
// match what a recovery would reconstruct, so further writes are refused
// (queries still run; Close will leave the dirty marker so the next Open
// replays the committed log). Callers hold db.mu.
func (db *DB) checkFailed() error {
	if db.failed != nil {
		return fmt.Errorf("engine: database needs recovery (reopen it): %w", db.failed)
	}
	// A degraded database is read-only: writing around quarantined pages
	// could compound the damage, and SMA maintenance may need to rescan
	// a bucket whose pages are unreadable.
	return db.Degraded()
}

// updateUndo is one journaled UPDATE: the record position and its
// pre-statement image.
type updateUndo struct {
	rid storage.RID
	old tuple.Tuple
}

// stmtJournal tracks one statement's heap effects so a mid-statement
// error can roll the table back to the statement start. Because the pool
// runs under a statement barrier (no dirty frame reaches disk while the
// journal is open), the on-disk file never sees uncommitted data and an
// in-memory undo is sufficient — no undo logging.
type stmtJournal struct {
	t       *Table
	tail    storage.TailState
	updates []updateUndo
	deletes []storage.RID
	batch   *wal.Batch
	// touched lists the bucket of every row the statement updated or
	// deleted; commitStmt refolds each of them once.
	touched []int
	// hooked records that SMA maintenance ran for this statement: a
	// rollback must then also rebuild the SMA vectors, which are ahead of
	// the restored heap.
	hooked bool
	// rows counts the statement's heap mutations, its maintenance tally
	// (see Table.recordMaint).
	rows int
}

// beginStmt opens a statement scope on t: snapshots the heap's append
// position, raises the pool's no-steal barrier, and starts a redo batch.
// Callers hold db.mu and must finish with commitStmt or a rollback.
func (db *DB) beginStmt(t *Table) (*stmtJournal, error) {
	if err := db.checkFailed(); err != nil {
		return nil, err
	}
	tail, err := t.Heap.Tail()
	if err != nil {
		return nil, err
	}
	db.epoch++
	t.pool.BeginBarrier()
	return &stmtJournal{t: t, tail: tail, batch: db.wal.NewBatch()}, nil
}

// appendRun appends as many of the packed records recs as fit the heap's
// tail page (a fresh one when it is full) through the journal: the heap
// places them, the run is logged as one redo record, and every SMA folds it
// as one bucket run before the caller moves to the next page — append run,
// hook run, so the heap holds exactly the rows hooked so far (see
// maintain). It returns the first record's position and the number placed;
// callers loop until their records are.
func (j *stmtJournal) appendRun(recs []byte) (storage.RID, int, error) {
	t := j.t
	rid, n, err := t.Heap.AppendRun(recs)
	if err != nil {
		return rid, 0, err
	}
	run := recs[:n*t.Schema.RecordSize()]
	j.batch.InsertRun(t.Name, int64(rid.Page), rid.Slot, n, run)
	b := t.Heap.BucketOf(rid.Page)
	return rid, n, j.maintain(n, func(sm *core.SMA) error { return sm.AppendRun(b, run) })
}

// update overwrites rid through the journal, keeping the old image for
// rollback, logging the new one for redo and noting the bucket to refold.
func (j *stmtJournal) update(rid storage.RID, old, new tuple.Tuple) error {
	if err := j.t.Heap.Update(rid, new); err != nil {
		return err
	}
	j.updates = append(j.updates, updateUndo{rid: rid, old: old})
	j.batch.Update(j.t.Name, int64(rid.Page), rid.Slot, new.Data)
	j.touch(rid)
	return nil
}

// delete marks rid through the journal and notes the bucket to refold.
func (j *stmtJournal) delete(rid storage.RID) error {
	if err := j.t.Heap.Delete(rid); err != nil {
		return err
	}
	j.deletes = append(j.deletes, rid)
	j.batch.Delete(j.t.Name, int64(rid.Page), rid.Slot)
	j.touch(rid)
	return nil
}

// touch counts one updated or deleted row and notes its bucket, once per
// run of rows in one bucket.
func (j *stmtJournal) touch(rid storage.RID) {
	j.rows++
	if b := j.t.Heap.BucketOf(rid.Page); len(j.touched) == 0 || j.touched[len(j.touched)-1] != b {
		j.touched = append(j.touched, b)
	}
}

// rollbackStmt undoes the journal in reverse order — unmark deletes,
// restore old update images via the exact-position applicator, roll the
// append tail back — and drops the barrier. Rollback deliberately ignores
// cancellation: it must run to completion or the table is left half-
// applied, which is why a rollback that itself fails poisons the
// database (the heap is in neither the before nor the after state, and
// only a recovery replay of the committed log can fix it).
func (db *DB) rollbackStmt(j *stmtJournal) error {
	var firstErr error
	for i := len(j.deletes) - 1; i >= 0; i-- {
		if err := j.t.Heap.Undelete(j.deletes[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := len(j.updates) - 1; i >= 0; i-- {
		u := j.updates[i]
		if err := j.t.Heap.ApplyAt(u.rid, u.old.Data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := j.t.Heap.RestoreTail(j.tail); err != nil && firstErr == nil {
		firstErr = err
	}
	j.t.pool.EndBarrier()
	if firstErr != nil {
		db.failed = fmt.Errorf("statement rollback failed: %w", firstErr)
	}
	return firstErr
}

// abortStmt rolls back after a mid-statement error. When SMA maintenance
// already ran, the vectors may be ahead of the restored heap and every SMA
// of the table is rebuilt from it (repairSMAs); a statement that failed
// before any maintenance leaves the vectors untouched and skips the
// rebuild.
func (db *DB) abortStmt(j *stmtJournal, err error) error {
	defer j.t.recordMaint(j.rows)
	if rerr := db.rollbackStmt(j); rerr != nil {
		return errors.Join(err, rerr)
	}
	if j.hooked {
		return repairSMAs(j.t, err)
	}
	return err
}

// commit is a statement's place in the redo log: the sequence its
// durability wait takes, and the bytes of its frame.
type commit struct {
	seq   uint64
	bytes int64
}

// commitStmt refolds the buckets the statement updated or deleted in,
// appends its commit record, drops the barrier, and checkpoints if the log
// has outgrown its threshold. It returns the statement's commit (zero for
// an empty statement); callers that need durability wait on it after
// releasing db.mu. A failed refold aborts the statement; a failed append
// rolls it back and poisons the database — a log that refused records
// cannot be trusted to cover later commits either.
func (db *DB) commitStmt(j *stmtJournal) (commit, error) {
	if err := j.refold(); err != nil {
		return commit{}, db.abortStmt(j, err)
	}
	seq, bytes, err := db.wal.CommitFrame(j.batch)
	if err != nil {
		err = db.abortStmt(j, err)
		db.failed = fmt.Errorf("wal append failed: %w", err)
		return commit{}, err
	}
	j.t.pool.EndBarrier()
	j.t.recordMaint(j.rows)
	db.maybeCheckpointLocked()
	return commit{seq: seq, bytes: bytes}, nil
}

// waitDurable blocks until the commit is on stable storage and reports
// whether this statement led the fsync that got it there. Called WITHOUT
// db.mu so a slow fsync never blocks readers; the group-commit leader
// amortizes one fsync over every waiter. ErrClosed means Close or Crash
// won the race after our commit — both flush and sync the log before
// closing it, so the statement is already durable.
func (db *DB) waitDurable(c commit) (led bool, err error) {
	led, err = db.wal.Await(c.seq)
	if errors.Is(err, wal.ErrClosed) {
		return false, nil
	}
	return led, err
}

// maintain runs every SMA of the table through hook: the vectors are
// flagged for re-save at the next checkpoint, rows join the statement's
// maintenance tally, and the statement is marked hooked (so an abort
// rebuilds the vectors, which may now be ahead of a rolled-back heap).
// Before each hook the test-only fault hook is consulted (crash tests fail
// maintenance at a precise point to prove statement atomicity). Callers
// hold db.mu.
//
// Every SMA change is one of two kinds. An append run is hooked right
// after the heap placed it (appendRun), so the heap holds exactly the rows
// hooked so far. Updates and deletes change the heap alone, and at
// statement end refold each bucket they touched from the heap as it then
// is (refold).
func (j *stmtJournal) maintain(rows int, hook func(*core.SMA) error) error {
	t := j.t
	j.rows += rows
	if len(t.smas) > 0 {
		t.smaDirty, j.hooked = true, true
	}
	for _, s := range t.smas {
		if t.maintFault != nil {
			if err := t.maintFault(); err != nil {
				return err
			}
		}
		if err := hook(s); err != nil {
			return err
		}
	}
	return nil
}

// refold recomputes, in every SMA of the table at once, each bucket the
// statement updated or deleted in: one read of the bucket's pages and one
// fold per SMA, however many of its rows changed. maintain's hook only
// gathers the SMAs, so the fault hook is consulted and the statement marked
// hooked before any of them changes.
func (j *stmtJournal) refold() error {
	if len(j.touched) == 0 || len(j.t.smas) == 0 {
		return nil
	}
	smas := make([]*core.SMA, 0, len(j.t.smas))
	if err := j.maintain(0, func(s *core.SMA) error {
		smas = append(smas, s)
		return nil
	}); err != nil {
		return err
	}
	slices.Sort(j.touched)
	return core.Refold(j.t.Heap, smas, slices.Compact(j.touched))
}

// maybeCheckpointLocked checkpoints when the log has outgrown
// Options.CheckpointBytes. A failed checkpoint does not fail the
// statement — its records are safely in the log — but is surfaced in the
// structured log; the WAL keeps growing until a checkpoint succeeds.
func (db *DB) maybeCheckpointLocked() {
	if db.failed != nil || db.wal.Size() < db.opts.CheckpointBytes {
		return
	}
	if err := db.checkpointLocked(); err != nil {
		if o := db.opts.Obs; o != nil {
			o.Logger().Warn("checkpoint failed", "err", err)
		}
	}
}

// checkpointLocked persists every table, then truncates the log to a
// fresh header recording the page counts: the log goes only after every
// file it covers is on stable storage, so recovery needs nothing from the
// old log. Callers hold db.mu.
func (db *DB) checkpointLocked() error {
	for _, name := range db.tableNames() {
		if err := db.persistLocked(db.tables[name]); err != nil {
			return err
		}
	}
	return db.wal.Checkpoint(db.tableStatesLocked())
}

// persistLocked puts one table on stable storage: heap pages (with their
// delete marks) flushed and fsynced, and the SMA-files saved when the
// vectors changed since they were last. Checkpoint and recovery both
// persist a table through it. Callers hold db.mu.
func (db *DB) persistLocked(t *Table) error {
	if err := t.pool.FlushAll(); err != nil {
		return err
	}
	if t.smaDirty {
		for _, s := range t.smas {
			if err := s.Save(db.smaDir(t.Name)); err != nil {
				return err
			}
		}
		t.smaDirty = false
	}
	return nil
}

// RecoveryStats reports what Open's crash recovery did.
type RecoveryStats struct {
	// Performed is true when the directory was shut down uncleanly and
	// recovery ran (even if the log turned out to be empty).
	Performed bool
	// WALMissing is true when the unclean directory had no log at all
	// (a crash before the first statement, or a pre-WAL directory); the
	// SMA vectors were rebuilt from the heaps, which are the only truth.
	WALMissing bool
	// Statements and Ops count the committed work replayed from the log.
	Statements int64
	Ops        int64
	// PageImages counts full-page images restored (torn-write repair).
	PageImages int64
	// DiscardedBytes is the length of the uncommitted log tail that was
	// ignored (a statement that never committed, or a torn final write).
	DiscardedBytes int64
	// TruncatedPages counts heap pages dropped because no committed
	// statement ever wrote them.
	TruncatedPages int64
	// SMAsRebuilt counts SMA vectors rebuilt from replayed heaps.
	SMAsRebuilt int
}

// replayApplier applies redo records to the engine's heaps during Open.
type replayApplier struct {
	db      *DB
	touched map[string]bool
	// deleted counts each table's replayed delete records: one record,
	// one deleted row, whether or not its mark had already reached the
	// page on disk.
	deleted map[string]int64
}

func (a *replayApplier) ApplyOp(op wal.Op) error {
	t, ok := a.db.tables[op.Table]
	if !ok {
		return fmt.Errorf("engine: wal references unknown table %q", op.Table)
	}
	a.touched[op.Table] = true
	rid := storage.RID{Page: storage.PageID(op.Page), Slot: op.Slot}
	if op.IsDelete() {
		a.deleted[op.Table]++
		return t.Heap.ApplyDelete(rid)
	}
	return t.Heap.ApplyAt(rid, op.Data)
}

func (a *replayApplier) ApplyPageImage(table string, page int64, data []byte) error {
	t, ok := a.db.tables[table]
	if !ok {
		return fmt.Errorf("engine: wal references unknown table %q", table)
	}
	a.touched[table] = true
	return t.Heap.RestorePage(storage.PageID(page), data)
}

// recoverLocked brings an uncleanly-shut-down directory back to the last
// committed statement: replay the log's committed prefix into the heaps,
// truncate pages no committed statement wrote, rebuild the SMA vectors of
// every touched table from its recovered heap, and persist it. Each table's
// deleted count is the checkpoint's plus the delete records replayed. With
// no log to replay, the heaps as found are the truth and every table counts
// as touched — its saved SMA-files may predate appends the crashed session
// flushed — and its deleted records are counted from its pages. Runs inside
// Open before the fresh log is created; any error
// fails the Open (the dirty marker stays, so the next Open retries).
func (db *DB) recoverLocked() error {
	rs := &db.recovery
	rs.Performed = true
	ap := &replayApplier{db: db, touched: make(map[string]bool), deleted: make(map[string]int64)}
	st, err := wal.Replay(db.walPath(), ap)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rs.WALMissing = true
		for name, t := range db.tables {
			ap.touched[name] = true
			if err := t.Heap.Recount(); err != nil {
				return err
			}
		}
	case err != nil:
		return fmt.Errorf("engine: wal replay: %w", err)
	default:
		rs.Statements = st.Statements
		rs.Ops = st.Ops
		rs.PageImages = st.PageImages
		rs.DiscardedBytes = st.DiscardedBytes
		// A page belongs to the committed state if the checkpoint header
		// counted it or a committed record landed on it. Anything past
		// that is an uncommitted allocation (the file grows eagerly on
		// append) — drop it so the heap matches exactly what the oracle
		// would hold.
		base := make(map[string]wal.TableState, len(st.Header))
		for _, s := range st.Header {
			base[s.Name] = s
		}
		for name, t := range db.tables {
			t.Heap.SetDeleted(base[name].Deleted + ap.deleted[name])
			committed := base[name].Pages // 0 for tables created after the header was written
			if mp, ok := st.MaxPage[name]; ok && mp+1 > committed {
				committed = mp + 1
			}
			if np := t.disk.NumPages(); np > committed {
				if err := t.Heap.Truncate(committed); err != nil {
					return err
				}
				rs.TruncatedPages += np - committed
			}
		}
	}
	for name := range ap.touched {
		t := db.tables[name]
		if err := rebuildSMAs(t); err != nil {
			return err
		}
		rs.SMAsRebuilt += len(t.smas)
		if err := db.persistLocked(t); err != nil {
			return err
		}
	}
	return nil
}

// rebuildSMAs recomputes every SMA of t from its heap in one pass and
// marks the vectors for saving. Unlike repairSMAs (which detaches what it
// cannot rebuild, keeping a live session answering), a rebuild failure here
// is fatal — recovery must not open a database with missing aggregates the
// catalog promises.
func rebuildSMAs(t *Table) error {
	if len(t.smas) == 0 {
		return nil
	}
	names := make([]string, 0, len(t.smas))
	defs := make([]core.Def, 0, len(t.smas))
	for name, s := range t.smas {
		names = append(names, name)
		defs = append(defs, s.Def)
	}
	built, err := core.BuildMany(t.Heap, defs)
	if err != nil {
		return fmt.Errorf("engine: rebuild smas of %s: %w", t.Name, err)
	}
	for i, name := range names {
		t.smas[name] = built[i]
	}
	t.smaDirty = true
	return nil
}

// RecoveryStats reports what recovery did when this database was opened
// (the zero value when the previous shutdown was clean).
func (db *DB) RecoveryStats() RecoveryStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.recovery
}

// WALStats snapshots the redo log's activity counters.
func (db *DB) WALStats() wal.Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return wal.Stats{}
	}
	return db.wal.Stats()
}

// Sync forces every record committed so far onto stable storage: the
// durability point for rows added with Table.Append, which commits
// without waiting for the fsync.
func (db *DB) Sync() error {
	db.mu.RLock()
	w, closed := db.wal, db.closed
	db.mu.RUnlock()
	if closed || w == nil {
		return fmt.Errorf("engine: database is closed")
	}
	return w.Sync()
}

// Crash abandons the database without checkpointing or marking the
// directory clean — a simulated process kill for recovery tests. Dirty
// buffer-pool frames are dropped (their committed effects live in the
// log), the log is flushed and closed, and the directory lock is released
// with the dirty marker in place so the next Open runs recovery.
//
// Crash is a test-only kill switch and must be armed explicitly with
// Options.AllowUnsafeCrash (sma.WithUnsafeCrash); on a production
// opening it returns an error without touching the database.
func (db *DB) Crash() error {
	if !db.opts.AllowUnsafeCrash {
		return fmt.Errorf("engine: Crash is disarmed; open with AllowUnsafeCrash to enable the kill switch")
	}
	db.stopScrubber()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var firstErr error
	if db.wal != nil {
		if err := db.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, t := range db.tables {
		if err := t.disk.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := db.lock.release(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// registerWALMetrics registers the redo-log metric families, sampled
// from the log's atomic counters at render time.
func (db *DB) registerWALMetrics() {
	o := db.opts.Obs
	if o == nil || db.wal == nil {
		return
	}
	w := db.wal
	stat := func(f func(wal.Stats) uint64) func() float64 {
		return func() float64 { return float64(f(w.Stats())) }
	}
	o.Reg.CounterFunc("sma_wal_commits_total",
		"Statements committed to the write-ahead log.",
		stat(func(s wal.Stats) uint64 { return s.Commits }))
	o.Reg.CounterFunc("sma_wal_syncs_total",
		"fsyncs issued on the write-ahead log.",
		stat(func(s wal.Stats) uint64 { return s.Syncs }))
	o.Reg.CounterFunc("sma_wal_grouped_waits_total",
		"Durability waits satisfied by another statement's fsync (group commit).",
		stat(func(s wal.Stats) uint64 { return s.GroupedWaits }))
	o.Reg.CounterFunc("sma_wal_bytes_total",
		"Bytes appended to the write-ahead log.",
		stat(func(s wal.Stats) uint64 { return s.Bytes }))
	o.Reg.CounterFunc("sma_wal_page_images_total",
		"Full-page images logged before in-place page write-backs.",
		stat(func(s wal.Stats) uint64 { return s.PageImages }))
	o.Reg.CounterFunc("sma_wal_checkpoints_total",
		"Write-ahead log checkpoints (truncations).",
		stat(func(s wal.Stats) uint64 { return s.Checkpoints }))
	o.Reg.GaugeFunc("sma_wal_size_bytes",
		"Current write-ahead log file size.",
		func() float64 { return float64(w.Size()) })
}
