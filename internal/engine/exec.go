package engine

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"sma/internal/core"
	"sma/internal/parser"
	"sma/internal/pred"
	"sma/internal/stats"
	"sma/internal/storage"
	"sma/internal/tuple"
	"sma/internal/wal"
)

// ExecResult reports the effect of a non-SELECT statement.
type ExecResult struct {
	// Kind names the executed statement: "define sma", "drop sma",
	// "create table", "insert", "update", or "delete".
	Kind  string
	Table string
	// SMA is the built SMA for "define sma" statements.
	SMA *core.SMA
	// RowsAffected is the number of tuples inserted, updated, or removed
	// by a DML statement.
	RowsAffected int64
	// WALBytes and WALSyncs are the redo-log bytes appended and fsyncs
	// observed while the statement ran. They are process-wide deltas, so
	// concurrent statements' WAL traffic (including a shared group-commit
	// sync) is attributed to whichever statements were in flight.
	WALBytes int64
	WALSyncs int64
}

// ExecContext runs a DDL or DML statement through the unified SQL
// entrypoint: "define sma", "drop sma", "create table", "insert",
// "update", and "delete" statements are dispatched to the corresponding
// engine operation. SELECT and EXPLAIN statements are rejected — they
// stream through QueryContext.
//
// ExecContext is a panic boundary: a panic anywhere in the statement is
// converted to an error wrapping ErrStatementPanic, poisoning the
// database (the in-memory state may be half-mutated; reopen to recover)
// but never taking down the process.
func (db *DB) ExecContext(ctx context.Context, sql string) (res *ExecResult, err error) {
	defer db.recoverStatementPanic(sql, &err)
	o := db.opts.Obs
	st := db.statsC()
	var fp uint64
	var norm string
	var act int64
	var walBefore wal.Stats
	if st != nil {
		fp, norm = db.fingerprint(sql)
		act = st.BeginActivity("exec", sql, fp)
		walBefore = db.WALStats()
	}
	start := time.Now()
	res, err = db.execContext(ctx, sql)
	dur := time.Since(start)
	if st != nil {
		st.EndActivity(act)
		walAfter := db.WALStats()
		walBytes := int64(walAfter.Bytes - walBefore.Bytes)
		walSyncs := int64(walAfter.Syncs - walBefore.Syncs)
		rec := stats.ExecRecord{
			Fingerprint: fp, Norm: norm, Dur: dur, Err: err != nil,
			WALBytes: walBytes, WALSyncs: walSyncs,
		}
		if res != nil {
			res.WALBytes, res.WALSyncs = walBytes, walSyncs
			rec.Kind, rec.Table, rec.RowsAffected = res.Kind, res.Table, res.RowsAffected
		}
		if rec.Kind != "reset stats" { // don't repopulate what reset just cleared
			st.RecordExec(rec)
		}
	}
	if o != nil && err == nil {
		o.Engine.Execs.With(res.Kind).Inc()
		o.Engine.ExecSeconds.With(res.Kind).ObserveDuration(dur)
		level, msg := slog.LevelDebug, "exec"
		if o.Slow > 0 && dur >= o.Slow {
			o.Engine.SlowExecs.Inc()
			level, msg = slog.LevelWarn, "slow exec"
		}
		// As in Cursor.finishObs: no record for a logger that drops it.
		if log := o.Logger(); log.Enabled(context.Background(), level) {
			attrs := []any{
				"kind", res.Kind, "table", res.Table, "rows_affected", res.RowsAffected,
				"dur", dur, "wal_bytes", res.WALBytes, "wal_syncs", res.WALSyncs,
			}
			if level == slog.LevelWarn {
				attrs = append(attrs, "sql", sql)
			}
			log.Log(context.Background(), level, msg, attrs...)
		}
	}
	return res, err
}

// execContext implements ExecContext; the wrapper records metrics.
func (db *DB) execContext(ctx context.Context, sql string) (*ExecResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d := db.opts.StatementTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := parser.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *parser.SelectStmt:
		return nil, fmt.Errorf("engine: SELECT statements stream; use QueryContext")
	case *parser.ExplainStmt:
		return nil, fmt.Errorf("engine: EXPLAIN statements stream; use QueryContext")
	case *parser.ResetStatsStmt:
		db.statsC().Reset()
		return &ExecResult{Kind: "reset stats"}, nil
	case *parser.DefineSMAStmt:
		sma, err := db.DefineSMADef(s.Def)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Kind: "define sma", Table: s.Def.Table, SMA: sma}, nil
	case *parser.DropSMAStmt:
		if err := db.DropSMA(s.Table, s.Name); err != nil {
			return nil, err
		}
		return &ExecResult{Kind: "drop sma", Table: s.Table}, nil
	case *parser.CreateTableStmt:
		if _, err := db.CreateTable(s.Table, s.Columns); err != nil {
			return nil, err
		}
		return &ExecResult{Kind: "create table", Table: s.Table}, nil
	case *parser.InsertStmt:
		n, seq, err := db.insertInto(ctx, s)
		if err != nil {
			return nil, err
		}
		// The durability wait runs after insertInto released the write
		// lock: a slow fsync never blocks readers, and concurrent
		// statements share one group-committed fsync.
		if err := db.waitDurable(seq); err != nil {
			return nil, err
		}
		return &ExecResult{Kind: "insert", Table: s.Table, RowsAffected: n}, nil
	case *parser.UpdateStmt:
		n, seq, err := db.updateWhere(ctx, s)
		if err != nil {
			return nil, err
		}
		if err := db.waitDurable(seq); err != nil {
			return nil, err
		}
		return &ExecResult{Kind: "update", Table: s.Table, RowsAffected: n}, nil
	case *parser.DeleteStmt:
		n, seq, err := db.deleteWhere(ctx, s.Table, s.Where)
		if err != nil {
			return nil, err
		}
		if err := db.waitDurable(seq); err != nil {
			return nil, err
		}
		return &ExecResult{Kind: "delete", Table: s.Table, RowsAffected: n}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

// deleteWhere removes every tuple matching the predicate (all tuples when
// nil), maintaining the table's SMAs. It holds the write lock for the whole
// operation; the context is checked at every page boundary of the
// qualifying scan. The statement is atomic: an error partway through —
// cancellation, I/O, failed SMA maintenance — unmarks every tuple this
// statement deleted.
func (db *DB) deleteWhere(ctx context.Context, table string, p pred.Predicate) (int64, uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return 0, 0, err
	}
	t, err := db.table(table)
	if err != nil {
		return 0, 0, err
	}
	if p != nil {
		if err := p.Bind(t.Schema); err != nil {
			return 0, 0, err
		}
	}
	var rids []storage.RID
	lastPage, first := storage.PageID(0), true
	err = t.Heap.Scan(func(tp tuple.Tuple, rid storage.RID) error {
		if first || rid.Page != lastPage {
			first, lastPage = false, rid.Page
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if p == nil || p.Eval(tp) {
			rids = append(rids, rid)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	j, err := db.beginStmt(t)
	if err != nil {
		return 0, 0, err
	}
	maintained := 0
	defer func() { t.recordMaint(maintained) }()
	for _, rid := range rids {
		if err := ctx.Err(); err != nil {
			return 0, 0, db.abortStmt(j, err)
		}
		old, err := j.delete(rid)
		if err != nil {
			return 0, 0, db.abortStmt(j, err)
		}
		t.markSMAsDirty()
		maintained++
		for _, s := range t.smas {
			if err := j.maint(func() error { return s.OnDelete(t.Heap, old, rid) }); err != nil {
				return 0, 0, db.abortStmt(j, err)
			}
		}
	}
	seq, err := db.commitStmt(j)
	if err != nil {
		return 0, 0, err
	}
	return int64(len(rids)), seq, nil
}
