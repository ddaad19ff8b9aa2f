package engine

import (
	"context"
	"fmt"

	"sma/internal/core"
	"sma/internal/parser"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tuple"
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
	// WALBytes is the size of the statement's own commit frame in the
	// redo log, and WALSyncs the fsyncs it led: 1 when its durability wait
	// issued the barrier, 0 when another statement's covered it. Summed
	// over statements they are the log's traffic, apart from checkpoint
	// page images (see DB.WALStats).
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
func (db *DB) ExecContext(ctx context.Context, sql string) (*ExecResult, error) {
	ctx, st := db.begin(ctx, sql, false, false)
	sma, err := db.execStmt(ctx, st)
	st.end(err)
	if err != nil {
		return nil, err
	}
	return &ExecResult{
		Kind: st.Kind, Table: st.Table, SMA: sma, RowsAffected: st.RowsAffected,
		WALBytes: st.WALBytes, WALSyncs: st.WALSyncs,
	}, nil
}

// execStmt parses and runs the statement, noting in its record what it
// is (as soon as that is known, so a failure is still recorded under its
// kind and table) and what it affected. It is ExecContext's panic
// boundary.
func (db *DB) execStmt(ctx context.Context, st *statement) (sma *core.SMA, err error) {
	defer db.recoverStatementPanic(st.sql, &err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	parsed, err := parser.ParseStatement(st.sql)
	if err != nil {
		return nil, err
	}
	var c commit
	switch s := parsed.(type) {
	case *parser.SelectStmt:
		st.Kind = "select"
		return nil, fmt.Errorf("engine: SELECT statements stream; use QueryContext")
	case *parser.ExplainStmt:
		st.Kind = "explain"
		return nil, fmt.Errorf("engine: EXPLAIN statements stream; use QueryContext")
	case *parser.ResetStatsStmt:
		st.Kind = "reset stats"
		db.statsC().Reset()
		return nil, nil
	case *parser.DefineSMAStmt:
		st.Kind, st.Table = "define sma", s.Def.Table
		return db.DefineSMADef(s.Def)
	case *parser.DropSMAStmt:
		st.Kind, st.Table = "drop sma", s.Table
		return nil, db.DropSMA(s.Table, s.Name)
	case *parser.CreateTableStmt:
		st.Kind, st.Table = "create table", s.Table
		_, err := db.CreateTable(s.Table, s.Columns)
		return nil, err
	case *parser.InsertStmt:
		st.Kind, st.Table = "insert", s.Table
		st.RowsAffected, c, err = db.insertInto(ctx, s)
	case *parser.UpdateStmt:
		st.Kind, st.Table = "update", s.Table
		st.RowsAffected, c, err = db.updateWhere(ctx, s)
	case *parser.DeleteStmt:
		st.Kind, st.Table = "delete", s.Table
		st.RowsAffected, c, err = db.deleteWhere(ctx, s.Table, s.Where)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", parsed)
	}
	if err != nil {
		return nil, err
	}
	// The durability wait runs after the DML released the write lock: a
	// slow fsync never blocks readers, and concurrent statements share one
	// group-committed fsync, charged to the one that led it.
	st.WALBytes = c.bytes
	led, err := db.waitDurable(c)
	if led && err == nil {
		st.WALSyncs = 1
	}
	return nil, err
}

// deleteWhere removes every tuple matching the predicate (all tuples when
// nil), maintaining the table's SMAs. It holds the write lock for the whole
// operation; the context is checked at every page boundary of the
// qualifying scan. The statement is atomic: an error partway through —
// cancellation, I/O, failed SMA maintenance — unmarks every tuple this
// statement deleted.
func (db *DB) deleteWhere(ctx context.Context, table string, p pred.Predicate) (int64, commit, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return 0, commit{}, err
	}
	t, err := db.table(table)
	if err != nil {
		return 0, commit{}, err
	}
	if p != nil {
		if err := p.Bind(t.Schema); err != nil {
			return 0, commit{}, err
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
		return 0, commit{}, err
	}
	j, err := db.beginStmt(t)
	if err != nil {
		return 0, commit{}, err
	}
	for _, rid := range rids {
		if err := ctx.Err(); err != nil {
			return 0, commit{}, db.abortStmt(j, err)
		}
		old, err := j.delete(rid)
		if err == nil {
			err = j.maintain(1, func(s *core.SMA) error { return s.OnDelete(t.Heap, old, rid) })
		}
		if err != nil {
			return 0, commit{}, db.abortStmt(j, err)
		}
	}
	c, err := db.commitStmt(j)
	if err != nil {
		return 0, commit{}, err
	}
	return int64(len(rids)), c, nil
}
