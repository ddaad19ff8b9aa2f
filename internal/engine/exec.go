package engine

import (
	"context"
	"fmt"

	"sma/internal/core"
	"sma/internal/parser"
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
	parsed, err := st.parse()
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
		st.RowsAffected, c, err = db.changeWhere(ctx, s.Table, s.Where, s.Sets, &st.Record)
	case *parser.DeleteStmt:
		st.Kind, st.Table = "delete", s.Table
		st.RowsAffected, c, err = db.changeWhere(ctx, s.Table, s.Where, nil, &st.Record)
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
