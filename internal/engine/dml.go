package engine

import (
	"context"
	"fmt"
	"math"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/parser"
	"sma/internal/pred"
	"sma/internal/stats"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// insertInto appends every VALUES row of the statement a page run at a time,
// maintaining the table's SMAs through one AppendRun per page run. It
// holds the write lock for the whole statement so concurrent (possibly
// parallel) readers never see a half-applied multi-row insert, and the
// statement is atomic: every row is
// validated before the heap is touched, and any later error — I/O,
// cancellation, a failed maintenance hook — rolls the table back to the
// statement start, so either all rows land or none do. The returned
// commit is the statement's place in the WAL; callers wait on it for
// durability after releasing the lock.
func (db *DB) insertInto(ctx context.Context, s *parser.InsertStmt) (int64, commit, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return 0, commit{}, err
	}
	t, err := db.table(s.Table)
	if err != nil {
		return 0, commit{}, err
	}
	colIdx, err := insertColumnOrder(t.Schema, s.Columns)
	if err != nil {
		return 0, commit{}, err
	}
	if s.Arity != len(colIdx) {
		return 0, commit{}, fmt.Errorf("engine: row 1 has %d values, table %s needs %d", s.Arity, t.Name, len(colIdx))
	}
	// Every cell is type-checked straight into its place in one buffer of
	// packed records, the form the heap, the log and the SMA run hooks take
	// them in; nothing below touches the heap until all of them passed.
	rs, n := t.Schema.RecordSize(), s.NumRows()
	recs := make([]byte, n*rs)
	for rn := 0; rn < n; rn++ {
		if err := ctx.Err(); err != nil {
			return 0, commit{}, err
		}
		tp := tuple.Tuple{Schema: t.Schema, Data: recs[rn*rs : (rn+1)*rs]}
		for i, lit := range s.Row(rn) {
			if err := setLiteral(tp, colIdx[i], lit); err != nil {
				return 0, commit{}, fmt.Errorf("engine: row %d column %s: %w",
					rn+1, t.Schema.Column(colIdx[i]).Name, err)
			}
		}
	}
	_, c, err := db.appendRows(ctx, t, recs)
	if err != nil {
		return 0, commit{}, err
	}
	return int64(n), c, nil
}

// appendRows appends the packed records recs to t as one statement, a page
// run at a time, checking the context before each run; any error rolls the
// statement back. It is the one append path: INSERT and Table.Append both
// run it. It returns the first record's position and the statement's
// commit. Callers hold db.mu.
func (db *DB) appendRows(ctx context.Context, t *Table, recs []byte) (storage.RID, commit, error) {
	j, err := db.beginStmt(t)
	if err != nil {
		return storage.RID{}, commit{}, err
	}
	var first storage.RID
	rs := t.Schema.RecordSize()
	for rest := recs; len(rest) > 0; {
		err := ctx.Err()
		if err == nil {
			var rid storage.RID
			var placed int
			rid, placed, err = j.appendRun(rest)
			if len(rest) == len(recs) {
				first = rid
			}
			rest = rest[placed*rs:]
		}
		if err != nil {
			return storage.RID{}, commit{}, db.abortStmt(j, err)
		}
	}
	c, err := db.commitStmt(j)
	if err != nil {
		return storage.RID{}, commit{}, err
	}
	return first, c, nil
}

// insertColumnOrder maps the statement's column list (or the schema order
// when absent) to schema indexes. The storage format has no NULLs, so an
// explicit list must name every column exactly once.
func insertColumnOrder(s *tuple.Schema, cols []string) ([]int, error) {
	n := s.NumColumns()
	if len(cols) == 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	if len(cols) != n {
		return nil, fmt.Errorf("engine: insert must list all %d columns (no NULLs), got %d", n, len(cols))
	}
	out := make([]int, n)
	seen := make([]bool, n)
	for i, c := range cols {
		j := s.ColumnIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in insert list", c)
		}
		if seen[j] {
			return nil, fmt.Errorf("engine: column %s listed twice in insert", s.Column(j).Name)
		}
		seen[j] = true
		out[i] = j
	}
	return out, nil
}

// setLiteral writes one parsed literal into column i of a record, checking
// the value against the column type: CHAR data takes string literals up to
// the declared length, dates take DATE literals, "YYYY-MM-DD" strings or
// day numbers, and integer columns require integral values in range.
func setLiteral(tp tuple.Tuple, i int, lit parser.Literal) error {
	col := tp.Schema.Column(i)
	switch col.Type {
	case tuple.TChar:
		if !lit.IsStr {
			return fmt.Errorf("char(%d) column needs a string literal, got %s", col.Len, lit)
		}
		if len(lit.Str) > col.Len {
			return fmt.Errorf("value %q exceeds char(%d)", lit.Str, col.Len)
		}
		tp.SetChar(i, lit.Str)
	case tuple.TDate:
		if lit.IsStr {
			d, err := tuple.ParseDate(lit.Str)
			if err != nil {
				return err
			}
			tp.SetInt32(i, d)
			return nil
		}
		d, err := integralIn(lit.Num, math.MinInt32, maxInt32Excl)
		if err != nil {
			return fmt.Errorf("date column: %w", err)
		}
		tp.SetInt32(i, int32(d))
	case tuple.TInt32:
		if lit.IsStr {
			return fmt.Errorf("int32 column needs a number, got %s", lit)
		}
		v, err := integralIn(lit.Num, math.MinInt32, maxInt32Excl)
		if err != nil {
			return err
		}
		tp.SetInt32(i, int32(v))
	case tuple.TInt64:
		if lit.IsStr {
			return fmt.Errorf("int64 column needs a number, got %s", lit)
		}
		v, err := integralIn(lit.Num, math.MinInt64, maxInt64Excl)
		if err != nil {
			return err
		}
		tp.SetInt64(i, v)
	case tuple.TFloat64:
		if lit.IsStr {
			return fmt.Errorf("float64 column needs a number, got %s", lit)
		}
		tp.SetFloat64(i, lit.Num)
	default:
		return fmt.Errorf("unsupported column type %v", col.Type)
	}
	return nil
}

// Integer column bounds in the float64 value domain. The upper bounds are
// EXCLUSIVE: float64(math.MaxInt64) rounds up to 2^63, which overflows
// int64 on conversion, so a closed comparison against it would admit
// out-of-range values that then wrap silently. (MaxInt64 itself is not
// representable as a float64, so rejecting v >= 2^63 loses nothing.)
const (
	maxInt32Excl = 1 << 31 // one past math.MaxInt32
	maxInt64Excl = 1 << 63 // 2^63; float64(math.MaxInt64) rounds up to this
)

// integralIn checks that v is an integral value within [lo, hiExcl).
func integralIn(v, lo, hiExcl float64) (int64, error) {
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("value %g is not integral", v)
	}
	if v < lo || v >= hiExcl {
		return 0, fmt.Errorf("value %g out of range", v)
	}
	return int64(v), nil
}

// repairSMAs restores consistency after a statement that had begun SMA
// maintenance failed: the heap has been rolled back to the statement
// start, but SMAs that folded the statement's appends or refolded its
// buckets are now ahead of it, so every SMA of the table is rebuilt from
// the (restored) heap. When the rebuild fails too, the table's SMAs are
// detached, so no later query plans against a silently stale aggregate.
// The maintenance error is returned either way — the statement still
// fails, but the catalog never serves wrong answers afterwards.
func repairSMAs(t *Table, hookErr error) error {
	if err := rebuildSMAs(t); err != nil {
		clear(t.smas)
		return fmt.Errorf("engine: smas of %s detached after failed maintenance (%v): %w", t.Name, err, hookErr)
	}
	return hookErr
}

// qualifying is the qualifying scan of UPDATE and DELETE, the paper's
// SMA_Scan (Fig. 6): it binds p to t, grades t's buckets against it with
// the table's SMAs and visits the rows satisfying p (every row when p is
// nil) in physical order. A disqualified bucket is never read, a
// qualifying one is visited whole, and p is evaluated only in ambivalent
// buckets. The context is checked once per bucket. The pages it read and
// the buckets' grades go on the statement's record.
func qualifying(ctx context.Context, t *Table, p pred.Predicate, rec *stats.Record, visit func(tuple.Tuple, storage.RID) error) error {
	if p != nil {
		if err := p.Bind(t.Schema); err != nil {
			return err
		}
	}
	grades := exec.GradeBuckets(core.NewGrader(t.SMAs()...), p, nil, t.Heap.NumBuckets())
	gc := core.CountGrades(grades)
	rec.Qualify, rec.Disqualify, rec.Ambivalent = int64(gc.Qualifying), int64(gc.Disqualifying), int64(gc.Ambivalent)
	rec.PagesPruned = rec.Disqualify * int64(t.BucketPages)
	var g core.Grade
	keep := func(tp tuple.Tuple, rid storage.RID) error {
		if g == core.Ambivalent && !p.Eval(tp) {
			return nil
		}
		return visit(tp, rid)
	}
	for b := range grades {
		if g = grades[b]; g == core.Disqualifies {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		first, last := t.Heap.BucketRange(b)
		rec.PagesRead += int64(last-first) + 1
		if err := t.Heap.ScanBucket(b, keep); err != nil {
			return err
		}
	}
	return nil
}

// applyRows runs n journaled mutations of t as one statement — the rows of
// an UPDATE or DELETE — checking the context before each. Any error rolls
// the statement back. Callers hold db.mu.
func (db *DB) applyRows(ctx context.Context, t *Table, n int, mutate func(j *stmtJournal, i int) error) (int64, commit, error) {
	j, err := db.beginStmt(t)
	if err != nil {
		return 0, commit{}, err
	}
	for i := 0; i < n; i++ {
		err := ctx.Err()
		if err == nil {
			err = mutate(j, i)
		}
		if err != nil {
			return 0, commit{}, db.abortStmt(j, err)
		}
	}
	c, err := db.commitStmt(j)
	if err != nil {
		return 0, commit{}, err
	}
	return int64(n), c, nil
}

// pendingUpdate is one matched tuple of an UPDATE: the record's position
// plus its old and new images, copied out of page memory. Computing every
// new image before any write-back keeps SET-evaluation errors (type range,
// NaN) from leaving a half-updated table.
type pendingUpdate struct {
	rid      storage.RID
	old, new tuple.Tuple
}

// updateWhere overwrites every tuple matching the predicate (all tuples
// when nil) with the SET clauses evaluated against the old tuple image, as
// SQL prescribes; the statement's commit then refolds each bucket it
// touched in every SMA of the table.
//
// The write lock is held for the whole statement. Matches are collected
// before any tuple is modified, so an update can never re-qualify a row it
// already rewrote (the Halloween problem); the context is checked at every
// bucket of the qualifying scan and before every write-back. The statement
// is atomic: an error after the first write-back — including cancellation
// and failed SMA maintenance — restores every rewritten tuple's old image.
// Numeric assignments into integer and date columns truncate toward zero.
func (db *DB) updateWhere(ctx context.Context, s *parser.UpdateStmt, rec *stats.Record) (int64, commit, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return 0, commit{}, err
	}
	t, err := db.table(s.Table)
	if err != nil {
		return 0, commit{}, err
	}
	apply, err := compileSets(t.Schema, s.Sets)
	if err != nil {
		return 0, commit{}, err
	}
	var pending []pendingUpdate
	err = qualifying(ctx, t, s.Where, rec, func(tp tuple.Tuple, rid storage.RID) error {
		old := tp.Copy()
		newT, err := apply(old)
		if err != nil {
			return err
		}
		pending = append(pending, pendingUpdate{rid: rid, old: old, new: newT})
		return nil
	})
	if err != nil {
		return 0, commit{}, err
	}
	return db.applyRows(ctx, t, len(pending), func(j *stmtJournal, i int) error {
		return j.update(pending[i].rid, pending[i].old, pending[i].new)
	})
}

// deleteWhere removes every tuple matching the predicate (all tuples when
// nil); the statement's commit then refolds each bucket it touched in
// every SMA of the table. It holds the write lock for the whole operation;
// the context is checked at every bucket of the qualifying scan and before
// every delete. The statement is atomic: an error partway through —
// cancellation, I/O, failed SMA maintenance — unmarks every tuple this
// statement deleted.
func (db *DB) deleteWhere(ctx context.Context, s *parser.DeleteStmt, rec *stats.Record) (int64, commit, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return 0, commit{}, err
	}
	t, err := db.table(s.Table)
	if err != nil {
		return 0, commit{}, err
	}
	var rids []storage.RID
	err = qualifying(ctx, t, s.Where, rec, func(_ tuple.Tuple, rid storage.RID) error {
		rids = append(rids, rid)
		return nil
	})
	if err != nil {
		return 0, commit{}, err
	}
	return db.applyRows(ctx, t, len(rids), func(j *stmtJournal, i int) error { return j.delete(rids[i]) })
}

// compileSets type-checks the SET clauses against the schema and returns a
// function computing the new tuple image from an old one. String right-hand
// sides serve CHAR and date columns; everything else needs a scalar
// expression, bound here once for the whole statement.
func compileSets(s *tuple.Schema, sets []parser.SetClause) (func(old tuple.Tuple) (tuple.Tuple, error), error) {
	compiled := make([]func(dst, old tuple.Tuple) error, 0, len(sets))
	for _, sc := range sets {
		i := s.ColumnIndex(sc.Col)
		if i < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in SET", sc.Col)
		}
		col := s.Column(i)
		var set func(dst, old tuple.Tuple) error
		switch {
		case col.Type == tuple.TChar:
			if sc.Str == nil {
				return nil, fmt.Errorf("engine: char(%d) column %s needs a string literal in SET", col.Len, col.Name)
			}
			if len(*sc.Str) > col.Len {
				return nil, fmt.Errorf("engine: value %q exceeds char(%d) column %s", *sc.Str, col.Len, col.Name)
			}
			v := *sc.Str
			set = func(dst, _ tuple.Tuple) error {
				dst.SetChar(i, v)
				return nil
			}
		case sc.Str != nil && col.Type == tuple.TDate:
			d, err := tuple.ParseDate(*sc.Str)
			if err != nil {
				return nil, fmt.Errorf("engine: column %s: %w", col.Name, err)
			}
			set = func(dst, _ tuple.Tuple) error {
				dst.SetInt32(i, d)
				return nil
			}
		case sc.Str != nil:
			return nil, fmt.Errorf("engine: column %s (type %s) cannot be set from string %q",
				col.Name, col.Type, *sc.Str)
		default:
			if err := sc.Expr.Bind(s); err != nil {
				return nil, err
			}
			e, lo, hiExcl := sc.Expr, 0.0, 0.0
			switch col.Type {
			case tuple.TInt32, tuple.TDate:
				lo, hiExcl = math.MinInt32, maxInt32Excl
			case tuple.TInt64:
				lo, hiExcl = math.MinInt64, maxInt64Excl
			}
			set = func(dst, old tuple.Tuple) error {
				v := e.Eval(old)
				if lo != 0 || hiExcl != 0 {
					if math.IsNaN(v) || v < lo || v >= hiExcl {
						return fmt.Errorf("engine: value %g out of range for column %s", v, col.Name)
					}
				}
				dst.SetNumeric(i, v)
				return nil
			}
		}
		compiled = append(compiled, set)
	}
	return func(old tuple.Tuple) (tuple.Tuple, error) {
		dst := old.Copy()
		for _, set := range compiled {
			if err := set(dst, old); err != nil {
				return tuple.Tuple{}, err
			}
		}
		return dst, nil
	}, nil
}
