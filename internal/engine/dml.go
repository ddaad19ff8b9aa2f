package engine

import (
	"context"
	"fmt"
	"math"
	"slices"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
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
// run it, and it refuses a NaN before touching the table. It returns the
// first record's position and the statement's commit. Callers hold db.mu.
func (db *DB) appendRows(ctx context.Context, t *Table, recs []byte) (storage.RID, commit, error) {
	if err := refuseNaN(t.Schema, recs); err != nil {
		return storage.RID{}, commit{}, err
	}
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

// refuseNaN returns an error naming the first float64 column that holds a
// NaN in the packed records recs. No comparison with a NaN holds, so a NaN
// never becomes its bucket's min or max entry, and the bucket could be
// graded qualifying for a predicate the NaN fails: no write may store one.
func refuseNaN(s *tuple.Schema, recs []byte) error {
	rs := s.RecordSize()
	for i := 0; i < s.NumColumns(); i++ {
		if s.Column(i).Type != tuple.TFloat64 {
			continue
		}
		for r := 0; r < len(recs); r += rs {
			if v := (tuple.Tuple{Schema: s, Data: recs[r : r+rs]}).Float64(i); v != v {
				return errNaN(s.Column(i).Name)
			}
		}
	}
	return nil
}

// errNaN is the error of a write that would store a NaN in column col.
func errNaN(col string) error {
	return fmt.Errorf("engine: column %s cannot hold NaN", col)
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

// changeWhere runs an UPDATE — sets holds its SET clauses, at least one —
// or, with sets nil, a DELETE of every tuple of the table matching where
// (all tuples when nil). The statement's commit then refolds each bucket it
// touched in every SMA of the table.
//
// The rows are found by the queries' own SMA_Scan (Fig. 6),
// exec.BatchSMAScan with the table's SMAs: a disqualified bucket is never
// read, and the selection kernels run the predicate only in ambivalent
// ones. The pages come through the page stream, prefetched, with the
// context checked before every page, and each row carries its RID from the
// page read. The pages read and pruned and the buckets' grades go on the
// statement's record.
//
// The write lock is held for the whole statement. Every match is collected
// — its RID and, for an UPDATE, its old and new images packed into two
// arenas, the SET clauses evaluated against the old image as SQL prescribes
// — before any tuple is written, so an update can never re-qualify a row it
// already rewrote (the Halloween problem), and a SET-evaluation error (type
// range, NaN) leaves the table untouched. The context is checked before
// every write. The statement is atomic: an error after the first write —
// cancellation, I/O, failed SMA maintenance — restores every rewritten
// tuple's old image and unmarks every deleted one. Numeric assignments into
// integer and date columns truncate toward zero.
func (db *DB) changeWhere(ctx context.Context, table string, where pred.Predicate, sets []parser.SetClause, rec *stats.Record) (int64, commit, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkOpen(); err != nil {
		return 0, commit{}, err
	}
	t, err := db.table(table)
	if err != nil {
		return 0, commit{}, err
	}
	var l *setList
	if sets != nil {
		if l, err = compileSets(t.Schema, sets); err != nil {
			return 0, commit{}, err
		}
	}
	var rids []storage.RID
	var olds, news []byte
	scan := exec.NewBatchSMAScan(t.Heap, where, core.NewGrader(t.SMAs()...), db.pl.Exec)
	scan.Ctx, scan.RIDs = ctx, true
	err = scan.Open()
	for err == nil {
		var b *exec.Batch
		if b, err = scan.NextBatch(); b == nil {
			break
		}
		// One allocation per batch at most: appending record by record
		// would regrow the arena many times over.
		from := len(olds)
		rids = slices.Grow(rids, len(b.Sel))
		if l != nil {
			olds = slices.Grow(olds, len(b.Sel)*t.Schema.RecordSize())
		}
		for _, i := range b.Sel {
			rids = append(rids, b.RID(i))
			if l != nil {
				olds = append(olds, b.Tuple(i).Data...)
			}
		}
		if l != nil {
			news = append(news, olds[from:]...)
			err = l.apply(news[from:])
		}
	}
	scan.Close()
	st := scan.Stats()
	rec.PagesRead, rec.PagesPruned = int64(st.PagesRead), int64(st.PagesPruned)
	rec.Qualify, rec.Disqualify, rec.Ambivalent = int64(st.Qualifying), int64(st.Disqualifying), int64(st.Ambivalent)
	if err != nil {
		return 0, commit{}, err
	}

	j, err := db.beginStmt(t)
	if err != nil {
		return 0, commit{}, err
	}
	rs := t.Schema.RecordSize()
	image := func(arena []byte, i int) tuple.Tuple {
		return tuple.Tuple{Schema: t.Schema, Data: arena[i*rs : (i+1)*rs]}
	}
	for i, rid := range rids {
		err := ctx.Err()
		switch {
		case err != nil:
		case l == nil:
			err = j.delete(rid)
		default:
			err = j.update(rid, image(olds, i), image(news, i))
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

// setList is an UPDATE's SET clauses compiled against a table's schema. A
// CHAR clause writes its string; every other clause — a date string as its
// day number — is a node of one vector program, computed a batch at a time
// with the float64 operations of the scans' folds.
type setList struct {
	schema  *tuple.Schema
	clauses []setClause
	prog    expr.Program
	vals    []float64 // the program's value vectors
}

// setClause is one compiled SET clause: a CHAR column's string (node -1),
// or the program node of a numeric column with the exclusive value range
// of an integer or date column (both 0 for float64).
type setClause struct {
	col        int
	str        string
	node       int32
	lo, hiExcl float64
}

// compileSets type-checks the SET clauses against the schema. String
// right-hand sides serve CHAR and date columns; everything else needs a
// scalar expression, compiled here once for the whole statement.
func compileSets(s *tuple.Schema, sets []parser.SetClause) (*setList, error) {
	l := &setList{schema: s}
	for _, sc := range sets {
		i := s.ColumnIndex(sc.Col)
		if i < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in SET", sc.Col)
		}
		col, c, e := s.Column(i), setClause{col: i, node: -1}, sc.Expr
		switch {
		case col.Type == tuple.TChar:
			if sc.Str == nil {
				return nil, fmt.Errorf("engine: char(%d) column %s needs a string literal in SET", col.Len, col.Name)
			}
			if len(*sc.Str) > col.Len {
				return nil, fmt.Errorf("engine: value %q exceeds char(%d) column %s", *sc.Str, col.Len, col.Name)
			}
			c.str = *sc.Str
			l.clauses = append(l.clauses, c)
			continue
		case sc.Str != nil && col.Type == tuple.TDate:
			d, err := tuple.ParseDate(*sc.Str)
			if err != nil {
				return nil, fmt.Errorf("engine: column %s: %w", col.Name, err)
			}
			e = expr.NewConst(float64(d))
		case sc.Str != nil:
			return nil, fmt.Errorf("engine: column %s (type %s) cannot be set from string %q",
				col.Name, col.Type, *sc.Str)
		}
		var err error
		if c.node, err = l.prog.Add(e, s); err != nil {
			return nil, err
		}
		switch col.Type {
		case tuple.TInt32, tuple.TDate:
			c.lo, c.hiExcl = math.MinInt32, maxInt32Excl
		case tuple.TInt64:
			c.lo, c.hiExcl = math.MinInt64, maxInt64Excl
		}
		l.clauses = append(l.clauses, c)
	}
	return l, nil
}

// apply turns the packed old images in recs into the new ones, in place:
// the clauses in order, record by record, every expression evaluated
// against the old image. A value outside an integer or date column's
// range, or a NaN in any column, fails the statement.
func (l *setList) apply(recs []byte) error {
	rs := l.schema.RecordSize()
	n := len(recs) / rs
	vecs := l.prog.Eval(&l.vals, recs, rs, nil, n)
	for r := 0; r < n; r++ {
		dst := tuple.Tuple{Schema: l.schema, Data: recs[r*rs : (r+1)*rs]}
		for _, c := range l.clauses {
			if c.node < 0 {
				dst.SetChar(c.col, c.str)
				continue
			}
			vals, v := l.prog.Value(c.node, vecs, n)
			if vals != nil {
				v = vals[r]
			}
			if (c.lo != 0 || c.hiExcl != 0) && (math.IsNaN(v) || v < c.lo || v >= c.hiExcl) {
				return fmt.Errorf("engine: value %g out of range for column %s", v, l.schema.Column(c.col).Name)
			}
			if math.IsNaN(v) {
				return errNaN(l.schema.Column(c.col).Name)
			}
			dst.SetNumeric(c.col, v)
		}
	}
	return nil
}
