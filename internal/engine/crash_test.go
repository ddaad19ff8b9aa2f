package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sma/internal/storage"
	"sma/internal/tuple"
	"sma/internal/wal"
)

// heapSnapshot renders a table's observable state — page count plus
// every live tuple's position and bytes — so atomicity tests can assert
// a failed statement left the table byte-identical.
func heapSnapshot(t *testing.T, tbl *Table) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "pages=%d\n", tbl.Heap.NumPages())
	err := tbl.Heap.Scan(func(tp tuple.Tuple, rid storage.RID) error {
		fmt.Fprintf(&b, "%d.%d=%x\n", rid.Page, rid.Slot, tp.Data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// countLive returns the table's record count after checking it against
// the rows a scan of every page finds live.
func countLive(t *testing.T, tbl *Table) int64 {
	t.Helper()
	n, err := tbl.Heap.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	var live int64
	if err := tbl.Heap.Scan(func(tuple.Tuple, storage.RID) error { live++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != live {
		t.Fatalf("NumRecords = %d, but %d rows are live", n, live)
	}
	return n
}

func verifySMAs(t *testing.T, tbl *Table) {
	t.Helper()
	for _, s := range tbl.SMAs() {
		if err := tbl.VerifySMA(s.Def.Name); err != nil {
			t.Fatalf("VerifySMA(%s): %v", s.Def.Name, err)
		}
	}
}

// seedEvents creates the EVENTS table and loads n rows spread over a few
// dates, with an SMA so every DML statement runs maintenance hooks.
func seedEvents(t *testing.T, db *DB, n int) *Table {
	t.Helper()
	ctx := context.Background()
	if _, err := db.ExecContext(ctx,
		"create table EVENTS (TS date, KIND char(1), VALUE float64, PAD char(400))"); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 0; i < n; i++ {
		vals = append(vals, fmt.Sprintf("(date '2024-01-%02d', '%c', %d.5, 'x')",
			i%27+1, 'A'+i%3, i))
	}
	if _, err := db.ExecContext(ctx, "insert into EVENTS values "+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx,
		"define sma VSUM select sum(VALUE) from EVENTS group by KIND"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx,
		"define sma TMIN select min(TS) from EVENTS"); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestInsertAtomicBadRow: a multi-row INSERT whose later row fails
// validation inserts nothing — the statement is all-or-nothing, not
// prefix-applied.
func TestInsertAtomicBadRow(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := seedEvents(t, db, 10)
	before := heapSnapshot(t, tbl)

	_, err = db.ExecContext(context.Background(),
		"insert into EVENTS values (date '2024-02-01', 'A', 1.5, 'x'), (date '2024-02-02', 'B')")
	if err == nil {
		t.Fatal("short row accepted")
	}
	if got := heapSnapshot(t, tbl); got != before {
		t.Fatal("failed INSERT modified the table")
	}
	verifySMAs(t, tbl)
	// The table is fully usable afterwards.
	if _, err := db.ExecContext(context.Background(),
		"insert into EVENTS values (date '2024-02-01', 'A', 1.5, 'x')"); err != nil {
		t.Fatal(err)
	}
	verifySMAs(t, tbl)
}

// TestInsertAtomicMaintFault: an SMA maintenance failure mid-statement —
// after some page runs were hooked — rolls the heap back to the statement
// start and repairs the SMAs, so a half-maintained statement is never
// visible.
func TestInsertAtomicMaintFault(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := seedEvents(t, db, 10)
	before := heapSnapshot(t, tbl)

	boom := errors.New("sma maintenance fault")
	calls := 0
	tbl.maintFault = func() error {
		calls++
		if calls > 3 { // let a few runs hook, then fail mid-statement
			return boom
		}
		return nil
	}
	// Nine EVENTS rows fill a page and the seed left one on the last: twelve
	// more are two page runs of two hook calls each. The fault lets the
	// first run through both SMAs and the second through one, so the abort
	// has a new page to give back and vectors ahead of the heap to repair.
	var vals []string
	for i := 0; i < 12; i++ {
		vals = append(vals, fmt.Sprintf("(date '2024-03-%02d', '%c', %d.5, 'x')", i+1, 'A'+i%3, i+1))
	}
	_, err = db.ExecContext(context.Background(), "insert into EVENTS values "+strings.Join(vals, ", "))
	if !errors.Is(err, boom) {
		t.Fatalf("insert: got %v, want injected fault", err)
	}
	if calls <= 3 {
		t.Fatalf("fault fired too early (%d hook calls): rollback not exercised", calls)
	}
	tbl.maintFault = nil
	if got := heapSnapshot(t, tbl); got != before {
		t.Fatal("aborted INSERT left rows in the table")
	}
	verifySMAs(t, tbl)
	if _, err := db.ExecContext(context.Background(),
		"insert into EVENTS values (date '2024-03-07', 'A', 7.5, 'x')"); err != nil {
		t.Fatalf("insert after aborted statement: %v", err)
	}
	verifySMAs(t, tbl)
}

// TestDMLAtomicRefoldFault: an UPDATE or DELETE whose statement-end refold
// fails — the fault fires before the second SMA, with every row already
// written — rolls the heap back to the statement start and leaves every
// SMA equal to a fresh build; the same statement then succeeds.
func TestDMLAtomicRefoldFault(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := seedEvents(t, db, 60)
	boom := errors.New("sma refold fault")
	for _, sql := range []string{
		"update EVENTS set VALUE = VALUE * 3, KIND = 'D' where TS <= date '2024-01-10'",
		"delete from EVENTS where TS >= date '2024-01-20'",
	} {
		before := heapSnapshot(t, tbl)
		calls := 0
		tbl.maintFault = func() error {
			if calls++; calls == 2 {
				return boom
			}
			return nil
		}
		_, err := db.ExecContext(context.Background(), sql)
		tbl.maintFault = nil
		if !errors.Is(err, boom) {
			t.Fatalf("%s: got %v, want the injected fault", sql, err)
		}
		if got := heapSnapshot(t, tbl); got != before {
			t.Fatalf("%s: the failed refold left the heap changed", sql)
		}
		verifySMAs(t, tbl)
		res, err := db.ExecContext(context.Background(), sql)
		if err != nil || res.RowsAffected == 0 {
			t.Fatalf("%s after the aborted statement: %v, %d rows", sql, err, res.RowsAffected)
		}
		verifySMAs(t, tbl)
	}
}

// flakyCtx is a context whose Err starts reporting cancellation after a
// fixed number of checks — it cancels a statement at a deterministic
// point partway through its apply loop.
type flakyCtx struct {
	context.Context
	calls, limit int
}

func (c *flakyCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestUpdateAtomicCancellation: cancelling an UPDATE after some rows are
// rewritten rolls every one of them back.
func TestUpdateAtomicCancellation(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := seedEvents(t, db, 60)
	before := heapSnapshot(t, tbl)

	// ~19 fat rows per page → 60 rows span 4 pages. The scan phase checks
	// the context once per bucket (one page here), the apply phase once
	// per row; limit 15
	// cancels with roughly ten updates applied and pending rollback.
	ctx := &flakyCtx{Context: context.Background(), limit: 15}
	_, err = db.ExecContext(ctx, "update EVENTS set VALUE = VALUE + 1")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("update: got %v, want context.Canceled", err)
	}
	if got := heapSnapshot(t, tbl); got != before {
		t.Fatal("cancelled UPDATE left rewritten rows behind")
	}
	verifySMAs(t, tbl)
	if _, err := db.ExecContext(context.Background(),
		"update EVENTS set VALUE = VALUE + 1 where KIND = 'A'"); err != nil {
		t.Fatalf("update after cancelled statement: %v", err)
	}
	verifySMAs(t, tbl)
}

// TestCrashRecovery kills the engine without flushing and reopens: every
// committed statement — inserts, updates, deletes — must be replayed
// from the redo log, and the SMAs rebuilt to match.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl := seedEvents(t, db, 40)
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, "update EVENTS set VALUE = VALUE + 100 where KIND = 'B'"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, "delete from EVENTS where KIND = 'C'"); err != nil {
		t.Fatal(err)
	}
	want := heapSnapshot(t, tbl)
	wantRows, err := tbl.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(db, "select KIND, sum(VALUE) as S from EVENTS group by KIND")
	if err != nil {
		t.Fatal(err)
	}
	wantAgg := fmt.Sprint(res.Rows)

	if err := db.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	db2, err := Open(dir, Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer db2.Close()
	rs := db2.RecoveryStats()
	if !rs.Performed || rs.WALMissing {
		t.Fatalf("recovery stats = %+v, want a WAL replay", rs)
	}
	if rs.Statements == 0 || rs.Ops == 0 {
		t.Fatalf("recovery replayed nothing: %+v", rs)
	}
	tbl2, err := db2.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	if got := heapSnapshot(t, tbl2); got != want {
		t.Fatal("recovered table differs from pre-crash state")
	}
	if n, err := tbl2.NumRecords(); err != nil || n != wantRows {
		t.Fatalf("recovered rows = %d (%v), want %d", n, err, wantRows)
	}
	verifySMAs(t, tbl2)
	res2, err := Collect(db2, "select KIND, sum(VALUE) as S from EVENTS group by KIND")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res2.Rows) != wantAgg {
		t.Fatalf("aggregate after recovery = %v, want %v", res2.Rows, wantAgg)
	}

	// A clean Close hands the next Open a clean directory: no recovery.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(dir, Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.RecoveryStats().Performed {
		t.Fatal("recovery ran after a clean shutdown")
	}
	tbl3, err := db3.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	if got := heapSnapshot(t, tbl3); got != want {
		t.Fatal("clean reopen lost data")
	}
}

// TestCrashRecoveryTornTail appends garbage after the committed log and
// reopens: recovery must discard the torn tail and replay the committed
// prefix exactly.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl := seedEvents(t, db, 20)
	want := heapSnapshot(t, tbl)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(db.walPath(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x01torn half-written record")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(dir, Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatalf("Open over torn tail: %v", err)
	}
	defer db2.Close()
	rs := db2.RecoveryStats()
	if !rs.Performed || rs.DiscardedBytes == 0 {
		t.Fatalf("recovery stats = %+v, want discarded tail bytes", rs)
	}
	tbl2, err := db2.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	if got := heapSnapshot(t, tbl2); got != want {
		t.Fatal("torn tail corrupted the committed prefix")
	}
	verifySMAs(t, tbl2)
}

// TestCrashAfterCheckpoint forces a checkpoint per statement and then
// crashes: recovery over the truncated log must still land on exactly
// the committed state (the checkpoint already flushed it).
func TestCrashAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{BucketPages: 1, CheckpointBytes: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl := seedEvents(t, db, 20)
	if _, err := db.ExecContext(context.Background(), "delete from EVENTS where KIND = 'A'"); err != nil {
		t.Fatal(err)
	}
	want := heapSnapshot(t, tbl)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatalf("Open after checkpointed crash: %v", err)
	}
	defer db2.Close()
	if !db2.RecoveryStats().Performed {
		t.Fatal("unclean directory skipped recovery")
	}
	tbl2, err := db2.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	if got := heapSnapshot(t, tbl2); got != want {
		t.Fatal("recovery after checkpoint lost or duplicated statements")
	}
	verifySMAs(t, tbl2)
}

// insertEvents runs one INSERT of n generated EVENTS rows.
func insertEvents(t *testing.T, db *DB, from, n int) {
	t.Helper()
	var vals []string
	for i := from; i < from+n; i++ {
		vals = append(vals, fmt.Sprintf("(date '2024-04-%02d', '%c', %d.25, 'y')", i%28+1, 'A'+i%4, i))
	}
	if _, err := db.ExecContext(context.Background(), "insert into EVENTS values "+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
}

// opRecorder collects the redo operations of a log.
type opRecorder struct{ ops []wal.Op }

func (r *opRecorder) ApplyOp(op wal.Op) error {
	op.Data = append([]byte(nil), op.Data...)
	r.ops = append(r.ops, op)
	return nil
}
func (r *opRecorder) ApplyPageImage(string, int64, []byte) error { return nil }

// dirBytes reads every regular file under dir, keyed by relative path —
// but for the log and the lock sentinel unless all is set.
func dirBytes(t *testing.T, dir string, all bool) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !all && (d.Name() == WALFileName || d.Name() == LockFileName) {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoveryAcrossRecordShapes: the same multi-page statements logged as
// insert runs (what the engine writes) and as one insert record per row
// (what logs written before run records hold, and what wal.Batch.Insert
// still writes) recover to byte-identical heaps and SMA-files.
func TestRecoveryAcrossRecordShapes(t *testing.T) {
	opts := Options{BucketPages: 1, AllowUnsafeCrash: true}
	runDir, rowDir := t.TempDir(), t.TempDir()
	db, err := Open(runDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := seedEvents(t, db, 30) // nine rows to a page: each statement spans pages
	stmtRows := []int{30, 25, 1, 20}
	from := 30
	for _, n := range stmtRows[1:] {
		insertEvents(t, db, from, n)
		from += n
	}
	want := heapSnapshot(t, tbl)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	// The second directory is the first but for its log, rewritten with the
	// same statements as per-row records.
	for name, content := range dirBytes(t, runDir, true) {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(rowDir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(rowDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var rec opRecorder
	st, err := wal.Replay(filepath.Join(runDir, WALFileName), &rec)
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Statements) != len(stmtRows) || len(rec.ops) <= len(stmtRows) {
		t.Fatalf("the engine's log holds %d statements in %d records, want %d multi-page statements",
			st.Statements, len(rec.ops), len(stmtRows))
	}
	l, err := wal.Create(filepath.Join(rowDir, WALFileName), st.Header, wal.Grouped())
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.ops
	for _, rows := range stmtRows {
		b := l.NewBatch()
		for rows > 0 {
			op := ops[0]
			if ops = ops[1:]; op.Count < 1 || !op.IsInsert() {
				t.Fatalf("unexpected record in an insert-only log: %+v", op)
			}
			rs := len(op.Data) / op.Count
			for i := 0; i < op.Count; i++ {
				b.Insert(op.Table, op.Page, op.Slot+i, op.Data[i*rs:(i+1)*rs])
			}
			rows -= op.Count
		}
		if rows != 0 {
			t.Fatalf("an insert run straddles two statements")
		}
		if _, err := l.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var recovered [2]map[string]string
	for i, dir := range []string{runDir, rowDir} {
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open %s: %v", dir, err)
		}
		if rs := db.RecoveryStats(); !rs.Performed || int(rs.Statements) != len(stmtRows) {
			t.Fatalf("recovery of %s: %+v", dir, rs)
		}
		tbl, err := db.Table("EVENTS")
		if err != nil {
			t.Fatal(err)
		}
		if got := heapSnapshot(t, tbl); got != want {
			t.Fatalf("log shape %d: recovered table differs from the pre-crash state", i)
		}
		verifySMAs(t, tbl)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		recovered[i] = dirBytes(t, dir, false)
	}
	if len(recovered[0]) < 4 { // catalog, heap, two SMA-files at least
		t.Fatalf("only %d files compared", len(recovered[0]))
	}
	for name, run := range recovered[0] {
		if row, ok := recovered[1][name]; !ok || row != run {
			t.Errorf("%s differs between the run-record and the per-row recovery", name)
		}
	}
	if len(recovered[1]) != len(recovered[0]) {
		t.Errorf("recoveries left %d and %d files", len(recovered[0]), len(recovered[1]))
	}
}

// TestCrashBeforeFirstWriteBack: pages are born in the buffer pool and the
// file grows when they are first written back, so a crash finds the file
// shorter than the committed page count. Recovery rebuilds the missing pages
// from the log, and still drops — and counts in TruncatedPages — exactly the
// pages that lie past the last committed one.
func TestCrashBeforeFirstWriteBack(t *testing.T) {
	opts := Options{BucketPages: 1, AllowUnsafeCrash: true}
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := seedEvents(t, db, 30)
	insertEvents(t, db, 30, 40)
	want := heapSnapshot(t, tbl)
	pages := tbl.Heap.NumPages()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(db.tablePath("EVENTS")); err != nil || fi.Size() >= pages*storage.PageSize {
		t.Fatalf("heap file has %d bytes (%v) for %d committed pages: no page was left unwritten", fi.Size(), err, pages)
	}
	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rs := db.RecoveryStats(); !rs.Performed || rs.TruncatedPages != 0 {
		t.Fatalf("recovery over a short file: %+v", rs)
	}
	if tbl, err = db.Table("EVENTS"); err != nil {
		t.Fatal(err)
	}
	if got := heapSnapshot(t, tbl); got != want {
		t.Fatal("pages never written back were not rebuilt from the log")
	}
	verifySMAs(t, tbl)

	// Now the other way round: the file is longer than the committed page
	// count — what a statement that died before its commit left behind when
	// allocation still wrote a zero page at once, and what a directory of
	// that age may hold.
	insertEvents(t, db, 70, 20)
	want = heapSnapshot(t, tbl)
	pages = tbl.Heap.NumPages()
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(db.tablePath("EVENTS"), (pages+2)*storage.PageSize); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if rs := db.RecoveryStats(); rs.TruncatedPages != 2 {
		t.Fatalf("recovery dropped %d pages, two lay past the last committed one", rs.TruncatedPages)
	}
	if tbl, err = db.Table("EVENTS"); err != nil {
		t.Fatal(err)
	}
	if got := heapSnapshot(t, tbl); got != want {
		t.Fatal("recovery did not return to the committed prefix")
	}
	verifySMAs(t, tbl)
}

// TestUncleanOpenWithoutLog: a directory left dirty with no log at all
// (a crash before the log was created) has no redo to replay, so the heaps
// as found are the truth. Every row on disk must survive — no page may be
// truncated as uncommitted — and every SMA, whose saved files predate rows
// the crashed session wrote back, must be rebuilt and saved.
func TestUncleanOpenWithoutLog(t *testing.T) {
	opts := Options{BucketPages: 1, AllowUnsafeCrash: true}
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	seedEvents(t, db, 30)
	if _, err := db.ExecContext(context.Background(), "delete from EVENTS where KIND = 'C'"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	// Rows written back to the heap, but not yet to the SMA-files.
	insertEvents(t, db, 30, 40)
	if err := tbl.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	want := heapSnapshot(t, tbl)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(db.walPath()); err != nil {
		t.Fatal(err)
	}

	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if rs := db.RecoveryStats(); !rs.Performed || !rs.WALMissing || rs.TruncatedPages != 0 || rs.SMAsRebuilt != 2 {
		t.Fatalf("recovery stats = %+v, want a log-less recovery rebuilding 2 SMAs", rs)
	}
	if tbl, err = db.Table("EVENTS"); err != nil {
		t.Fatal(err)
	}
	if got := heapSnapshot(t, tbl); got != want {
		t.Fatal("log-less recovery lost rows that were on disk")
	}
	verifySMAs(t, tbl)
	// 30 seeded, 10 of kind C deleted, 40 inserted: the deleted count was
	// recounted from the pages.
	if n := countLive(t, tbl); n != 60 {
		t.Fatalf("%d records after the log-less recovery, want 60", n)
	}

	// The rebuilt SMA-files were saved: a clean reopen loads them.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if tbl, err = db.Table("EVENTS"); err != nil {
		t.Fatal(err)
	}
	verifySMAs(t, tbl)
	if n := countLive(t, tbl); n != 60 {
		t.Fatalf("%d records after a clean reopen, want 60", n)
	}
}

// TestDeletedCountOnEveryOpen: NumRecords is the heap's slot count less a
// deleted count that no page read recomputes, so each way Open can start
// must arrive at the right count. A clean reopen takes it from the
// checkpoint header and reads no page but the last. A crash recovery adds
// one per replayed delete record to the checkpoint's count, not one per
// mark it changes: with a pool of 4 pages, pages the DELETE marked are
// written back, marks and all, before the crash, and counting changed
// marks would miss them. (The log-less recovery is
// TestUncleanOpenWithoutLog.)
func TestDeletedCountOnEveryOpen(t *testing.T) {
	opts := Options{BucketPages: 1, PoolPages: 4, AllowUnsafeCrash: true}
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	seedEvents(t, db, 270)
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, "delete from EVENTS where KIND = 'C'"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tbl.Heap.NumRecords(); err != nil || n != 180 {
		t.Fatalf("NumRecords after a clean reopen = %d (%v), want 180", n, err)
	}
	if reads, _ := tbl.disk.Stats(); reads > 1 {
		t.Fatalf("a clean Open and NumRecords read %d pages, want at most the last", reads)
	}
	countLive(t, tbl)

	// A committed DELETE after the checkpoint, then a scan through the
	// small pool that writes its marked pages back.
	if _, err := db.ExecContext(ctx, "delete from EVENTS where KIND = 'A' and TS <= date '2024-01-05'"); err != nil {
		t.Fatal(err)
	}
	want := countLive(t, tbl)
	if want >= 180 {
		t.Fatalf("the second DELETE left %d records", want)
	}
	var marked int
	var page [storage.PageSize]byte
	for p := int64(0); p < tbl.disk.NumPages(); p++ {
		if err := tbl.disk.ReadPage(storage.PageID(p), page[:]); err != nil {
			t.Fatal(err)
		}
		marked += int(page[2]) | int(page[3])<<8
	}
	if marked <= 90 {
		t.Fatalf("%d marks on disk before the crash: no page of the second DELETE was written back", marked)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if rs := db.RecoveryStats(); !rs.Performed || rs.Statements != 1 {
		t.Fatalf("recovery stats = %+v, want the DELETE replayed", rs)
	}
	if tbl, err = db.Table("EVENTS"); err != nil {
		t.Fatal(err)
	}
	if n := countLive(t, tbl); n != want {
		t.Fatalf("%d records after recovery, want %d", n, want)
	}
	verifySMAs(t, tbl)
}
