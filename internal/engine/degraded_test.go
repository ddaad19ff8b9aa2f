package engine_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"sma/internal/engine"
	"sma/internal/storage"
)

// flipByte XORs one byte of a file in place, corrupting the checksum of
// the page containing it. The file must not be open in an engine.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// seedEvents fills dir with a multi-page EVENTS table — BucketPages 1 and
// a fat PAD column, so ~9 rows land per page/bucket — plus min/max SMAs
// over TS, then closes the database cleanly and returns the heap path.
// Row i carries VALUE i and a date that increases with i, so page 0 holds
// the earliest dates.
func seedEvents(t *testing.T, dir string, rows int) string {
	t.Helper()
	db, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, "create table EVENTS (TS date, KIND char(1), VALUE float64, N int64, PAD char(400))")
	vals := make([]string, rows)
	for i := 0; i < rows; i++ {
		vals[i] = fmt.Sprintf("('2024-%02d-%02d', 'A', %d.0, %d, 'pad')", i/28+1, i%28+1, i, i)
	}
	exec(t, db, "insert into EVENTS values "+strings.Join(vals, ", "))
	exec(t, db, "define sma tmin select min(TS) from EVENTS")
	exec(t, db, "define sma tmax select max(TS) from EVENTS")
	tbl, err := db.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	path := tbl.Disk().Path()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCorruptPageDegradedMode: a flipped byte on disk is caught by the
// page checksum; the query that needed the page fails with a typed error,
// the database degrades to read-only, and queries whose SMA grades
// disqualify the corrupt bucket keep answering exactly.
func TestCorruptPageDegradedMode(t *testing.T) {
	dir := t.TempDir()
	path := seedEvents(t, dir, 200)
	flipByte(t, path, 100) // page 0 body

	db, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Dates increase with i, so the last rows (i >= 190, dated
	// 2024-07-23 on) live in the final buckets and sum to 1945. The
	// selective predicate disqualifies page 0's bucket, the planner picks
	// an SMA scan, and the corrupt page is never fetched.
	const qPruned = "select sum(VALUE) as S from EVENTS where TS >= date '2024-07-23'"
	const qFull = "select sum(VALUE) as S from EVENTS"

	if got := queryOne(t, db, qPruned)[0]; got != "1945" {
		t.Fatalf("pruned sum = %s, want 1945", got)
	}
	if db.Degraded() != nil {
		t.Fatalf("pruned query degraded the database: %v", db.Degraded())
	}

	// The full scan needs page 0.
	_, err = engine.Collect(db, qFull)
	if !storage.IsCorrupt(err) {
		t.Fatalf("full scan: %v, want CorruptPageError", err)
	}
	if err := db.Degraded(); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("Degraded() = %v, want ErrDegraded", err)
	}
	pages := db.CorruptPages()
	if len(pages) != 1 || pages[0].Table != "EVENTS" || pages[0].Page != 0 {
		t.Fatalf("CorruptPages() = %+v", pages)
	}

	// Writes are refused with the typed error; DDL too.
	_, err = db.ExecContext(context.Background(),
		"insert into EVENTS values ('2024-06-01', 'B', 1.0, 1, 'x')")
	if !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("insert on degraded db: %v, want ErrDegraded", err)
	}
	_, err = db.ExecContext(context.Background(), "create table OK (D date)")
	if !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("create table on degraded db: %v, want ErrDegraded", err)
	}

	// Reads that avoid the quarantined page keep working after degrade.
	if got := queryOne(t, db, qPruned)[0]; got != "1945" {
		t.Fatalf("pruned sum after degrade = %s, want 1945", got)
	}
	// The quarantined page fails fast without re-reading the disk.
	if _, err := engine.Collect(db, qFull); !storage.IsCorrupt(err) {
		t.Fatalf("second full scan: %v, want CorruptPageError", err)
	}

	// A scrub pass reports the quarantined page.
	rep, err := db.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Corrupt) != 1 || rep.Corrupt[0].Page != 0 {
		t.Fatalf("scrub report: %+v", rep)
	}
	if db.LastScrub() == nil {
		t.Fatal("LastScrub() = nil after Scrub")
	}
}

// TestScrubFindsCorruption: a scrub pass on a freshly opened database
// detects damage no query has touched yet, and degrades the database.
func TestScrubFindsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := seedEvents(t, dir, 40)
	flipByte(t, path, storage.PageSize+200) // page 1

	db, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Degraded(); err != nil {
		t.Fatalf("degraded before anything read the page: %v", err)
	}
	rep, err := db.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].Page != 1 {
		t.Fatalf("scrub report: %+v", rep)
	}
	if err := db.Degraded(); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("Degraded() after scrub = %v, want ErrDegraded", err)
	}
}

// TestVerifyOnOpenDegrades: with VerifyOnOpen, Open itself runs the scrub
// pass — a corrupted database comes up already degraded instead of
// serving until a query trips over the damage.
func TestVerifyOnOpenDegrades(t *testing.T) {
	dir := t.TempDir()
	path := seedEvents(t, dir, 40)
	flipByte(t, path, 2*storage.PageSize+50) // page 2

	db, err := engine.Open(dir, engine.Options{BucketPages: 1, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Degraded(); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("Degraded() right after open = %v, want ErrDegraded", err)
	}
	rep := db.LastScrub()
	if rep == nil || rep.Clean() {
		t.Fatalf("LastScrub() = %+v, want corruption recorded", rep)
	}
}

// TestScrubCleanDatabase: scrubbing a healthy database reports clean and
// covers every page and SMA file.
func TestScrubCleanDatabase(t *testing.T) {
	dir := t.TempDir()
	seedEvents(t, dir, 40)
	db, err := engine.Open(dir, engine.Options{BucketPages: 1, VerifyOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Degraded(); err != nil {
		t.Fatalf("healthy database degraded: %v", err)
	}
	rep, err := db.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("scrub not clean: %+v", rep)
	}
	if rep.Tables != 1 || rep.PagesScanned == 0 || rep.SMAsChecked != 2 {
		t.Fatalf("scrub coverage: %+v", rep)
	}
	if db.LastScrub() != rep {
		t.Fatal("LastScrub() does not return the latest report")
	}
}

// TestCrashDisarmedByDefault: the kill switch is not exported
// unconditionally — without AllowUnsafeCrash it refuses, and the database
// keeps working.
func TestCrashDisarmedByDefault(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Crash(); err == nil || !strings.Contains(err.Error(), "disarmed") {
		t.Fatalf("Crash() without AllowUnsafeCrash = %v, want disarmed error", err)
	}
	exec(t, db, "create table T (D date)")
}

// TestStatementPanicPoisonsAndRecovers: a panic inside a write statement
// is contained at the statement boundary (typed error, process survives),
// the database is poisoned against further writes, and reopening replays
// the committed prefix exactly.
func TestStatementPanicPoisonsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	seedEvents(t, dir, 20)
	db, err := engine.Open(dir, engine.Options{BucketPages: 1, AllowUnsafeCrash: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()

	tbl, err := db.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	tbl.Disk().SetFault(func(op string, page storage.PageID) error {
		if op == "read" {
			panic("injected read panic")
		}
		return nil
	})
	_, err = db.ExecContext(context.Background(), "delete from EVENTS where VALUE < 0")
	if !errors.Is(err, engine.ErrStatementPanic) {
		t.Fatalf("panicking delete: %v, want ErrStatementPanic", err)
	}
	tbl.Disk().SetFault(nil)

	// Poisoned: even a fault-free statement is refused until reopen.
	_, err = db.ExecContext(context.Background(), "delete from EVENTS where VALUE < 0")
	if !errors.Is(err, engine.ErrStatementPanic) {
		t.Fatalf("statement after poison: %v, want poisoned ErrStatementPanic", err)
	}

	// Reopen recovers the committed state.
	if err := db.Crash(); err != nil {
		t.Logf("crash: %v", err)
	}
	db, err = engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := queryOne(t, db, "select count(*) as N from EVENTS")[0]; got != "20" {
		t.Fatalf("rows after recovery = %s, want 20", got)
	}
}

// TestQueryPanicDoesNotPoison: a panicking query returns a typed error
// but leaves the database writable — reads mutate nothing.
func TestQueryPanicDoesNotPoison(t *testing.T) {
	dir := t.TempDir()
	seedEvents(t, dir, 20)
	db, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	tbl, err := db.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	tbl.Disk().SetFault(func(op string, page storage.PageID) error {
		if op == "read" {
			panic("injected read panic")
		}
		return nil
	})
	// With parallel workers the panic is contained by parallel.Run and
	// surfaces as a worker error; with a single worker it unwinds to the
	// query boundary as ErrStatementPanic. Either way it is an error, not
	// a crash.
	_, err = engine.Collect(db, "select sum(VALUE) as S from EVENTS")
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking query: %v, want contained panic error", err)
	}
	tbl.Disk().SetFault(nil)

	// Not poisoned: DDL still works.
	exec(t, db, "create table OK (D date)")
}
