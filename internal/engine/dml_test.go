package engine_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sma/internal/engine"
	"sma/internal/obs"
	"sma/internal/storage"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// day renders a calendar date in the numeric day domain aggregate outputs
// use (aggregate columns are always float64, even over date columns).
func day(s string) string {
	return fmt.Sprint(tuple.MustParseDate(s))
}

// openEvents creates a small EVENTS table with a fat pad column so only a
// handful of records fit per page, making bucket boundaries cheap to reach.
func openEvents(t testing.TB) *engine.DB {
	t.Helper()
	db, err := engine.Open(t.TempDir(), engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, err = db.ExecContext(context.Background(),
		"create table EVENTS (TS date, KIND char(1), VALUE float64, N int64, PAD char(400))")
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// exec runs a statement, failing the test on error.
func exec(t testing.TB, db *engine.DB, sql string) *engine.ExecResult {
	t.Helper()
	res, err := db.ExecContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// verifyAll re-derives every SMA from the heap and compares.
func verifyAll(t testing.TB, db *engine.DB, table string) {
	t.Helper()
	tbl, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.SMAs() {
		if err := tbl.VerifySMA(s.Def.Name); err != nil {
			t.Fatalf("VerifySMA(%s): %v", s.Def.Name, err)
		}
	}
}

// queryOne runs an aggregation query expected to yield a single row and
// returns that row.
func queryOne(t testing.TB, db *engine.DB, sql string) []string {
	t.Helper()
	res, err := engine.Collect(db, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%s: %d rows, want 1", sql, len(res.Rows))
	}
	return res.Rows[0]
}

// TestInsertAcrossBucketBoundary: a single multi-row INSERT that starts in
// one bucket and ends in the next maintains every SMA, including opening
// new buckets in O(1) per SMA-file.
func TestInsertAcrossBucketBoundary(t *testing.T) {
	db := openEvents(t)
	tbl, err := db.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	perPage := tbl.Heap.RecordsPerPage()
	if perPage < 2 || perPage > 64 {
		t.Fatalf("unexpected records per page %d; pad the schema", perPage)
	}
	// Fill all but one slot of the first bucket.
	var rows []string
	for i := 0; i < perPage-1; i++ {
		rows = append(rows, fmt.Sprintf("(date '2024-01-%02d', 'A', %d, %d, 'p')", i%27+1, i, i))
	}
	exec(t, db, "insert into EVENTS values "+strings.Join(rows, ", "))
	exec(t, db, "define sma vmin select min(VALUE) from EVENTS")
	exec(t, db, "define sma vsum select sum(VALUE) from EVENTS group by KIND")
	exec(t, db, "define sma cnt select count(*) from EVENTS group by KIND")
	if got := tbl.Heap.NumBuckets(); got != 1 {
		t.Fatalf("setup should stay in bucket 0, got %d buckets", got)
	}

	// Five more rows: one lands in bucket 0, four spill into bucket 1.
	res := exec(t, db, `insert into EVENTS values
		(date '2024-02-01', 'B', -5, 100, 'q'),
		(date '2024-02-02', 'A', 50, 101, 'q'),
		(date '2024-02-03', 'C', 60, 102, 'q'),
		(date '2024-02-04', 'B', 70, 103, 'q'),
		(date '2024-02-05', 'A', 80, 104, 'q')`)
	if res.RowsAffected != 5 || res.Kind != "insert" {
		t.Fatalf("insert result = %+v", res)
	}
	if got := tbl.Heap.NumBuckets(); got < 2 {
		t.Fatalf("insert should have crossed into bucket 1, got %d buckets", got)
	}
	verifyAll(t, db, "EVENTS")
	row := queryOne(t, db, "select count(*), min(VALUE) from EVENTS")
	if row[0] != fmt.Sprint(perPage-1+5) || row[1] != "-5" {
		t.Errorf("count/min after boundary insert = %v", row)
	}
}

// TestInsertColumnListAndErrors: explicit column order works; arity and
// type violations are rejected.
func TestInsertColumnListAndErrors(t *testing.T) {
	db := openEvents(t)
	res := exec(t, db,
		"insert into EVENTS (VALUE, TS, N, PAD, KIND) values (1.5, '2024-03-01', 7, 'pp', 'Z')")
	if res.RowsAffected != 1 {
		t.Fatalf("rows affected = %d", res.RowsAffected)
	}
	row := queryOne(t, db, "select KIND, sum(VALUE), max(N) from EVENTS group by KIND")
	if row[0] != "Z" || row[1] != "1.5000" || row[2] != "7" {
		t.Errorf("reordered insert row = %v", row)
	}
	for _, bad := range []string{
		"insert into NOPE values (1)",
		"insert into EVENTS values (date '2024-01-01', 'A', 1, 2)",            // arity
		"insert into EVENTS (TS, KIND) values (date '2024-01-01', 'A')",       // partial column list
		"insert into EVENTS (TS, KIND, VALUE, N, N) values (1, 'A', 1, 2, 3)", // duplicate column
		"insert into EVENTS values (date '2024-01-01', 'AB', 1, 2, 'p')",      // char(1) overflow
		"insert into EVENTS values (date '2024-01-01', 'A', 1, 2.5, 'p')",     // non-integral int64
		"insert into EVENTS values (date '2024-01-01', 'A', 1, 'x', 'p')",     // string into int64
		// MaxInt64 is not float64-representable; the literal arrives as
		// 2^63 and must be rejected, not wrapped to MinInt64.
		"insert into EVENTS values (date '2024-01-01', 'A', 1, 9223372036854775807, 'p')",
		"insert into EVENTS values ('not-a-date', 'A', 1, 2, 'p')", // bad date string
	} {
		if _, err := db.ExecContext(context.Background(), bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

// TestNaNIsRefusedAtEveryWrite: no write stores a NaN in a float column,
// so no bucket's min or max entry can miss one. Table.Append (the append
// path INSERT shares) and UPDATE refuse it with an error naming the column
// and leave the table as it was; an INSERT cannot spell a NaN at all.
func TestNaNIsRefusedAtEveryWrite(t *testing.T) {
	db := openEvents(t)
	exec(t, db, `insert into EVENTS values
		(date '2024-01-01', 'B', 2.5, 1, 'p'),
		(date '2024-01-02', 'A', 0, 2, 'p')`)
	exec(t, db, "define sma vmin select min(VALUE) from EVENTS")
	exec(t, db, "define sma vmax select max(VALUE) from EVENTS")
	unchanged := func(what string) {
		t.Helper()
		verifyAll(t, db, "EVENTS")
		if row := queryOne(t, db, "select count(*), sum(VALUE), min(VALUE) from EVENTS"); strings.Join(row, " ") != "2 2.5000 0" {
			t.Errorf("%s: the table changed: %v", what, row)
		}
	}

	tbl, err := db.Table("EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	tp := tuple.NewTuple(tbl.Schema)
	tp.SetInt32(0, tuple.MustParseDate("2024-01-03"))
	tp.SetChar(1, "C")
	tp.SetFloat64(2, math.NaN())
	if _, err := tbl.Append(tp); err == nil || !strings.Contains(err.Error(), "VALUE") {
		t.Errorf("Table.Append of a NaN: err = %v, want one naming VALUE", err)
	}
	unchanged("Table.Append")

	for _, bad := range []string{
		"insert into EVENTS values (date '2024-01-03', 'C', nan, 3, 'p')",
		"insert into EVENTS values (date '2024-01-03', 'C', 'NaN', 3, 'p')",
	} {
		if _, err := db.ExecContext(context.Background(), bad); err == nil {
			t.Errorf("%s: no error", bad)
		}
	}
	unchanged("INSERT")

	// 0/0 is NaN in the second row, after the first has been rewritten.
	_, err = db.ExecContext(context.Background(), "update EVENTS set VALUE = VALUE / VALUE")
	if err == nil || !strings.Contains(err.Error(), "VALUE") || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("UPDATE to a NaN: err = %v, want one naming VALUE and NaN", err)
	}
	unchanged("UPDATE")
}

// TestUpdateMovesBoundaryValue: updating the tuple that carries a bucket's
// min (or max) leaves the statement-end refold to re-derive the next-best
// value from the bucket.
func TestUpdateMovesBoundaryValue(t *testing.T) {
	db := openEvents(t)
	exec(t, db, `insert into EVENTS values
		(date '2024-01-01', 'A', 10, 1, 'p'),
		(date '2024-01-02', 'A', 20, 2, 'p'),
		(date '2024-01-03', 'A', 30, 3, 'p')`)
	exec(t, db, "define sma vmin select min(VALUE) from EVENTS")
	exec(t, db, "define sma vmax select max(VALUE) from EVENTS")
	exec(t, db, "define sma vsum select sum(VALUE) from EVENTS")

	// Raise the bucket minimum (10 -> 25): min must become 20 via rescan.
	res := exec(t, db, "update EVENTS set VALUE = 25 where VALUE = 10")
	if res.Kind != "update" || res.RowsAffected != 1 {
		t.Fatalf("update result = %+v", res)
	}
	verifyAll(t, db, "EVENTS")
	row := queryOne(t, db, "select min(VALUE), max(VALUE), sum(VALUE) from EVENTS")
	if row[0] != "20" || row[1] != "30" || row[2] != "75" {
		t.Errorf("after boundary min update: %v", row)
	}

	// Lower the bucket maximum (30 -> 5): max must become 25 via rescan,
	// and the new value becomes the min.
	exec(t, db, "update EVENTS set VALUE = VALUE - 25 where VALUE = 30")
	verifyAll(t, db, "EVENTS")
	row = queryOne(t, db, "select min(VALUE), max(VALUE), sum(VALUE) from EVENTS")
	if row[0] != "5" || row[1] != "25" || row[2] != "50" {
		t.Errorf("after boundary max update: %v", row)
	}
}

// TestInsertAfterLateSMADefinition: SMAs defined long after the initial
// load pick up subsequent SQL inserts seamlessly.
func TestInsertAfterLateSMADefinition(t *testing.T) {
	db := openEvents(t)
	exec(t, db, `insert into EVENTS values
		(date '2024-01-01', 'A', 1, 1, 'p'),
		(date '2024-01-02', 'B', 2, 2, 'p')`)
	exec(t, db, "define sma vsum select sum(VALUE) from EVENTS group by KIND")
	exec(t, db, "define sma tmax select max(TS) from EVENTS")
	res := exec(t, db, `insert into EVENTS values
		(date '2024-05-01', 'A', 10, 3, 'p'),
		(date '2024-05-02', 'C', 100, 4, 'p')`)
	if res.RowsAffected != 2 {
		t.Fatalf("rows affected = %d", res.RowsAffected)
	}
	verifyAll(t, db, "EVENTS")
	row := queryOne(t, db, "select max(TS), sum(VALUE) from EVENTS")
	if row[0] != day("2024-05-02") || row[1] != "113" {
		t.Errorf("after late-SMA insert: %v", row)
	}
	res2, err := engine.Collect(db, "select KIND, sum(VALUE) from EVENTS group by KIND order by KIND")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"A", "11"}, {"B", "2"}, {"C", "100"}}
	if len(res2.Rows) != len(want) {
		t.Fatalf("group rows = %v", res2.Rows)
	}
	for i, w := range want {
		if res2.Rows[i][0] != w[0] || res2.Rows[i][1] != w[1] {
			t.Errorf("group %d = %v, want %v", i, res2.Rows[i], w)
		}
	}
}

// TestUpdateDeleteZeroMatches: predicates matching nothing succeed with
// RowsAffected 0 and leave SMAs untouched.
func TestUpdateDeleteZeroMatches(t *testing.T) {
	db := openEvents(t)
	exec(t, db, "insert into EVENTS values (date '2024-01-01', 'A', 1, 1, 'p')")
	exec(t, db, "define sma vsum select sum(VALUE) from EVENTS")
	if res := exec(t, db, "update EVENTS set VALUE = 99 where N > 1000"); res.RowsAffected != 0 {
		t.Errorf("update matched %d rows, want 0", res.RowsAffected)
	}
	if res := exec(t, db, "delete from EVENTS where TS > date '2030-01-01'"); res.RowsAffected != 0 {
		t.Errorf("delete matched %d rows, want 0", res.RowsAffected)
	}
	verifyAll(t, db, "EVENTS")
	if row := queryOne(t, db, "select sum(VALUE), count(*) from EVENTS"); row[0] != "1" || row[1] != "1" {
		t.Errorf("table changed: %v", row)
	}
}

// TestDMLPersistence: incrementally maintained SMAs are re-saved on Close
// — a reopened database must answer from them exactly, not from the stale
// bulkload-time SMA-files.
func TestDMLPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	exec(t, db, "create table EVENTS (TS date, KIND char(1), VALUE float64, N int64, PAD char(400))")
	exec(t, db, `insert into EVENTS values
		(date '2024-01-01', 'A', 10, 1, 'p'),
		(date '2024-01-02', 'B', 20, 2, 'p')`)
	exec(t, db, "define sma vsum select sum(VALUE) from EVENTS group by KIND")
	exec(t, db, "define sma vmin select min(VALUE) from EVENTS")
	exec(t, db, `insert into EVENTS values (date '2024-02-01', 'A', -5, 3, 'p')`)
	exec(t, db, "update EVENTS set VALUE = 7 where N = 2")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	verifyAll(t, db2, "EVENTS")
	row := queryOne(t, db2, "select min(VALUE), sum(VALUE), count(*) from EVENTS")
	if row[0] != "-5" || row[1] != "12" || row[2] != "3" {
		t.Errorf("after reopen: %v", row)
	}
	// And the maintenance hooks keep working on the reopened handle.
	if _, err := db2.ExecContext(ctx, "insert into EVENTS values (date '2024-03-01', 'C', 100, 4, 'p')"); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, db2, "EVENTS")
}

// TestUpdateSetForms: string sets on CHAR and date columns, expression
// sets referencing other columns, group-migrating updates, and type errors.
func TestUpdateSetForms(t *testing.T) {
	db := openEvents(t)
	exec(t, db, `insert into EVENTS values
		(date '2024-01-01', 'A', 10, 1, 'p'),
		(date '2024-01-02', 'B', 20, 2, 'p')`)
	exec(t, db, "define sma vsum select sum(VALUE) from EVENTS group by KIND")
	exec(t, db, "define sma cnt select count(*) from EVENTS group by KIND")

	// Group migration: B becomes A; the per-group SMAs rescan the bucket.
	exec(t, db, "update EVENTS set KIND = 'A', TS = '2024-02-01', VALUE = N * 100 where KIND = 'B'")
	verifyAll(t, db, "EVENTS")
	row := queryOne(t, db, "select KIND, sum(VALUE), count(*), max(TS) from EVENTS group by KIND")
	if row[0] != "A" || row[1] != "210" || row[2] != "2" || row[3] != day("2024-02-01") {
		t.Errorf("after group migration: %v", row)
	}

	for _, bad := range []string{
		"update NOPE set A = 1",
		"update EVENTS set MISSING = 1",             // unknown column
		"update EVENTS set KIND = 1",                // char needs string
		"update EVENTS set KIND = 'XY'",             // char(1) overflow
		"update EVENTS set VALUE = 'x'",             // numeric needs expression
		"update EVENTS set TS = 'not-a-date'",       // bad date string
		"update EVENTS set N = 1/0",                 // +Inf out of int64 range
		"update EVENTS set N = 9223372036854775807", // 2^63 after float64 rounding; must not wrap
		"update EVENTS set PAD = VALUE",             // char set from expression
		"update EVENTS set VALUE = MISSING + 1",     // unknown column in expr
	} {
		if _, err := db.ExecContext(context.Background(), bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
	// Errors must not have modified anything.
	verifyAll(t, db, "EVENTS")
}

// statementPages returns the pages the one statement since the last
// "reset stats" that read any page says it read and pruned, from
// sma_stat_statements (the database needs an observer).
func statementPages(t testing.TB, db *engine.DB) (read, pruned int64) {
	t.Helper()
	row := queryOne(t, db, "select PAGES_READ, PAGES_PRUNED from sma_stat_statements where PAGES_READ >= 1")
	if _, err := fmt.Sscan(row[0]+" "+row[1], &read, &pruned); err != nil {
		t.Fatal(err)
	}
	return read, pruned
}

// TestDMLReadsOnlySurvivingBuckets: on a shipdate-sorted LINEITEM with the
// min/max shipdate SMAs, a one-month UPDATE and a one-month DELETE read
// exactly the pages of the buckets that hold a shipdate in the month —
// worked out from the heap itself, not from the grader — and prune the
// rest; their pool fetches are those pages plus one fetch per row they
// write, the refold of each bucket they wrote in, and the journal's
// snapshot of the tail page. A full scan would read every page. The fetch
// count is exact with prefetch on too: the table is resident, so no
// prefetcher starts, and none of its readers counts a pool hit of its own.
func TestDMLReadsOnlySurvivingBuckets(t *testing.T) {
	for _, window := range []int{-1, 0} {
		t.Run(fmt.Sprintf("prefetch=%d", window), func(t *testing.T) {
			dmlReadsOnlySurvivingBuckets(t, window)
		})
	}
}

func dmlReadsOnlySurvivingBuckets(t *testing.T, window int) {
	db := openLineItemWith(t, 0.002, tpcd.OrderSorted, engine.Options{Obs: obs.NewObserver(obs.Config{}), PrefetchWindow: window})
	exec(t, db, "define sma min select min(L_SHIPDATE) from LINEITEM")
	exec(t, db, "define sma max select max(L_SHIPDATE) from LINEITEM")
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	ship := tbl.Schema.ColumnIndex("L_SHIPDATE")
	for _, c := range []struct{ sql, lo, hi string }{
		{"update LINEITEM set L_QUANTITY = L_QUANTITY + 1 where L_SHIPDATE >= date '1995-03-01' and L_SHIPDATE < date '1995-04-01'",
			"1995-03-01", "1995-04-01"},
		{"delete from LINEITEM where L_SHIPDATE >= date '1996-07-01' and L_SHIPDATE < date '1996-08-01'",
			"1996-07-01", "1996-08-01"},
	} {
		lo, hi := tuple.MustParseDate(c.lo), tuple.MustParseDate(c.hi)
		var surviving, refolded, rows int64
		for b := 0; b < tbl.Heap.NumBuckets(); b++ {
			var bucketRows int64
			mn, mx := int32(math.MaxInt32), int32(math.MinInt32)
			first, last := tbl.Heap.BucketRange(b)
			for p := first; p <= last; p++ {
				if err := tbl.Heap.PageRecords(p, func(tp tuple.Tuple, _ storage.RID) error {
					d := tp.Int32(ship)
					mn, mx = min(mn, d), max(mx, d)
					if d >= lo && d < hi {
						bucketRows++
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			// The SMAs rule a bucket out when its maximum is before the
			// month or its minimum after it.
			if mx >= lo && mn < hi {
				surviving += int64(last-first) + 1
			}
			if bucketRows > 0 {
				refolded += int64(last-first) + 1
			}
			rows += bucketRows
		}
		pages := tbl.Heap.NumPages()
		exec(t, db, "reset stats")
		before := tbl.Heap.Pool().Stats()
		res := exec(t, db, c.sql)
		after := tbl.Heap.Pool().Stats()
		fetches := after.Hits + after.Misses - before.Hits - before.Misses
		if res.RowsAffected != rows || rows == 0 {
			t.Fatalf("%s: %d rows affected, the heap holds %d in the month", c.sql, res.RowsAffected, rows)
		}
		read, pruned := statementPages(t, db)
		if read != surviving || read+pruned != pages {
			t.Errorf("%s: the statement read %d pages and pruned %d, want the %d surviving pages of %d and the rest",
				c.sql, read, pruned, surviving, pages)
		}
		if want := surviving + rows + refolded + 1; fetches != want {
			t.Errorf("%s: %d page fetches, want %d (%d surviving pages of %d, %d rows written, %d refolded, the tail)",
				c.sql, fetches, want, surviving, pages, rows, refolded)
		}
		t.Logf("%s: %d page fetches for %d rows; the table has %d pages", c.sql, fetches, rows, pages)
		verifyAll(t, db, "LINEITEM")
	}
}

// BenchmarkDML times UPDATE and DELETE on a shipdate-sorted LINEITEM (sf
// 0.01) under the paper's eight Query 1 SMAs: a one-month range UPDATE and
// a one-month range DELETE (a different month each time, the table rebuilt
// once every month is gone). Both include the durability wait. fetches/op
// counts buffer-pool page fetches.
func BenchmarkDML(b *testing.B) {
	open := func(b *testing.B) (*engine.DB, *engine.Table) {
		db := openLineItem(b, 0.01, tpcd.OrderSorted)
		for _, ddl := range []string{
			"define sma min select min(L_SHIPDATE) from LINEITEM",
			"define sma max select max(L_SHIPDATE) from LINEITEM",
			"define sma count select count(*) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
			"define sma qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
			"define sma dis select sum(L_DISCOUNT) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
			"define sma ext select sum(L_EXTENDEDPRICE) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
			"define sma extdis select sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
			"define sma extdistax select sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT) * (1 + L_TAX)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		} {
			exec(b, db, ddl)
		}
		tbl, err := db.Table("LINEITEM")
		if err != nil {
			b.Fatal(err)
		}
		return db, tbl
	}
	fetches := func(tbl *engine.Table) int64 {
		s := tbl.Heap.Pool().Stats()
		return s.Hits + s.Misses
	}
	month := func(i int) string {
		return fmt.Sprintf("L_SHIPDATE >= date '%d-%02d-01' and L_SHIPDATE < date '%d-%02d-01'",
			1993+i/12, 1+i%12, 1993+(i+1)/12, 1+(i+1)%12)
	}
	const months = 60 // 1993 through 1997
	b.Run("month_update", func(b *testing.B) {
		db, tbl := open(b)
		f0 := fetches(tbl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exec(b, db, "update LINEITEM set L_QUANTITY = L_QUANTITY + 1 where "+month(i%months))
		}
		b.ReportMetric(float64(fetches(tbl)-f0)/float64(b.N), "fetches/op")
	})
	b.Run("month_delete", func(b *testing.B) {
		var n int64
		for i := 0; i < b.N; i += months {
			b.StopTimer()
			db, tbl := open(b)
			f0 := fetches(tbl)
			b.StartTimer()
			for k := 0; k < months && i+k < b.N; k++ {
				exec(b, db, "delete from LINEITEM where "+month(k))
			}
			n += fetches(tbl) - f0
		}
		b.ReportMetric(float64(n)/float64(b.N), "fetches/op")
	})
}
