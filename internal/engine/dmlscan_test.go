package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sma/internal/engine"
	"sma/internal/obs"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// openDated creates table T (D date, V float64, PAD char) with eight rows
// a page, one a day in date order — page p holds days [8p, 8p+8) after
// 1990-01-01 — and the min/max SMAs on D.
func openDated(t *testing.T, pages int, opts engine.Options) (*engine.DB, *engine.Table) {
	t.Helper()
	opts.Obs = obs.NewObserver(obs.Config{})
	db, err := engine.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	exec(t, db, fmt.Sprintf("create table T (D date, V float64, PAD char(%d))", testutil.RecordSize(8)-12))
	var b strings.Builder
	b.WriteString("insert into T values ")
	for r := 0; r < 8*pages; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(date '%s', %d.5, 'x')", datedDay(r), r%7)
	}
	exec(t, db, b.String())
	exec(t, db, "define sma dmin select min(D) from T")
	exec(t, db, "define sma dmax select max(D) from T")
	tbl, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if per := tbl.Heap.RecordsPerPage(); per != 8 || tbl.Heap.NumPages() != int64(pages) {
		t.Fatalf("%d records a page and %d pages, want 8 and %d", per, tbl.Heap.NumPages(), pages)
	}
	return db, tbl
}

// datedDay is the date of row r of openDated's table.
func datedDay(r int) string {
	return tuple.FormatDate(tuple.MustParseDate("1990-01-01") + int32(r))
}

// TestPagesPrunedCountsShortLastBucket: a table of 22 pages in buckets of 4
// ends in a bucket of 2. A statement that disqualifies it prunes its 2
// pages, not 4, so that the pages a statement read and the pages it pruned
// add up to the table — for a query's SMA_Scan and for a DELETE — and the
// pages an SMA alone saves count it the same way.
func TestPagesPrunedCountsShortLastBucket(t *testing.T) {
	db, tbl := openDated(t, 22, engine.Options{BucketPages: 4})
	for _, c := range []struct {
		sql      string
		read     int64
		strategy string
	}{
		// Bucket 2 qualifies; the others are disqualified.
		{fmt.Sprintf("select D, V from T where D >= date '%s' and D <= date '%s'", datedDay(64), datedDay(95)), 4, "SMA_Scan"},
		// Bucket 0 is ambivalent; the others are disqualified.
		{fmt.Sprintf("delete from T where D <= date '%s'", datedDay(12)), 4, ""},
	} {
		exec(t, db, "reset stats")
		if c.strategy != "" {
			res, err := engine.Collect(db, c.sql)
			if err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
			if got := res.Plan.StrategyName(); got != c.strategy {
				t.Fatalf("%s: plan %s, want %s", c.sql, got, c.strategy)
			}
			// dmax alone rules out buckets 0 and 1, dmin buckets 3 to 5.
			saved, err := engine.Collect(db, "select SMA_NAME, PAGES_SAVED from sma_stat_smas")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(saved.Rows) != "[[dmax 8] [dmin 10]]" {
				t.Errorf("%s: pages saved per SMA %v, want [[dmax 8] [dmin 10]]", c.sql, saved.Rows)
			}
		} else {
			exec(t, db, c.sql)
		}
		read, pruned := statementPages(t, db)
		if read != c.read || read+pruned != tbl.Heap.NumPages() {
			t.Errorf("%s: %d pages read and %d pruned, want %d read and %d pages in all",
				c.sql, read, pruned, c.read, tbl.Heap.NumPages())
		}
	}
}

// TestDMLScanPageContract holds the qualifying scan of UPDATE and DELETE to
// the page stream's contract, with prefetch on and off and at batch sizes 1
// and 1 024. A disk read hook records the pages read from a cold pool:
// every page of a bucket the SMAs leave is read exactly once and no other
// page, apart from the journal's snapshot of the tail page; the statement
// counts exactly those pages. A context cancelled from inside a page read
// stops the scan within one page and changes no row. No page stays pinned
// and no reader goroutine outlives the statement.
func TestDMLScanPageContract(t *testing.T) {
	const pages = 30
	lo, hi := 8*7+3, 8*16+5 // days inside pages 7 and 16: buckets 3 and 8 ambivalent
	where := fmt.Sprintf("D >= date '%s' and D <= date '%s'", datedDay(lo), datedDay(hi))
	for _, window := range []int{-1, 0} {
		for _, batch := range []int{1, 1024} {
			for _, sql := range []string{"update T set V = V + 1 where " + where, "delete from T where " + where} {
				t.Run(fmt.Sprintf("window=%d/batch=%d/%.6s", window, batch, sql), func(t *testing.T) {
					db, tbl := openDated(t, pages, engine.Options{BucketPages: 2, PrefetchWindow: window, BatchSize: batch})
					dmlScanContract(t, db, tbl, sql, lo, hi)
				})
			}
		}
	}
}

func dmlScanContract(t *testing.T, db *engine.DB, tbl *engine.Table, sql string, lo, hi int) {
	// Buckets 3 through 8 (pages 6 through 17) hold a day in [lo, hi].
	var survivors []storage.PageID
	for b := 0; b < tbl.Heap.NumBuckets(); b++ {
		if first, last := tbl.Heap.BucketRange(b); int(last)*8+7 >= lo && int(first)*8 <= hi {
			for p := first; p <= last; p++ {
				survivors = append(survivors, p)
			}
		}
	}
	tail := storage.PageID(tbl.Heap.NumPages() - 1)
	var mu sync.Mutex
	reads := map[storage.PageID]int{}
	var onRead func(storage.PageID)
	tbl.Disk().SetFault(func(op string, id storage.PageID) error {
		if op == "read" {
			mu.Lock()
			reads[id]++
			f := onRead
			mu.Unlock()
			if f != nil {
				f(id)
			}
		}
		return nil
	})
	defer tbl.Disk().SetFault(nil)
	// cold empties the pool, which fails while a page is pinned, and
	// forgets the reads so far.
	cold := func() {
		t.Helper()
		if err := tbl.Pool().DropAll(); err != nil {
			t.Fatal(err)
		}
		exec(t, db, "reset stats")
		mu.Lock()
		clear(reads)
		onRead = nil
		mu.Unlock()
	}
	const content = "select count(*) as C, sum(V) as S, max(V) as M from T where V >= 0"
	goroutines := runtime.NumGoroutine()

	// A context cancelled inside the read of one page stops the scan
	// before the page after it, and the statement changes nothing.
	before := queryOne(t, db, content)
	for _, at := range []int{1, len(survivors) / 2, len(survivors)} {
		cold()
		ctx, cancel := context.WithCancel(context.Background())
		var hit storage.PageID
		var n int
		mu.Lock()
		onRead = func(id storage.PageID) {
			mu.Lock()
			if n++; n == at {
				hit = id
				cancel()
			}
			mu.Unlock()
		}
		mu.Unlock()
		_, err := db.ExecContext(ctx, sql)
		cancel()
		mu.Lock()
		onRead = nil
		mu.Unlock()
		var read int64
		row := queryOne(t, db, "select PAGES_READ from sma_stat_statements where ERRORS >= 1")
		if _, err := fmt.Sscan(row[0], &read); err != nil {
			t.Fatal(err)
		}
		limit := int64(1)
		for i, p := range survivors {
			if p == hit {
				limit = int64(i) + 1
			}
		}
		if !errors.Is(err, context.Canceled) || read > limit {
			t.Errorf("cancelled in the read of page %d (page %d of the scan): error %v after %d pages", hit, limit, err, read)
		}
		if got := queryOne(t, db, content); fmt.Sprint(got) != fmt.Sprint(before) {
			t.Errorf("a cancelled statement changed the table: %v, was %v", got, before)
		}
	}

	// A whole statement reads every surviving page once, and nothing else
	// but the tail.
	cold()
	res := exec(t, db, sql)
	mu.Lock()
	for _, p := range survivors {
		if reads[p] != 1 {
			t.Errorf("surviving page %d read %d times", p, reads[p])
		}
		delete(reads, p)
	}
	delete(reads, tail)
	if len(reads) != 0 {
		t.Errorf("pages read beside the surviving ones and the tail: %v", reads)
	}
	mu.Unlock()
	if read, _ := statementPages(t, db); read != int64(len(survivors)) {
		t.Errorf("the statement counted %d pages read, want the %d surviving ones", read, len(survivors))
	}
	if res.RowsAffected != int64(hi-lo+1) {
		t.Errorf("%d rows affected, want %d", res.RowsAffected, hi-lo+1)
	}
	verifyAll(t, db, "T")
	cold()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the statements, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
}
