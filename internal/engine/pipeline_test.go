package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sma/internal/engine"
	"sma/internal/obs"
	"sma/internal/tuple"
)

// openSeq creates table T(N int64, PAD) whose N counts 0, 1, 2, … in
// physical order over the given number of pages, and returns the records
// per page.
func openSeq(t *testing.T, opts engine.Options, pages int) (*engine.DB, *engine.Table, int) {
	t.Helper()
	db, err := engine.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("T", []tuple.Column{
		{Name: "N", Type: tuple.TInt64},
		{Name: "PAD", Type: tuple.TChar, Len: 180},
	})
	if err != nil {
		t.Fatal(err)
	}
	per := tbl.Heap.RecordsPerPage()
	tp := tuple.NewTuple(tbl.Schema)
	for i := 0; i < pages*per; i++ {
		tp.SetInt64(0, int64(i))
		if _, err := tbl.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl, per
}

// TestProjectionLimitStopsAtItsPage: a LIMIT projection reads exactly the
// pages up to the one holding its last row — the scan's batch is one page,
// whatever the batch size — and returns the first matches in physical
// order, as a full scan and as an SMA scan.
func TestProjectionLimitStopsAtItsPage(t *testing.T) {
	const pages, limit = 40, 50
	db, _, per := openSeq(t, engine.Options{}, pages)
	if limit <= per {
		t.Fatalf("%d records per page: the limit must span pages", per)
	}
	run := func(k int, strategy string, firstPage int) {
		t.Helper()
		cur, err := db.QueryContext(context.Background(),
			fmt.Sprintf("select N from T where N >= %d limit %d", k, limit))
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if got := cur.Plan().StrategyName(); got != strategy {
			t.Fatalf("strategy = %s, want %s", got, strategy)
		}
		rows, err := drainCursor(t, cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != limit {
			t.Fatalf("%d rows, want %d", len(rows), limit)
		}
		for i, r := range rows {
			if r[0].(int64) != int64(k+i) {
				t.Fatalf("row %d = %v, want %d", i, r[0], k+i)
			}
		}
		st, _ := cur.Stats()
		if want := (k+limit-1)/per - firstPage + 1; st.PagesRead != want {
			t.Errorf("%s: %d pages read, want %d (pages %d..%d)",
				strategy, st.PagesRead, want, firstPage, (k+limit-1)/per)
		}
	}
	run(10*per+per/2, "FullScan", 0)
	for _, ddl := range []string{
		"define sma nmin select min(N) from T",
		"define sma nmax select max(N) from T",
	} {
		if _, err := db.DefineSMA(ddl); err != nil {
			t.Fatal(err)
		}
	}
	run(35*per+per/2, "SMA_Scan", 35)
}

// TestIdleProjectionCursorPinsNoPage: between Next calls a streaming cursor
// holds a copy of its page, not a pin — DropAll, which refuses while any
// frame is pinned, succeeds under an open cursor, and the stream goes on.
func TestIdleProjectionCursorPinsNoPage(t *testing.T) {
	const pages = 6
	db, tbl, per := openSeq(t, engine.Options{PrefetchWindow: -1}, pages)
	cur, err := db.QueryContext(context.Background(), "select N from T")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, ok, err := cur.Next(); !ok || err != nil {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	if err := tbl.Heap.Pool().DropAll(); err != nil {
		t.Fatalf("open cursor holds a pin: %v", err)
	}
	rest, err := drainCursor(t, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != pages*per-1 {
		t.Errorf("%d rows after the first, want %d", len(rest), pages*per-1)
	}
}

// TestVirtualTableAcrossBatches: WHERE, GROUP BY, HAVING, ORDER BY and
// LIMIT over sma_stat_statements return what a fold of the table's plain
// dump gives when the snapshot spans several batches.
func TestVirtualTableAcrossBatches(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.Options{Obs: obs.NewObserver(obs.Config{}), BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecContext(context.Background(), "create table S (K char(1), V float64)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(context.Background(), "insert into S values ('a', 1), ('b', 2), ('a', 3)"); err != nil {
		t.Fatal(err)
	}
	// Eight fingerprints that read pages, called 1 to 4 times each.
	for sql, calls := range map[string]int{
		"select sum(V) from S": 3, "select count(*) from S": 1,
		"select min(V) from S": 2, "select max(V) from S": 1,
		"select avg(V) from S": 4, "select V from S limit 2": 1,
		"select K, sum(V) from S group by K":   2,
		"select K, count(*) from S group by K": 1,
	} {
		for i := 0; i < calls; i++ {
			mustQuery(t, db, sql)
		}
	}
	// Introspection statements read no pages, so PAGES_READ >= 1 keeps
	// them out of each other's way. Columns: 1 CALLS, 10 PAGES_READ.
	type group struct{ n, pages float64 }
	byCalls := map[int64]*group{}
	var calls []int64
	for _, r := range mustQuery(t, db, "select * from sma_stat_statements") {
		if r[10].(int64) < 1 {
			continue
		}
		c := r[1].(int64)
		calls = append(calls, c)
		if byCalls[c] == nil {
			byCalls[c] = &group{}
		}
		byCalls[c].n++
		byCalls[c].pages += float64(r[10].(int64))
	}
	if len(calls) != 8 {
		t.Fatalf("%d workload statements in the dump, want 8", len(calls))
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i] > calls[j] })

	var wantAgg [][]any
	for _, c := range []int64{1, 2, 3, 4} {
		if g := byCalls[c]; g != nil && g.n >= 2 {
			wantAgg = append(wantAgg, []any{c, g.n, g.pages})
		}
	}
	if len(wantAgg) < 2 {
		t.Fatalf("workload gives %d groups past HAVING, want >= 2", len(wantAgg))
	}
	agg := `select CALLS, count(*) as N, sum(PAGES_READ) as P from sma_stat_statements
		where PAGES_READ >= 1 group by CALLS having N >= 2 order by CALLS`
	if got := mustQuery(t, db, agg); !reflect.DeepEqual(got, wantAgg) {
		t.Errorf("aggregate = %v, want %v", got, wantAgg)
	}
	if got := mustQuery(t, db, agg+" limit 1"); !reflect.DeepEqual(got, wantAgg[:1]) {
		t.Errorf("aggregate limit 1 = %v, want %v", got, wantAgg[:1])
	}
	got := mustQuery(t, db, `select CALLS from sma_stat_statements
		where PAGES_READ >= 1 order by CALLS desc limit 2`)
	if want := [][]any{{calls[0]}, {calls[1]}}; !reflect.DeepEqual(got, want) {
		t.Errorf("projection = %v, want %v", got, want)
	}
}
