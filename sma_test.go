package sma

import (
	"context"
	"errors"
	"testing"
	"time"

	"sma/internal/experiments"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// query1 is TPC-D Query 1 (Fig. 3 of the paper, delta = 90).
const query1 = `SELECT L_RETURNFLAG, L_LINESTATUS,
 SUM(L_QUANTITY) AS SUM_QTY, SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
 SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
 SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
 AVG(L_QUANTITY) AS AVG_QTY, AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
 AVG(L_DISCOUNT) AS AVG_DISC, COUNT(*) AS COUNT_ORDER
 FROM LINEITEM
 WHERE L_SHIPDATE <= DATE '1998-12-01' - INTERVAL '90' DAY
 GROUP BY L_RETURNFLAG, L_LINESTATUS
 ORDER BY L_RETURNFLAG, L_LINESTATUS`

// openLineItem loads a LINEITEM table through the internal engine (the
// fast bulk path) so the tests exercise the public query surface on real
// TPC-D data.
func openLineItem(t testing.TB, sf float64, order tpcd.Order) *DB {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	li, err := db.eng.CreateTable("LINEITEM", tpcd.LineItemSchema().Columns())
	if err != nil {
		t.Fatal(err)
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: sf, Seed: 42, Order: order})
	tp := tuple.NewTuple(li.Schema)
	for i := range items {
		items[i].FillTuple(tp)
		if _, err := li.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// defineQ1SMAs builds the paper's eight Query-1 SMAs.
func defineQ1SMAs(t testing.TB, db *DB) {
	t.Helper()
	for _, def := range experiments.Q1SMADefs() {
		if _, err := db.eng.DefineSMADef(def); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamingMatchesMaterialized: the public streaming cursor,
// materialized by Collect, renders TPC-D Query 1 identically on the
// SMA_GAggr plan and on the full-scan baseline.
func TestStreamingMatchesMaterialized(t *testing.T) {
	db := openLineItem(t, 0.002, tpcd.OrderSorted)
	defineQ1SMAs(t, db)

	collect := func(wantStrategy string) *Result {
		t.Helper()
		rows, err := db.QueryContext(context.Background(), query1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(rows)
		if err != nil {
			t.Fatal(err)
		}
		if got.Strategy != wantStrategy {
			t.Errorf("strategy = %s, want %s", got.Strategy, wantStrategy)
		}
		return got
	}
	ref := collect("SMA_GAggr")
	if len(ref.Rows) == 0 {
		t.Fatal("Query 1 returned no rows")
	}
	// Drop the selection SMAs: the planner falls back to the full scan and
	// the two plans must still agree.
	for _, name := range []string{"min", "max"} {
		if _, err := db.Exec("drop sma " + name + " on LINEITEM"); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect("FullScan+GAggr"); got.String() != ref.String() {
		t.Errorf("full scan renders\n%s\nSMA_GAggr rendered\n%s", got, ref)
	}
}

// TestContextCancelMidScan: cancelling the context while a streaming
// projection is mid-flight terminates the cursor with context.Canceled.
func TestContextCancelMidScan(t *testing.T) {
	db := openLineItem(t, 0.005, tpcd.OrderSorted)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.QueryContext(ctx, "select L_ORDERKEY, L_SHIPDATE from LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	seen := 0
	for rows.Next() {
		var key int64
		var ship Date
		if err := rows.Scan(&key, &ship); err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 3 {
			cancel() // the scan checks the context at the next page boundary
		}
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v after %d rows, want context.Canceled", rows.Err(), seen)
	}
	// The table holds far more rows than one page; the scan must have
	// stopped early.
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	if int64(seen) >= tbl.Pages()*int64(tbl.BucketPages())*100 {
		t.Errorf("scan did not stop early: %d rows", seen)
	}
	// The read lock must have been released: DDL acquires the write lock.
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("define sma mn select min(L_SHIPDATE) from LINEITEM")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DDL blocked after cancelled cursor terminated; read lock leaked")
	}
}

// TestQueryContextCancelledAggregation: a cancelled context aborts an
// aggregation query inside QueryContext (the pipeline-breaking operators
// run during open) and reports the context error.
func TestQueryContextCancelledAggregation(t *testing.T) {
	db := openLineItem(t, 0.002, tpcd.OrderSorted)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, "select count(*) from LINEITEM")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext err = %v, want context.Canceled", err)
	}
}

// TestExecDDLRoundTrip drives the unified SQL entrypoint end to end:
// create table, define sma, query, delete, drop sma.
func TestExecDDLRoundTrip(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	res, err := db.Exec("create table SALES (SALE_DATE date, REGION char(1), AMOUNT float64)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "create table" || res.Table != "SALES" {
		t.Errorf("create result = %+v", res)
	}
	tbl, err := db.Table("SALES")
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"N", "S", "E", "W"}
	for day := 0; day < 200; day++ {
		for i := 0; i < 8; i++ {
			_, err := tbl.Append(DateOf(2023, 1, 1).AddDays(day), regions[(day+i)%4], float64(10+i))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ddl := range []string{
		"define sma dmin select min(SALE_DATE) from SALES",
		"define sma dmax select max(SALE_DATE) from SALES",
		"define sma cnt select count(*) from SALES group by REGION",
	} {
		res, err := db.Exec(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != "define sma" || res.SMAName == "" || res.SMABuckets == 0 {
			t.Errorf("define result = %+v", res)
		}
	}

	count := func() int64 {
		rows, err := db.Query("select count(*) as N from SALES")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatal("no count row")
		}
		var n int64
		if err := rows.Scan(&n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := count()
	if before != 1600 {
		t.Fatalf("count = %d, want 1600", before)
	}

	del, err := db.Exec("delete from SALES where SALE_DATE <= date '2023-01-31'")
	if err != nil {
		t.Fatal(err)
	}
	if del.Kind != "delete" || del.RowsAffected != 31*8 {
		t.Errorf("delete result = %+v, want %d rows", del, 31*8)
	}
	if got := count(); got != before-del.RowsAffected {
		t.Errorf("count after delete = %d, want %d", got, before-del.RowsAffected)
	}
	// The SMAs stayed consistent through the delete.
	for _, s := range tbl.SMAs() {
		if err := tbl.VerifySMA(s.Name); err != nil {
			t.Errorf("verify %s: %v", s.Name, err)
		}
	}

	if _, err := db.Exec("drop sma cnt on SALES"); err != nil {
		t.Fatal(err)
	}
	if len(tbl.SMAs()) != 2 {
		t.Errorf("SMAs after drop = %v", tbl.SMAs())
	}
	if _, err := db.Exec("drop sma nope on SALES"); err == nil {
		t.Errorf("dropping an unknown SMA should fail")
	}
	if _, err := db.Exec("select count(*) from SALES"); err == nil {
		t.Errorf("Exec on a SELECT should fail (use QueryContext)")
	}
}

// TestAppendValuesMatchesFillTuple: loading rows through the public typed
// Append (tpcd.Values, the dbgen path) stores byte-identical data to the
// internal FillTuple bulk path.
func TestAppendValuesMatchesFillTuple(t *testing.T) {
	ref := openLineItem(t, 0.0005, tpcd.OrderSorted) // FillTuple path
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(tpcd.LineItemDDL); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: 0.0005, Seed: 42, Order: tpcd.OrderSorted})
	for i := range items {
		if _, err := tbl.Append(items[i].Values()...); err != nil {
			t.Fatal(err)
		}
	}
	const q = "select * from LINEITEM limit 40"
	for _, pair := range [][2]*DB{{ref, db}} {
		a, err := pair[0].Query(q)
		if err != nil {
			t.Fatal(err)
		}
		resA, err := Collect(a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pair[1].Query(q)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := Collect(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(resA.Rows) != len(resB.Rows) {
			t.Fatalf("row counts differ: %d vs %d", len(resA.Rows), len(resB.Rows))
		}
		for i := range resA.Rows {
			for j := range resA.Rows[i] {
				if resA.Rows[i][j] != resB.Rows[i][j] {
					t.Errorf("row %d col %d: FillTuple %q != Values %q",
						i, j, resA.Rows[i][j], resB.Rows[i][j])
				}
			}
		}
	}
}

// TestProjectionStreaming: select * streams typed tuples with LIMIT.
func TestProjectionStreaming(t *testing.T) {
	db := openLineItem(t, 0.001, tpcd.OrderSorted)
	rows, err := db.Query("select * from LINEITEM where L_SHIPDATE <= date '1995-01-01' limit 25")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := len(rows.Columns()); got != 16 {
		t.Fatalf("select * columns = %d, want 16", got)
	}
	cutoff := MustParseDate("1995-01-01")
	n := 0
	for rows.Next() {
		vals, err := rows.Values()
		if err != nil {
			t.Fatal(err)
		}
		ship, ok := vals[10].(Date)
		if !ok {
			t.Fatalf("L_SHIPDATE value is %T, want Date", vals[10])
		}
		if ship > cutoff {
			t.Errorf("predicate violated: %s", ship)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Errorf("limit 25 returned %d rows", n)
	}
}

// TestScanTypedDestinations: Scan converts into the documented
// destination types.
func TestScanTypedDestinations(t *testing.T) {
	db := openLineItem(t, 0.001, tpcd.OrderSorted)
	rows, err := db.Query("select L_ORDERKEY, L_QUANTITY, L_RETURNFLAG, L_SHIPDATE from LINEITEM limit 1")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no rows")
	}
	var key int64
	var qty float64
	var flag string
	var ship time.Time
	if err := rows.Scan(&key, &qty, &flag, &ship); err != nil {
		t.Fatal(err)
	}
	if key <= 0 || qty <= 0 || flag == "" || ship.IsZero() {
		t.Errorf("scanned zero values: %d %v %q %v", key, qty, flag, ship)
	}
	types := rows.ColumnTypes()
	want := []ColumnType{TypeInt64, TypeFloat64, TypeChar, TypeDate}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("column type %d = %v, want %v", i, types[i], want[i])
		}
	}
}

// TestCloseIdempotent: closing twice is a no-op, and the engine rejects
// queries after close.
func TestCloseIdempotent(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("create table T (A date, B float64)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := db.Query("select count(*) from T"); err == nil {
		t.Errorf("query after Close should fail")
	}
}

// TestCatalogSnapshot covers the public inspection surface a serving
// layer reports from: Tables() with schema/rows/SMAs, and the merged
// PoolStats.
func TestCatalogSnapshot(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("create table B (N int64)")
	mustExec("create table A (D date, K char(3), V float64)")
	mustExec("insert into A values (date '2024-01-01', 'x', 1), (date '2024-01-02', 'y', 2), (date '2024-01-03', 'z', 3)")
	mustExec("delete from A where D = date '2024-01-02'")
	mustExec("define sma m select min(D) from A")

	infos := db.Tables()
	if len(infos) != 2 || infos[0].Name != "A" || infos[1].Name != "B" {
		t.Fatalf("Tables: %+v", infos)
	}
	a := infos[0]
	if a.Rows != 2 {
		t.Fatalf("A rows %d, want 2 (delete excluded)", a.Rows)
	}
	if len(a.Columns) != 3 || a.Columns[1].Type != TypeChar || a.Columns[1].Len != 3 {
		t.Fatalf("A columns: %+v", a.Columns)
	}
	if a.Pages < 1 || a.Buckets < 1 || a.BucketPages < 1 {
		t.Fatalf("A sizes: %+v", a)
	}
	if len(a.SMAs) != 1 || a.SMAs[0].Name != "m" {
		t.Fatalf("A SMAs: %+v", a.SMAs)
	}
	if len(infos[1].SMAs) != 0 || infos[1].Rows != 0 {
		t.Fatalf("B: %+v", infos[1])
	}

	rows, err := db.Query("select count(*) from A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(rows); err != nil {
		t.Fatal(err)
	}
	if ps := db.PoolStats(); ps.Hits+ps.Misses == 0 {
		t.Fatalf("PoolStats saw no traffic: %+v", ps)
	}
}

// TestCatalogReadsDuringDDL polls the catalog — Tables() as /status and
// smactl do, and Table.SMAs — while another goroutine defines and drops
// SMAs. Under -race it fails if a catalog read is not ordered against the
// DDL's write of the table's SMA map; without -race such a read can abort
// the process mid-iteration.
func TestCatalogReadsDuringDDL(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, sql := range []string{
		"create table A (D date, V float64)",
		"insert into A values (date '2024-01-01', 1), (date '2024-01-02', 2)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	tbl, err := db.Table("A")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	polled := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				polled <- n
				return
			default:
			}
			for _, info := range db.Tables() {
				n += len(info.SMAs)
			}
			n += len(tbl.SMAs())
		}
	}()
	for i := 0; i < 50; i++ {
		for _, sql := range []string{
			"define sma lo select min(D) from A",
			"define sma hi select max(D) from A",
			"drop sma lo on A",
			"drop sma hi on A",
		} {
			if _, err := db.Exec(sql); err != nil {
				close(done)
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	close(done)
	t.Logf("the poller saw %d SMA entries", <-polled)
}
