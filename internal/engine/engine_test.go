package engine_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sma/internal/engine"
	"sma/internal/planner"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// openSales creates a db with a small clustered SALES table.
func openSales(t testing.TB, dir string) (*engine.DB, *engine.Table) {
	t.Helper()
	db, err := engine.Open(dir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("SALES", []tuple.Column{
		{Name: "SALE_DATE", Type: tuple.TDate},
		{Name: "REGION", Type: tuple.TChar, Len: 1},
		{Name: "AMOUNT", Type: tuple.TFloat64},
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := tuple.NewTuple(tbl.Schema)
	for day := 0; day < 365; day++ {
		for i := 0; i < 10; i++ {
			tp.SetInt32(0, tuple.DateFromYMD(2021, 1, 1)+int32(day))
			tp.SetChar(1, []string{"N", "S"}[i%2])
			tp.SetFloat64(2, float64(day+i))
			if _, err := tbl.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, tbl
}

// TestEngineEndToEnd: create, define SMAs, query, check plan and results.
func TestEngineEndToEnd(t *testing.T) {
	db, _ := openSales(t, t.TempDir())
	defer db.Close()
	for _, ddl := range []string{
		"define sma dmin select min(SALE_DATE) from SALES",
		"define sma dmax select max(SALE_DATE) from SALES",
		"define sma amt select sum(AMOUNT) from SALES group by REGION",
		"define sma cnt select count(*) from SALES group by REGION",
	} {
		if _, err := db.DefineSMA(ddl); err != nil {
			t.Fatal(err)
		}
	}
	res, err := engine.Collect(db, `select REGION, sum(AMOUNT) as TOTAL, count(*) as N, avg(AMOUNT) as AVG_A
		from SALES where SALE_DATE <= date '2021-03-31' group by REGION order by REGION`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Strategy != planner.StrategySMAGAggr {
		t.Errorf("strategy = %s\n%s", res.Plan.Strategy, res.Plan.Explain())
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "N" || res.Rows[1][0] != "S" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// 90 days (Jan 1 .. Mar 31 = 90 days), 5 rows per region per day.
	if res.Rows[0][2] != "450" {
		t.Errorf("count N = %s, want 450", res.Rows[0][2])
	}
	if want := []string{"REGION", "TOTAL", "N", "AVG_A"}; !reflect.DeepEqual(res.Columns, want) {
		t.Errorf("columns = %v, want %v", res.Columns, want)
	}
}

// TestEnginePersistence: reopen the database and reuse tables and SMAs
// without rebuilding.
func TestEnginePersistence(t *testing.T) {
	dir := t.TempDir()
	db, _ := openSales(t, dir)
	if _, err := db.DefineSMA("define sma dmin select min(SALE_DATE) from SALES"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineSMA("define sma dmax select max(SALE_DATE) from SALES"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineSMA("define sma amt select sum(AMOUNT * (1 - 0.1)) from SALES group by REGION"); err != nil {
		t.Fatal(err)
	}
	want, err := engine.Collect(db, "select count(*) as N from SALES where SALE_DATE <= date '2021-02-01'")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := engine.Open(dir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, err := db2.Table("SALES")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.SMAs()) != 3 {
		t.Fatalf("reloaded %d SMAs, want 3", len(tbl.SMAs()))
	}
	// The complex expression must have round-tripped through the catalog.
	if err := tbl.VerifySMA("amt"); err != nil {
		t.Errorf("reloaded sma amt: %v", err)
	}
	got, err := engine.Collect(db2, "select count(*) as N from SALES where SALE_DATE <= date '2021-02-01'")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0] != want.Rows[0][0] {
		t.Errorf("count after reload %s != %s", got.Rows[0][0], want.Rows[0][0])
	}
	if got.Plan.Strategy != planner.StrategySMAGAggr && got.Plan.Strategy != planner.StrategySMAScan {
		t.Errorf("reloaded SMAs unused: %s", got.Plan.Strategy)
	}
}

// TestEngineAppendMaintainsSMAs: appends through the Table keep SMAs valid.
func TestEngineAppendMaintainsSMAs(t *testing.T) {
	db, tbl := openSales(t, t.TempDir())
	defer db.Close()
	if _, err := db.DefineSMA("define sma dmax select max(SALE_DATE) from SALES"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineSMA("define sma cnt select count(*) from SALES group by REGION"); err != nil {
		t.Fatal(err)
	}
	tp := tuple.NewTuple(tbl.Schema)
	for i := 0; i < 500; i++ {
		tp.SetInt32(0, tuple.DateFromYMD(2022, 1, 1)+int32(i/10))
		tp.SetChar(1, "W") // a brand-new group
		tp.SetFloat64(2, float64(i))
		if _, err := tbl.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range tbl.SMAs() {
		if err := s.Verify(tbl.Heap); err != nil {
			t.Errorf("after appends: %v", err)
		}
	}
	res, err := engine.Collect(db, "select count(*) as N from SALES where SALE_DATE >= date '2022-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "500" {
		t.Errorf("new rows count = %s, want 500", res.Rows[0][0])
	}
}

// TestEngineUpdateMaintainsSMAs: a SQL UPDATE keeps SMAs valid.
func TestEngineUpdateMaintainsSMAs(t *testing.T) {
	db, _ := openSales(t, t.TempDir())
	defer db.Close()
	if _, err := db.DefineSMA("define sma amt select sum(AMOUNT) from SALES group by REGION"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineSMA("define sma amin select min(AMOUNT) from SALES"); err != nil {
		t.Fatal(err)
	}
	// A new global minimum, in one bucket mid-table.
	res := exec(t, db, "update SALES set AMOUNT = -1000 where SALE_DATE = date '2021-06-01' and REGION = 'S'")
	if res.RowsAffected != 5 {
		t.Fatalf("%d rows updated, want 5", res.RowsAffected)
	}
	verifyAll(t, db, "SALES")
}

// TestEngineErrors covers the error paths of the facade.
func TestEngineErrors(t *testing.T) {
	db, _ := openSales(t, t.TempDir())
	defer db.Close()
	if _, err := db.CreateTable("SALES", nil); err == nil {
		t.Errorf("duplicate table should fail")
	}
	if _, err := db.Table("NOPE"); err == nil {
		t.Errorf("unknown table should fail")
	}
	if _, err := db.DefineSMA("define sma x select min(NOPE) from SALES"); err == nil {
		t.Errorf("unknown column should fail")
	}
	if _, err := db.DefineSMA("define sma x select min(AMOUNT) from NOPE"); err == nil {
		t.Errorf("unknown table in DDL should fail")
	}
	if _, err := db.DefineSMA("define sma ok select min(AMOUNT) from SALES"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineSMA("define sma ok select min(AMOUNT) from SALES"); err == nil {
		t.Errorf("duplicate SMA should fail")
	}
	if err := db.DropSMA("SALES", "ghost"); err == nil {
		t.Errorf("dropping unknown SMA should fail")
	}
	if err := db.DropSMA("SALES", "ok"); err != nil {
		t.Errorf("drop: %v", err)
	}
	if _, err := engine.Collect(db, "select nonsense"); err == nil {
		t.Errorf("bad SQL should fail")
	}
	if _, err := engine.Collect(db, "select count(*) from NOPE"); err == nil {
		t.Errorf("query on unknown table should fail")
	}
}

// TestEngineDateRendering: date group columns render as dates.
func TestEngineDateRendering(t *testing.T) {
	db, _ := openSales(t, t.TempDir())
	defer db.Close()
	res, err := engine.Collect(db, `select SALE_DATE, count(*) as N from SALES
		where SALE_DATE <= date '2021-01-02' group by SALE_DATE order by SALE_DATE`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "2021-01-01" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestEngineTPCDLoad: the engine hosts the full generated LINEITEM and
// answers Query 1 like the raw operators do.
func TestEngineTPCDLoad(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	li, err := db.CreateTable("LINEITEM", tpcd.LineItemSchema().Columns())
	if err != nil {
		t.Fatal(err)
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: 0.001, Seed: 9, Order: tpcd.OrderSorted})
	tp := tuple.NewTuple(li.Schema)
	for i := range items {
		items[i].FillTuple(tp)
		if _, err := li.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.DefineSMA("define sma min select min(L_SHIPDATE) from LINEITEM"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineSMA("define sma max select max(L_SHIPDATE) from LINEITEM"); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Collect(db, "select count(*) as N from LINEITEM where L_SHIPDATE <= date '1998-12-01' - interval '90' day")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	cut := tuple.MustParseDate("1998-12-01") - 90
	for _, it := range items {
		if it.ShipDate <= cut {
			want++
		}
	}
	if res.Rows[0][0] != itoa(want) {
		t.Errorf("count = %s, want %d", res.Rows[0][0], want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestEngineCorruptCatalog: a damaged catalog fails Open with a clear error
// instead of silently starting empty.
func TestEngineCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	db, _ := openSales(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Open(dir, engine.Options{}); err == nil {
		t.Errorf("corrupt catalog should fail Open")
	}
}

// TestEngineOptionsDefaults: zero options get sane defaults.
func TestEngineOptionsDefaults(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("T", []tuple.Column{{Name: "A", Type: tuple.TFloat64}})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.BucketPages != 1 {
		t.Errorf("default bucket pages = %d", tbl.BucketPages)
	}
	if tbl.Pool().Capacity() != 2048 {
		t.Errorf("default pool = %d pages, want 2048 (the paper's 8 MB)", tbl.Pool().Capacity())
	}
}

// TestEngineBucketPagesPersist: a non-default bucket size survives reopen
// (the SMA bucket correspondence depends on it).
func TestEngineBucketPagesPersist(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.Open(dir, engine.Options{BucketPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("T", []tuple.Column{{Name: "A", Type: tuple.TFloat64}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := engine.Open(dir, engine.Options{}) // default options
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, err := db2.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.BucketPages != 4 {
		t.Errorf("bucket pages after reopen = %d, want 4", tbl.BucketPages)
	}
	if tbl.Heap.BucketPages != 4 {
		t.Errorf("heap bucket pages = %d", tbl.Heap.BucketPages)
	}
}
