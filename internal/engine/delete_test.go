package engine_test

import (
	"bytes"
	"testing"

	"sma/internal/engine"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// TestEngineDeleteMaintainsSMAs: a SQL DELETE keeps SMAs valid and query
// results correct.
func TestEngineDeleteMaintainsSMAs(t *testing.T) {
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
	// The first two days: the front of the first page.
	if res := exec(t, db, "delete from SALES where SALE_DATE < date '2021-01-03'"); res.RowsAffected != 20 {
		t.Fatalf("%d rows deleted, want 20", res.RowsAffected)
	}
	verifyAll(t, db, "SALES")
	after, err := engine.Collect(db, "select count(*) as N from SALES")
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows[0][0] != "3630" {
		t.Errorf("count after deletes = %s, want 3630", after.Rows[0][0])
	}
}

// TestEngineDeletePersistence: delete marks survive reopen.
func TestEngineDeletePersistence(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openSales(t, dir)
	n0, err := tbl.Heap.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, "delete from SALES where SALE_DATE = date '2021-01-01'") // slots 0–9 of page 0
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := engine.Open(dir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("SALES")
	if err != nil {
		t.Fatal(err)
	}
	n1, err := tbl2.Heap.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n0-10 {
		t.Errorf("after reopen: %d records, want %d", n1, n0-10)
	}
	if _, err := tbl2.Heap.Get(storage.RID{Page: 0, Slot: 0}); err == nil {
		t.Errorf("deleted record resurfaced after reopen")
	}
	// Deleting more after reopen still works.
	if res := exec(t, db2, "delete from SALES where SALE_DATE = date '2021-01-03' and AMOUNT = 2"); res.RowsAffected != 1 {
		t.Fatalf("%d rows deleted after reopen, want 1", res.RowsAffected)
	}
	tp := tuple.NewTuple(tbl2.Schema)
	tp.SetInt32(0, tuple.DateFromYMD(2023, 1, 1))
	tp.SetChar(1, "N")
	tp.SetFloat64(2, 1)
	if _, err := tbl2.Append(tp); err != nil {
		t.Fatal(err)
	}
	n2, err := tbl2.Heap.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n1-1+1 {
		t.Errorf("record count after delete+append = %d", n2)
	}
}

// TestTableAppendRejectsWrongWidth: Table.Append refuses a tuple whose
// width is not the table's record size and leaves the table as it was —
// the heap would otherwise place a short image or cut a long one.
func TestTableAppendRejectsWrongWidth(t *testing.T) {
	db, tbl := openSales(t, t.TempDir())
	defer db.Close()
	n0, err := tbl.Heap.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	pages0 := tbl.Heap.NumPages()
	for _, width := range []int{tbl.Schema.RecordSize() - 1, tbl.Schema.RecordSize() + 1} {
		bad := tuple.Tuple{Schema: tbl.Schema, Data: bytes.Repeat([]byte{0xff}, width)}
		if _, err := tbl.Append(bad); err == nil {
			t.Errorf("a %d-byte tuple was accepted for %d-byte records", width, tbl.Schema.RecordSize())
		}
	}
	n1, err := tbl.Heap.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n0 || tbl.Heap.NumPages() != pages0 {
		t.Errorf("table changed: %d records on %d pages, was %d on %d", n1, tbl.Heap.NumPages(), n0, pages0)
	}
}
