package engine_test

import (
	"bytes"
	"testing"

	"sma/internal/engine"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// TestEngineDeleteMaintainsSMAs: deletes through the Table keep SMAs valid
// and query results correct.
func TestEngineDeleteMaintainsSMAs(t *testing.T) {
	db, tbl := openSales(t, t.TempDir())
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
	before, err := engine.Collect(db, "select count(*) as N from SALES")
	if err != nil {
		t.Fatal(err)
	}
	// Delete the first 25 records (first page region).
	for slot := 0; slot < 25; slot++ {
		page := storage.PageID(slot / tbl.Heap.RecordsPerPage())
		if err := tbl.Delete(storage.RID{Page: page, Slot: slot % tbl.Heap.RecordsPerPage()}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range tbl.SMAs() {
		if err := s.Verify(tbl.Heap); err != nil {
			t.Errorf("after deletes: %v", err)
		}
	}
	after, err := engine.Collect(db, "select count(*) as N from SALES")
	if err != nil {
		t.Fatal(err)
	}
	if before.Rows[0][0] == after.Rows[0][0] {
		t.Errorf("count unchanged after deletes: %s", after.Rows[0][0])
	}
}

// TestEngineDeletePersistence: the delete vector survives reopen.
func TestEngineDeletePersistence(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openSales(t, dir)
	n0, err := tbl.Heap.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 10; slot++ {
		if err := tbl.Delete(storage.RID{Page: 0, Slot: slot}); err != nil {
			t.Fatal(err)
		}
	}
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
	if err := tbl2.Delete(storage.RID{Page: 0, Slot: 20}); err != nil {
		t.Fatal(err)
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

// TestTableUpdateRejectsWrongWidth: Table.Update refuses a tuple whose width
// is not the table's record size, as Append does, and leaves the record as
// it was — the heap would copy a short image over the front of the slot.
func TestTableUpdateRejectsWrongWidth(t *testing.T) {
	db, tbl := openSales(t, t.TempDir())
	defer db.Close()
	rid := storage.RID{Page: 0, Slot: 0}
	before, err := tbl.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{tbl.Schema.RecordSize() - 1, tbl.Schema.RecordSize() + 1} {
		bad := tuple.Tuple{Schema: tbl.Schema, Data: bytes.Repeat([]byte{0xff}, width)}
		if err := tbl.Update(rid, bad); err == nil {
			t.Errorf("a %d-byte tuple was accepted for %d-byte records", width, tbl.Schema.RecordSize())
		}
	}
	after, err := tbl.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Data, before.Data) {
		t.Errorf("record changed from %x to %x", before.Data, after.Data)
	}
}
