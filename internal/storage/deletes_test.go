package storage

import (
	"encoding/binary"
	"testing"

	"sma/internal/tuple"
)

func TestDeleteBasics(t *testing.T) {
	h := newHeap(t, 1, 32)
	tp := tuple.NewTuple(h.Schema())
	var rids []RID
	for i := 0; i < 100; i++ {
		tp.SetInt64(0, int64(i))
		rid, err := h.Append(tp)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Delete(rids[10]); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[10]); err == nil {
		t.Errorf("double delete should fail")
	}
	if _, err := h.Get(rids[10]); err == nil {
		t.Errorf("Get of deleted record should fail")
	}
	n, err := h.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if n != 99 {
		t.Errorf("NumRecords = %d, want 99", n)
	}
	// Scans skip the deleted record.
	seen := map[int64]bool{}
	if err := h.Scan(func(tp tuple.Tuple, _ RID) error {
		seen[tp.Int64(0)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen[10] {
		t.Errorf("scan returned the deleted record")
	}
	if len(seen) != 99 {
		t.Errorf("scan saw %d records", len(seen))
	}
}

func TestDeleteCursorSkips(t *testing.T) {
	h := newHeap(t, 1, 32)
	tp := tuple.NewTuple(h.Schema())
	var rids []RID
	for i := 0; i < 10; i++ {
		tp.SetInt64(0, int64(i))
		rid, err := h.Append(tp)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, i := range []int{0, 3, 9} {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	buf, n, err := h.ReadPageInto(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := h.Schema().RecordSize()
	var got []int64
	for i := 0; i < n; i++ {
		rec := tuple.Tuple{Schema: h.Schema(), Data: buf[i*rs : (i+1)*rs]}
		got = append(got, rec.Int64(0))
	}
	want := []int64{1, 2, 4, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("page read returned %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("page read returned %v, want %v", got, want)
		}
	}
}

// TestDeleteMarksLiveInThePage: a delete marks its slot in the page and
// counts it in the page header, and nowhere else. One heap holds a marked
// page beside unmarked ones; each reads back its live records, from the
// pool and again from disk through a fresh pool, where the page verifies
// and the heap's count is recovered from the pages alone.
func TestDeleteMarksLiveInThePage(t *testing.T) {
	dm := newDisk(t)
	h, err := NewHeapFile(NewBufferPool(dm, 8), twoColSchema(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	per := h.RecordsPerPage()
	tp := tuple.NewTuple(h.Schema())
	for i := 0; i < 3*per; i++ {
		tp.SetInt64(0, int64(i))
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	gone := map[int]bool{0: true, 7: true, 8: true, per - 1: true}
	for s := range gone {
		if err := h.Delete(RID{Page: 1, Slot: s}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(h *HeapFile, when string) {
		t.Helper()
		rs := h.Schema().RecordSize()
		for p := PageID(0); p < 3; p++ {
			buf, n, err := h.ReadPageInto(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			for s := 0; s < per; s++ {
				if p != 1 || !gone[s] {
					want = append(want, int64(p)*int64(per)+int64(s))
				}
			}
			if n != len(want) || len(buf) != n*rs {
				t.Fatalf("%s: page %d read %d records in %d bytes, want %d", when, p, n, len(buf), len(want))
			}
			for i, v := range want {
				if got := (tuple.Tuple{Schema: h.Schema(), Data: buf[i*rs : (i+1)*rs]}).Int64(0); got != v {
					t.Fatalf("%s: page %d record %d = %d, want %d", when, p, i, got, v)
				}
			}
		}
		if n, err := h.NumRecords(); err != nil || n != int64(3*per-len(gone)) {
			t.Fatalf("%s: NumRecords = %d (%v), want %d", when, n, err, 3*per-len(gone))
		}
	}
	check(h, "pooled")
	if err := h.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	if err := dm.ReadPage(1, page[:]); err != nil {
		t.Fatal(err)
	}
	if !VerifyPage(page[:]) || binary.LittleEndian.Uint16(page[2:]) != uint16(len(gone)) {
		t.Fatalf("page 1 on disk: verifies %v, dead count %d, want true and %d", VerifyPage(page[:]), binary.LittleEndian.Uint16(page[2:]), len(gone))
	}
	back, err := NewHeapFile(NewBufferPool(dm, 8), twoColSchema(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Recount(); err != nil {
		t.Fatal(err)
	}
	check(back, "from disk")
}

// TestPageGeometry: a page holds the most records whose bytes and delete
// marks fit beside the 16-byte header.
func TestPageGeometry(t *testing.T) {
	for _, c := range []struct{ size, per int }{{128, 31}, {21, 193}, {16, 253}, {509, 8}, {510, 7}, {4079, 1}} {
		schema := tuple.MustSchema([]tuple.Column{{Name: "C", Type: tuple.TChar, Len: c.size}})
		h, err := NewHeapFile(NewBufferPool(newDisk(t), 4), schema, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.RecordsPerPage(); got != c.per {
			t.Errorf("%d-byte records: %d per page, want %d", c.size, got, c.per)
		}
	}
}
