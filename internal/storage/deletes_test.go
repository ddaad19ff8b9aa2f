package storage

import (
	"path/filepath"
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
	old, err := h.Delete(rids[10])
	if err != nil {
		t.Fatal(err)
	}
	if old.Int64(0) != 10 {
		t.Errorf("Delete returned %d, want the prior image 10", old.Int64(0))
	}
	if _, err := h.Delete(rids[10]); err == nil {
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
		if _, err := h.Delete(rids[i]); err != nil {
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

func TestDeleteVectorPersistence(t *testing.T) {
	dv := NewDeleteVector()
	rids := []RID{{Page: 0, Slot: 1}, {Page: 5, Slot: 0}, {Page: 5, Slot: 7}}
	for _, rid := range rids {
		if !dv.markDeleted(rid, 100) {
			t.Fatalf("mark %v failed", rid)
		}
	}
	path := filepath.Join(t.TempDir(), "t.del")
	if err := dv.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDeleteVector(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("loaded %d entries", back.Len())
	}
	for _, rid := range rids {
		if !back.isDeleted(rid, 100) {
			t.Errorf("%v lost in round trip", rid)
		}
	}
	if back.isDeleted(RID{Page: 1, Slot: 1}, 100) {
		t.Errorf("phantom delete")
	}
	// Missing file loads empty.
	empty, err := LoadDeleteVector(filepath.Join(t.TempDir(), "none.del"))
	if err != nil || empty.Len() != 0 {
		t.Errorf("missing file should load empty: %v %d", err, empty.Len())
	}
}
