package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"sma/internal/tuple"
)

// recordingHook records write-back interception order.
type recordingHook struct {
	events []string // "image:<page>" and "barrier"
	fail   error
}

func (h *recordingHook) PageImage(id PageID, data []byte) error {
	if h.fail != nil {
		return h.fail
	}
	h.events = append(h.events, fmt.Sprintf("image:%d", id))
	return nil
}

func (h *recordingHook) Barrier() error {
	if h.fail != nil {
		return h.fail
	}
	h.events = append(h.events, "barrier")
	return nil
}

func fillPage(dm *DiskManager, t *testing.T, n int) {
	t.Helper()
	var page [PageSize]byte
	for i := 0; i < n; i++ {
		page[pageHeaderSize] = byte(i)
		if err := dm.WritePage(PageID(i), page[:]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBarrierProtectsDirtyFrames(t *testing.T) {
	dm := newDisk(t)
	fillPage(dm, t, 4)
	bp := NewBufferPool(dm, 2)

	bp.BeginBarrier()
	// Dirty page 0 under the barrier and keep it unpinned.
	fr, err := bp.FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[pageHeaderSize+1] = 0xEE
	fr.MarkDirty()
	if err := bp.UnpinPage(0); err != nil {
		t.Fatal(err)
	}

	// Fill the pool: page 1 takes the free frame, page 2 must evict. The
	// only unpinned frame (page 0) was dirtied by the current statement,
	// so under the barrier the clean page-1 frame is chosen once unpinned.
	if _, err := bp.FetchPage(1); err != nil {
		t.Fatal(err)
	}
	if err := bp.UnpinPage(1); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.FetchPage(2); err != nil {
		t.Fatal(err)
	}
	if _, writes := dm.Stats(); writes != 4 {
		t.Fatalf("barrier let a dirty page reach disk (%d writes)", writes)
	}
	// Page 0's dirty frame must still be resident with its modification.
	fr0, err := bp.FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if fr0.Data()[pageHeaderSize+1] != 0xEE {
		t.Fatal("dirty frame lost under barrier")
	}
	if err := bp.UnpinPage(0); err != nil {
		t.Fatal(err)
	}
	if err := bp.UnpinPage(2); err != nil {
		t.Fatal(err)
	}

	// With only current-statement-dirty unpinned frames left, the pool
	// overflows rather than stealing: the fetch succeeds, no page reaches
	// disk, and the pool grows past capacity.
	fr2, err := bp.FetchPage(2)
	if err != nil {
		t.Fatal(err)
	}
	fr2.MarkDirty()
	if err := bp.UnpinPage(2); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.FetchPage(3); err != nil {
		t.Fatalf("fetch under full barrier: %v", err)
	}
	if err := bp.UnpinPage(3); err != nil {
		t.Fatal(err)
	}
	if _, writes := dm.Stats(); writes != 4 {
		t.Fatalf("overflow stole a dirty frame (%d writes)", writes)
	}
	if got, ovf := bp.Resident(), bp.Stats().Overflows; got != 3 || ovf != 1 {
		t.Fatalf("resident = %d, overflows = %d", got, ovf)
	}
	bp.EndBarrier()
	// Trim wrote the excess back and returned the pool to capacity.
	if bp.Resident() != 2 {
		t.Fatalf("resident after trim = %d", bp.Resident())
	}
	if _, writes := dm.Stats(); writes == 4 {
		t.Fatal("trim did not write back dirty overflow")
	}
}

// TestBarrierAllowsCommittedDirt checks that a frame dirtied before the
// barrier went up — i.e. by an earlier, committed statement — remains an
// eviction candidate, so long statements in small pools don't starve on
// dirt they didn't create.
func TestBarrierAllowsCommittedDirt(t *testing.T) {
	dm := newDisk(t)
	fillPage(dm, t, 3)
	bp := NewBufferPool(dm, 2)

	// Dirty page 0 outside any barrier (a committed statement's dirt).
	fr, err := bp.FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[pageHeaderSize+1] = 0xEE
	fr.MarkDirty()
	if err := bp.UnpinPage(0); err != nil {
		t.Fatal(err)
	}

	bp.BeginBarrier()
	defer bp.EndBarrier()
	if _, err := bp.FetchPage(1); err != nil {
		t.Fatal(err)
	}
	if err := bp.UnpinPage(1); err != nil {
		t.Fatal(err)
	}
	// Pool full; page 0 is LRU and its dirt predates the barrier, so the
	// fetch evicts it through the normal write-back path.
	if _, err := bp.FetchPage(2); err != nil {
		t.Fatalf("committed dirt blocked eviction under barrier: %v", err)
	}
	if err := bp.UnpinPage(2); err != nil {
		t.Fatal(err)
	}
	fr0, err := bp.FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if fr0.Data()[pageHeaderSize+1] != 0xEE {
		t.Fatal("committed dirt lost on eviction write-back")
	}
	if err := bp.UnpinPage(0); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBackHookOrdering(t *testing.T) {
	dm := newDisk(t)
	fillPage(dm, t, 3)
	bp := NewBufferPool(dm, 3)
	hook := &recordingHook{}
	bp.SetWriteBackHook(hook)

	for id := PageID(0); id < 3; id++ {
		fr, err := bp.FetchPage(id)
		if err != nil {
			t.Fatal(err)
		}
		fr.MarkDirty()
		if err := bp.UnpinPage(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Two-phase: all images first, then exactly one barrier.
	if len(hook.events) != 4 || hook.events[3] != "barrier" {
		t.Fatalf("flush events = %v", hook.events)
	}
	for _, ev := range hook.events[:3] {
		if ev == "barrier" {
			t.Fatalf("barrier before all images: %v", hook.events)
		}
	}

	// Eviction write-back: image + barrier before the write.
	hook.events = nil
	fr, err := bp.FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	fr.MarkDirty()
	if err := bp.UnpinPage(0); err != nil {
		t.Fatal(err)
	}
	for id := PageID(1); id < 3; id++ { // make page 0 the LRU victim
		if _, err := bp.FetchPage(id); err != nil {
			t.Fatal(err)
		}
		if err := bp.UnpinPage(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dm.AllocatePage(); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.FetchPage(3); err != nil {
		t.Fatal(err)
	}
	want := []string{"image:0", "barrier"}
	if len(hook.events) != 2 || hook.events[0] != want[0] || hook.events[1] != want[1] {
		t.Fatalf("eviction events = %v, want %v", hook.events, want)
	}

	// A failing hook blocks the write-back entirely.
	hook.fail = errors.New("log full")
	fr, err = bp.FetchPage(3)
	if err != nil {
		t.Fatal(err)
	}
	fr.MarkDirty()
	if err := bp.UnpinPage(3); err != nil {
		t.Fatal(err)
	}
	_, before := dm.Stats()
	if err := bp.FlushAll(); err == nil {
		t.Fatal("FlushAll ignored hook failure")
	}
	if _, after := dm.Stats(); after != before {
		t.Fatal("page written despite hook failure")
	}
}

func TestFlushAllSyncs(t *testing.T) {
	dm := newDisk(t)
	fillPage(dm, t, 1)
	bp := NewBufferPool(dm, 2)
	fr, err := bp.FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	fr.MarkDirty()
	if err := bp.UnpinPage(0); err != nil {
		t.Fatal(err)
	}
	before := dm.Syncs()
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dm.Syncs() != before+1 {
		t.Fatalf("FlushAll did not fsync (syncs %d -> %d)", before, dm.Syncs())
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	if dm.Syncs() != before+2 {
		t.Fatalf("DropAll did not fsync")
	}
}

// TestFlushWritesInPageOrder: FlushAll and DropAll write the dirty pages
// back in ascending page order, however they were dirtied.
func TestFlushWritesInPageOrder(t *testing.T) {
	const numPages = 32
	dm := newDisk(t)
	bp := NewBufferPool(dm, numPages)
	for i := 0; i < numPages; i++ {
		fr, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if err := bp.UnpinPage(fr.ID()); err != nil {
			t.Fatal(err)
		}
	}
	var written []PageID
	dm.SetFault(func(op string, id PageID) error {
		if op == "write" {
			written = append(written, id)
		}
		return nil
	})
	for _, flush := range []func() error{bp.FlushAll, bp.DropAll} {
		written = written[:0]
		for _, i := range rand.New(rand.NewSource(1)).Perm(numPages) {
			fr, err := bp.FetchPage(PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			fr.MarkDirty()
			if err := bp.UnpinPage(fr.ID()); err != nil {
				t.Fatal(err)
			}
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
		if len(written) != numPages || !slices.IsSorted(written) {
			t.Errorf("pages written back in the order %v, want 0 to %d ascending", written, numPages-1)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	dm := newDisk(t)
	fillPage(dm, t, 2)
	boom := errors.New("boom")
	var ops []string
	dm.SetFault(func(op string, page PageID) error {
		ops = append(ops, fmt.Sprintf("%s:%d", op, page))
		if op == "sync" {
			return boom
		}
		return nil
	})
	var page [PageSize]byte
	if err := dm.ReadPage(0, page[:]); err != nil {
		t.Fatal(err)
	}
	if err := dm.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync = %v, want injected fault", err)
	}
	if len(ops) != 2 || ops[0] != "read:0" || ops[1] != "sync:-1" {
		t.Fatalf("ops = %v", ops)
	}
	dm.SetFault(func(op string, page PageID) error { return boom })
	if err := dm.WritePage(0, page[:]); !errors.Is(err, boom) {
		t.Fatalf("WritePage = %v, want injected fault", err)
	}
	dm.SetFault(nil)
	if err := dm.WritePage(0, page[:]); err != nil {
		t.Fatalf("after clearing fault: %v", err)
	}
}

func TestDiskTruncate(t *testing.T) {
	dm := newDisk(t)
	fillPage(dm, t, 5)
	if err := dm.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if dm.NumPages() != 2 {
		t.Fatalf("NumPages = %d", dm.NumPages())
	}
	var page [PageSize]byte
	if err := dm.ReadPage(2, page[:]); err == nil {
		t.Fatal("read of truncated page succeeded")
	}
	if err := dm.Truncate(3); err == nil {
		t.Fatal("truncate past EOF succeeded")
	}
}

func crashHeap(t *testing.T, bucketPages int) (*HeapFile, *tuple.Schema) {
	t.Helper()
	dm, err := OpenDiskManager(filepath.Join(t.TempDir(), "h.pages"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dm.Close() })
	schema := tuple.MustSchema([]tuple.Column{{Name: "N", Type: tuple.TInt64}})
	h, err := NewHeapFile(NewBufferPool(dm, 8), schema, bucketPages)
	if err != nil {
		t.Fatal(err)
	}
	return h, schema
}

func TestTailRestore(t *testing.T) {
	h, schema := crashHeap(t, 1)
	mk := func(n int64) tuple.Tuple {
		tp := tuple.NewTuple(schema)
		tp.SetInt64(0, n)
		return tp
	}
	per := h.RecordsPerPage()
	for i := 0; i < per+3; i++ { // one full page plus a partial second
		if _, err := h.Append(mk(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := h.Tail()
	if err != nil {
		t.Fatal(err)
	}
	if ts.Pages != 2 || ts.LastCount != 3 {
		t.Fatalf("tail = %+v", ts)
	}
	// Append across a page boundary, then roll back.
	for i := 0; i < per; i++ {
		if _, err := h.Append(mk(1000 + int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() != 3 {
		t.Fatalf("pages = %d", h.NumPages())
	}
	if err := h.RestoreTail(ts); err != nil {
		t.Fatal(err)
	}
	if h.NumPages() != 2 {
		t.Fatalf("pages after restore = %d", h.NumPages())
	}
	n, err := h.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(per+3) {
		t.Fatalf("records after restore = %d, want %d", n, per+3)
	}
	var got []int64
	err = h.Scan(func(tp tuple.Tuple, rid RID) error {
		got = append(got, tp.Int64(0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("record %d = %d after rollback", i, v)
		}
	}
}

func TestApplyAtIdempotent(t *testing.T) {
	h, schema := crashHeap(t, 1)
	img := tuple.NewTuple(schema)
	img.SetInt64(0, 42)
	rid := RID{Page: 2, Slot: 1}
	for i := 0; i < 3; i++ { // replay may run more than once
		if err := h.ApplyAt(rid, img.Data); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() != 3 {
		t.Fatalf("pages = %d", h.NumPages())
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64(0) != 42 {
		t.Fatalf("value = %d", got.Int64(0))
	}
	// Slot 0 of page 2 is unwritten: count covers it, content is zero.
	z, err := h.Get(RID{Page: 2, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	if z.Int64(0) != 0 {
		t.Fatalf("hole = %d", z.Int64(0))
	}
	if err := h.ApplyAt(rid, make([]byte, 3)); err == nil {
		t.Fatal("short image accepted")
	}
}

func TestRestorePageRoundTrip(t *testing.T) {
	h, schema := crashHeap(t, 1)
	tp := tuple.NewTuple(schema)
	tp.SetInt64(0, 7)
	if _, err := h.Append(tp); err != nil {
		t.Fatal(err)
	}
	fr, err := h.Pool().FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(nil), fr.Data()...)
	if err := h.Pool().UnpinPage(0); err != nil {
		t.Fatal(err)
	}
	// Corrupt the page, then restore the image.
	fr, err = h.Pool().FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fr.Data() {
		fr.Data()[i] = 0xFF
	}
	fr.MarkDirty()
	if err := h.Pool().UnpinPage(0); err != nil {
		t.Fatal(err)
	}
	if err := h.RestorePage(0, snap); err != nil {
		t.Fatal(err)
	}
	fr, err = h.Pool().FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Data(), snap) {
		t.Fatal("restored page differs from image")
	}
	if err := h.Pool().UnpinPage(0); err != nil {
		t.Fatal(err)
	}
}

func TestUndeleteAndApplyDelete(t *testing.T) {
	h, schema := crashHeap(t, 1)
	tp := tuple.NewTuple(schema)
	tp.SetInt64(0, 9)
	rid, err := h.Append(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Undelete(rid); err == nil {
		t.Fatal("undelete of a live record succeeded")
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if err := h.Undelete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err != nil {
		t.Fatalf("record still dead after undelete: %v", err)
	}
	if h.Deleted() != 0 {
		t.Fatalf("deleted count %d after delete and undelete", h.Deleted())
	}
	for i := 0; i < 2; i++ { // idempotent
		if err := h.ApplyDelete(rid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Get(rid); err == nil {
		t.Fatal("record live after ApplyDelete")
	}
	// Redo counts nothing: recovery counts the log's delete records.
	if h.Deleted() != 0 {
		t.Fatalf("ApplyDelete counted: deleted count %d", h.Deleted())
	}
}
