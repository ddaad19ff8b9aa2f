package storage

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"sma/internal/tuple"
)

// pageHeaderSize reserves bytes at the start of every heap page for the
// record count (bytes 0-1), the count of deleted records (bytes 2-3), the
// page checksum (bytes 4-7, see checksum.go) plus padding for future use.
// Records follow in slot order; the page ends in its delete marks, one bit
// per slot (set: deleted). A delete touches the one page that holds the
// record, and the checksum covers its mark like any other byte.
const pageHeaderSize = 16

// RID identifies a record by page and slot within that page.
type RID struct {
	Page PageID
	Slot int
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// HeapFile stores fixed-width records of one schema in page order. New
// records are appended to the last page — the "implicit clustering by time
// of creation" the paper builds on. Pages are grouped into buckets of
// BucketPages consecutive pages; SMA entries correspond positionally to
// these buckets.
type HeapFile struct {
	pool   *BufferPool
	schema *tuple.Schema

	// BucketPages is the number of consecutive pages per SMA bucket.
	// The paper: "Examples of buckets are single pages or consecutive
	// sequences of pages." Must be >= 1.
	BucketPages int

	perPage int // records per page
	marks   int // offset of the delete marks in a page
	// deleted counts the records marked deleted in the whole file, so
	// NumRecords reads no page but the last.
	deleted atomic.Int64
}

// NewHeapFile wraps an open page file as a heap of records with the given
// schema. bucketPages controls the SMA bucket granularity.
func NewHeapFile(pool *BufferPool, schema *tuple.Schema, bucketPages int) (*HeapFile, error) {
	if bucketPages < 1 {
		return nil, fmt.Errorf("storage: bucketPages must be >= 1, got %d", bucketPages)
	}
	// The most records whose bytes and marks fit beside the header.
	rs := schema.RecordSize()
	per := (PageSize - pageHeaderSize) / rs
	for per > 0 && pageHeaderSize+per*rs+(per+7)/8 > PageSize {
		per--
	}
	if per < 1 {
		return nil, fmt.Errorf("storage: record size %d does not fit in a page", rs)
	}
	return &HeapFile{pool: pool, schema: schema, BucketPages: bucketPages, perPage: per, marks: PageSize - (per+7)/8}, nil
}

// Schema returns the record schema.
func (h *HeapFile) Schema() *tuple.Schema { return h.schema }

// Pool returns the buffer pool backing the heap file.
func (h *HeapFile) Pool() *BufferPool { return h.pool }

// RecordsPerPage returns the number of record slots per page.
func (h *HeapFile) RecordsPerPage() int { return h.perPage }

// NumPages returns the number of pages in the file.
func (h *HeapFile) NumPages() int64 { return h.pool.Disk().NumPages() }

// NumBuckets returns the number of (possibly partial) buckets.
func (h *HeapFile) NumBuckets() int {
	np := h.NumPages()
	bp := int64(h.BucketPages)
	return int((np + bp - 1) / bp)
}

// BucketOf returns the bucket number containing page id.
func (h *HeapFile) BucketOf(id PageID) int { return int(int64(id) / int64(h.BucketPages)) }

// BucketRange returns the page range [first, last] of bucket b, clamped to
// the file size. last is inclusive.
func (h *HeapFile) BucketRange(b int) (first, last PageID) {
	first = PageID(int64(b) * int64(h.BucketPages))
	last = first + PageID(h.BucketPages) - 1
	if max := PageID(h.NumPages() - 1); last > max {
		last = max
	}
	return first, last
}

func pageCount(data []byte) int {
	return int(binary.LittleEndian.Uint16(data))
}

func setPageCount(data []byte, n int) {
	binary.LittleEndian.PutUint16(data, uint16(n))
}

func deadCount(data []byte) int {
	return int(binary.LittleEndian.Uint16(data[2:]))
}

// dead reports whether slot s of the page image data is marked deleted.
func (h *HeapFile) dead(data []byte, s int) bool {
	return data[h.marks+s/8]&(1<<(s%8)) != 0
}

// Append adds a record to the end of the file and returns its RID: the
// one-record case of AppendRun.
func (h *HeapFile) Append(t tuple.Tuple) (RID, error) {
	if t.Schema != h.schema && t.Schema.RecordSize() != h.schema.RecordSize() {
		// Structurally identical schemas (e.g. reloaded catalogs) pass.
		return RID{}, fmt.Errorf("storage: tuple schema mismatch")
	}
	rid, _, err := h.AppendRun(t.Data)
	return rid, err
}

// AppendRun appends as many of the packed records recs as the last page
// still has room for — a fresh page's worth when it is full — and returns
// the position of the first and how many were placed: the records occupy
// slots [first.Slot, first.Slot+n) of page first.Page. The touched page is
// pinned, marked dirty and unpinned once, however many records land on it;
// callers loop until the run is placed, one page at a time.
func (h *HeapFile) AppendRun(recs []byte) (first RID, n int, err error) {
	rs := h.schema.RecordSize()
	if len(recs) == 0 || len(recs)%rs != 0 {
		return RID{}, 0, fmt.Errorf("storage: append of %d bytes is not whole %d-byte records", len(recs), rs)
	}
	var fr *Frame
	if np := h.NumPages(); np > 0 {
		if fr, err = h.pool.FetchPage(PageID(np - 1)); err != nil {
			return RID{}, 0, err
		}
		if pageCount(fr.Data()) >= h.perPage {
			if err := h.pool.UnpinPage(fr.ID()); err != nil {
				return RID{}, 0, err
			}
			fr = nil
		}
	}
	if fr == nil {
		if fr, err = h.pool.NewPage(); err != nil {
			return RID{}, 0, err
		}
	}
	data := fr.Data()
	slot := pageCount(data)
	n = min(len(recs)/rs, h.perPage-slot)
	copy(data[pageHeaderSize+slot*rs:], recs[:n*rs])
	setPageCount(data, slot+n)
	fr.MarkDirty()
	first = RID{Page: fr.ID(), Slot: slot}
	if err := h.pool.UnpinPage(fr.ID()); err != nil {
		return RID{}, 0, err
	}
	return first, n, nil
}

// Get reads the record at rid into a freshly allocated tuple.
func (h *HeapFile) Get(rid RID) (tuple.Tuple, error) {
	fr, err := h.pool.FetchPage(rid.Page)
	if err != nil {
		return tuple.Tuple{}, err
	}
	defer h.pool.UnpinPage(rid.Page)
	n := pageCount(fr.Data())
	if rid.Slot < 0 || rid.Slot >= n {
		return tuple.Tuple{}, fmt.Errorf("storage: slot %d out of range [0,%d) on page %d", rid.Slot, n, rid.Page)
	}
	if h.dead(fr.Data(), rid.Slot) {
		return tuple.Tuple{}, fmt.Errorf("storage: record %v is deleted", rid)
	}
	off := pageHeaderSize + rid.Slot*h.schema.RecordSize()
	t := tuple.NewTuple(h.schema)
	copy(t.Data, fr.Data()[off:off+h.schema.RecordSize()])
	return t, nil
}

// Update overwrites the record at rid with t. This is the ≤1-extra-page-
// access update path the paper highlights; SMA maintenance hooks observe the
// old and new images via the returned values of the caller.
func (h *HeapFile) Update(rid RID, t tuple.Tuple) error {
	fr, err := h.pool.FetchPage(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.UnpinPage(rid.Page)
	n := pageCount(fr.Data())
	if rid.Slot < 0 || rid.Slot >= n {
		return fmt.Errorf("storage: slot %d out of range [0,%d) on page %d", rid.Slot, n, rid.Page)
	}
	off := pageHeaderSize + rid.Slot*h.schema.RecordSize()
	copy(fr.Data()[off:off+h.schema.RecordSize()], t.Data)
	fr.MarkDirty()
	return nil
}

// NumRecords counts the live records. Records are fixed-width and Append
// fills the last page before allocating a new one, so every page but the
// last is exactly full: the count costs at most one page read (the last
// page), which keeps callers like a server's /status cheap no matter how
// large the relation is. Deletes only mark their slot and never shrink a
// page's slot count, so subtracting the deleted count is exact.
func (h *HeapFile) NumRecords() (int64, error) {
	np := h.NumPages()
	var total int64
	if np > 0 {
		last := PageID(np - 1)
		fr, err := h.pool.FetchPage(last)
		if err != nil {
			return 0, err
		}
		total = (np-1)*int64(h.perPage) + int64(pageCount(fr.Data()))
		if err := h.pool.UnpinPage(last); err != nil {
			return 0, err
		}
	}
	return total - h.deleted.Load(), nil
}

// PageRecords pins page p and returns its record count. The caller provides
// visit, which receives each record as a Tuple aliasing frame memory; the
// tuple must not be retained after visit returns.
func (h *HeapFile) PageRecords(p PageID, visit func(t tuple.Tuple, rid RID) error) error {
	fr, err := h.pool.FetchPage(p)
	if err != nil {
		return err
	}
	defer h.pool.UnpinPage(p)
	data := fr.Data()
	n, rs := pageCount(data), h.schema.RecordSize()
	for s := 0; s < n; s++ {
		if h.dead(data, s) {
			continue
		}
		off := pageHeaderSize + s*rs
		t := tuple.Tuple{Schema: h.schema, Data: data[off : off+rs]}
		if err := visit(t, RID{Page: p, Slot: s}); err != nil {
			return err
		}
	}
	return nil
}

// ReadPageInto appends the live records of page p to dst and returns the
// extended slice plus the number of records appended. The page is pinned
// only for the duration of the copy; when the page has no deleted records
// the copy is a single memcpy of the page's record area. This is the
// page-decode step of the scan operators.
func (h *HeapFile) ReadPageInto(p PageID, dst []byte) ([]byte, int, error) {
	return h.readPage(p, dst, nil)
}

// readPage is ReadPageInto that also appends the position of every record
// it appends to *rids, when rids is non-nil.
func (h *HeapFile) readPage(p PageID, dst []byte, rids *[]RID) ([]byte, int, error) {
	fr, err := h.pool.FetchPage(p)
	if err != nil {
		return dst, 0, err
	}
	defer h.pool.unpin(fr)
	dst, n := h.copyPage(fr, dst, rids)
	return dst, n, nil
}

// copyPage is readPage's copy step, from the page image of fr, which the
// caller pins: it appends the live records to dst, and their positions to
// *rids when rids is non-nil, and returns the extended slice and the number
// of records appended.
func (h *HeapFile) copyPage(fr *Frame, dst []byte, rids *[]RID) ([]byte, int) {
	data := fr.Data()
	n := pageCount(data)
	rs := h.schema.RecordSize()
	marked := deadCount(data) > 0
	if rids == nil && !marked {
		return append(dst, data[pageHeaderSize:pageHeaderSize+n*rs]...), n
	}
	live := 0
	for s := 0; s < n; s++ {
		if marked && h.dead(data, s) {
			continue
		}
		off := pageHeaderSize + s*rs
		dst = append(dst, data[off:off+rs]...)
		if rids != nil {
			*rids = append(*rids, RID{Page: fr.id, Slot: s})
		}
		live++
	}
	return dst, live
}

// Delete marks the record at rid deleted: one bit and the dead count of its
// page, which is then dirty. Deleting an already-deleted or out-of-range
// record fails.
func (h *HeapFile) Delete(rid RID) error { return h.setMark(rid, true) }

// Undelete clears the delete mark of rid, reversing a Delete during
// statement rollback. Clearing a record that is not marked fails.
func (h *HeapFile) Undelete(rid RID) error { return h.setMark(rid, false) }

// setMark is Delete (dead) and Undelete: it fails unless the mark changes,
// and keeps the file's deleted count.
func (h *HeapFile) setMark(rid RID, dead bool) error {
	d, err := h.mark(rid, dead, false)
	if err == nil && d == 0 {
		err = fmt.Errorf("storage: delete mark of record %v is already %v", rid, dead)
	}
	h.deleted.Add(int64(d))
	return err
}

// ApplyDelete marks rid deleted — the idempotent redo used by WAL replay:
// re-marking a marked record (a page written back after the checkpoint
// already holds the mark) is a no-op, not an error. It counts nothing;
// recovery sets the count from the log (SetDeleted). The slot is checked
// against the page's capacity, not its record count: before a full-page
// image heals it, a torn page's count may be garbage.
func (h *HeapFile) ApplyDelete(rid RID) error {
	_, err := h.mark(rid, true, true)
	return err
}

// mark sets (dead) or clears the delete mark of rid's slot, keeping the
// page's dead count, and returns the change of that count: +1, -1, or 0
// when the mark already was as asked. redo bounds the slot by the page's
// capacity instead of its record count.
func (h *HeapFile) mark(rid RID, dead, redo bool) (int, error) {
	fr, err := h.pool.FetchPage(rid.Page)
	if err != nil {
		return 0, err
	}
	defer h.pool.unpin(fr)
	data := fr.Data()
	n := pageCount(data)
	if redo {
		n = h.perPage
	}
	if rid.Slot < 0 || rid.Slot >= n {
		return 0, fmt.Errorf("storage: slot %d out of range [0,%d) on page %d", rid.Slot, n, rid.Page)
	}
	if h.dead(data, rid.Slot) == dead {
		return 0, nil
	}
	d := 1
	if !dead {
		d = -1
	}
	data[h.marks+rid.Slot/8] ^= 1 << (rid.Slot % 8)
	binary.LittleEndian.PutUint16(data[2:], uint16(deadCount(data)+d))
	fr.MarkDirty()
	return d, nil
}

// Deleted returns the number of records marked deleted in the file.
func (h *HeapFile) Deleted() int64 { return h.deleted.Load() }

// SetDeleted sets the deleted count, which the heap keeps across Delete
// and Undelete but cannot know of pages it did not mark: Open takes it
// from the log's checkpoint header plus the deletes it replays.
func (h *HeapFile) SetDeleted(n int64) { h.deleted.Store(n) }

// Recount sets the deleted count from every page's dead count — one read
// of every page, for a recovery with no log to count from.
func (h *HeapFile) Recount() error {
	var n int64
	for p := PageID(0); int64(p) < h.NumPages(); p++ {
		fr, err := h.pool.FetchPage(p)
		if err != nil {
			return err
		}
		n += int64(deadCount(fr.Data()))
		h.pool.unpin(fr)
	}
	h.deleted.Store(n)
	return nil
}

// TailState captures the append position of the heap — the page count
// and the record count of the last page — so a statement can be rolled
// back to exactly where it started.
type TailState struct {
	Pages     int64
	LastCount int
}

// Tail snapshots the current append position.
func (h *HeapFile) Tail() (TailState, error) {
	np := h.NumPages()
	ts := TailState{Pages: np}
	if np > 0 {
		fr, err := h.pool.FetchPage(PageID(np - 1))
		if err != nil {
			return TailState{}, err
		}
		ts.LastCount = pageCount(fr.Data())
		if err := h.pool.UnpinPage(fr.ID()); err != nil {
			return TailState{}, err
		}
	}
	return ts, nil
}

// RestoreTail rolls the append position back to ts: pages allocated
// since the snapshot are discarded from the pool and truncated from the
// file, and the last surviving page's record count (and the bytes of
// the revoked slots) is reset. Only valid while the statement's dirty
// pages are still pooled — the statement barrier guarantees that.
func (h *HeapFile) RestoreTail(ts TailState) error {
	np := h.NumPages()
	for p := ts.Pages; p < np; p++ {
		if err := h.pool.Discard(PageID(p)); err != nil {
			return err
		}
	}
	if np > ts.Pages {
		if err := h.pool.Disk().Truncate(ts.Pages); err != nil {
			return err
		}
	}
	if ts.Pages == 0 {
		return nil
	}
	fr, err := h.pool.FetchPage(PageID(ts.Pages - 1))
	if err != nil {
		return err
	}
	data := fr.Data()
	if n := pageCount(data); n > ts.LastCount {
		rs := h.schema.RecordSize()
		from := pageHeaderSize + ts.LastCount*rs
		to := pageHeaderSize + n*rs
		for i := from; i < to && i < len(data); i++ {
			data[i] = 0
		}
		setPageCount(data, ts.LastCount)
		fr.MarkDirty()
	}
	return h.pool.UnpinPage(fr.ID())
}

// ApplyAt places record images at an exact position, allocating pages as
// needed — the idempotent redo used by WAL replay for inserts, insert runs
// and updates, and by rollback. data holds one image or several, which go
// into consecutive slots from rid.Slot. Replaying an op that already
// reached disk leaves the page unchanged.
func (h *HeapFile) ApplyAt(rid RID, data []byte) error {
	rs := h.schema.RecordSize()
	n := len(data) / rs
	if n == 0 || len(data)%rs != 0 {
		return fmt.Errorf("storage: ApplyAt image has %d bytes, want a multiple of %d", len(data), rs)
	}
	if rid.Slot < 0 || rid.Slot+n > h.perPage {
		return fmt.Errorf("storage: ApplyAt slots [%d,%d) out of range [0,%d)", rid.Slot, rid.Slot+n, h.perPage)
	}
	if err := h.growTo(rid.Page); err != nil {
		return err
	}
	fr, err := h.pool.FetchPage(rid.Page)
	if err != nil {
		return err
	}
	pdata := fr.Data()
	copy(pdata[pageHeaderSize+rid.Slot*rs:], data)
	if rid.Slot+n > pageCount(pdata) {
		setPageCount(pdata, rid.Slot+n)
	}
	fr.MarkDirty()
	return h.pool.UnpinPage(fr.ID())
}

// growTo allocates empty pages until page id exists.
func (h *HeapFile) growTo(id PageID) error {
	for h.NumPages() <= int64(id) {
		fr, err := h.pool.NewPage()
		if err != nil {
			return err
		}
		if err := h.pool.UnpinPage(fr.ID()); err != nil {
			return err
		}
	}
	return nil
}

// RestorePage overwrites page id with a full image, allocating pages as
// needed — the redo for WAL full-page-image records.
func (h *HeapFile) RestorePage(id PageID, img []byte) error {
	if len(img) != PageSize {
		return fmt.Errorf("storage: RestorePage image has %d bytes, want %d", len(img), PageSize)
	}
	if err := h.growTo(id); err != nil {
		return err
	}
	fr, err := h.pool.FetchPage(id)
	if err != nil {
		return err
	}
	copy(fr.Data(), img)
	fr.MarkDirty()
	return h.pool.UnpinPage(fr.ID())
}

// Truncate drops every page at or beyond pages, discarding pooled
// frames and shrinking the file. Recovery uses it to remove pages
// allocated by statements that never committed.
func (h *HeapFile) Truncate(pages int64) error {
	np := h.NumPages()
	for p := pages; p < np; p++ {
		if err := h.pool.Discard(PageID(p)); err != nil {
			return err
		}
	}
	if np > pages {
		return h.pool.Disk().Truncate(pages)
	}
	return nil
}

// Scan visits every record in the file in physical order.
func (h *HeapFile) Scan(visit func(t tuple.Tuple, rid RID) error) error {
	np := h.NumPages()
	for p := PageID(0); int64(p) < np; p++ {
		if err := h.PageRecords(p, visit); err != nil {
			return err
		}
	}
	return nil
}

// SizeBytes returns the file size in bytes.
func (h *HeapFile) SizeBytes() int64 { return h.NumPages() * PageSize }
