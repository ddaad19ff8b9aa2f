package storage

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"sma/internal/tuple"
)

func newDisk(t testing.TB) *DiskManager {
	t.Helper()
	dm, err := OpenDiskManager(filepath.Join(t.TempDir(), "t.pages"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { dm.Close() })
	return dm
}

func TestDiskManagerReadWrite(t *testing.T) {
	dm := newDisk(t)
	var page [PageSize]byte
	page[0], page[PageSize-1] = 0xAB, 0xCD
	if err := dm.WritePage(0, page[:]); err != nil {
		t.Fatal(err)
	}
	if dm.NumPages() != 1 {
		t.Fatalf("NumPages = %d", dm.NumPages())
	}
	var got [PageSize]byte
	if err := dm.ReadPage(0, got[:]); err != nil {
		t.Fatal(err)
	}
	if got != page {
		t.Errorf("read back differs")
	}
}

func TestDiskManagerBounds(t *testing.T) {
	dm := newDisk(t)
	var page [PageSize]byte
	if err := dm.ReadPage(0, page[:]); err == nil {
		t.Errorf("read past EOF should fail")
	}
	if err := dm.WritePage(5, page[:]); err == nil {
		t.Errorf("write beyond append position should fail")
	}
	if err := dm.ReadPage(0, make([]byte, 10)); err == nil {
		t.Errorf("short buffer should fail")
	}
}

func TestDiskManagerStats(t *testing.T) {
	dm := newDisk(t)
	var page [PageSize]byte
	for i := 0; i < 3; i++ {
		if _, err := dm.AllocatePage(); err != nil {
			t.Fatal(err)
		}
	}
	dm.ResetStats()
	// Sequential: 0,1,2. Then random: 0.
	for _, id := range []PageID{0, 1, 2, 0} {
		if err := dm.ReadPage(id, page[:]); err != nil {
			t.Fatal(err)
		}
	}
	reads, _ := dm.Stats()
	if reads != 4 {
		t.Errorf("reads = %d, want 4", reads)
	}
	seq, rnd := dm.SeqRandReads()
	// First read of page 0 is "sequential" (lastRead initialized to -1).
	if seq != 3 || rnd != 1 {
		t.Errorf("seq/rand = %d/%d, want 3/1", seq, rnd)
	}
}

func TestBufferPoolHitMissEvict(t *testing.T) {
	dm := newDisk(t)
	for i := 0; i < 4; i++ {
		if _, err := dm.AllocatePage(); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(dm, 2)
	dm.ResetStats()

	// Miss, miss, hit.
	for _, id := range []PageID{0, 1, 0} {
		fr, err := bp.FetchPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := bp.UnpinPage(fr.ID()); err != nil {
			t.Fatal(err)
		}
	}
	st := bp.Stats()
	if st.Misses != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses 1 hit", st)
	}

	// Page 2 evicts the LRU (page 1; 0 was used more recently).
	fr, err := bp.FetchPage(2)
	if err != nil {
		t.Fatal(err)
	}
	bp.UnpinPage(fr.ID())
	if fr, err = bp.FetchPage(0); err != nil {
		t.Fatal(err) // still resident
	}
	bp.UnpinPage(fr.ID())
	if got := bp.Stats(); got.Hits != 2 {
		t.Errorf("page 0 should still be resident: %+v", got)
	}
}

func TestBufferPoolPinnedNotEvicted(t *testing.T) {
	dm := newDisk(t)
	for i := 0; i < 3; i++ {
		dm.AllocatePage()
	}
	bp := NewBufferPool(dm, 1)
	fr, err := bp.FetchPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.FetchPage(1); err == nil {
		t.Errorf("fetch with all frames pinned should fail")
	}
	bp.UnpinPage(fr.ID())
	if _, err := bp.FetchPage(1); err != nil {
		t.Errorf("fetch after unpin: %v", err)
	}
}

func TestBufferPoolDirtyWriteback(t *testing.T) {
	dm := newDisk(t)
	bp := NewBufferPool(dm, 1)
	fr, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0x99
	fr.MarkDirty()
	id := fr.ID()
	bp.UnpinPage(id)
	// Force eviction by reading another page.
	if _, err := bp.NewPage(); err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	if err := dm.ReadPage(id, page[:]); err != nil {
		t.Fatal(err)
	}
	if page[0] != 0x99 {
		t.Errorf("dirty page was not written back")
	}
}

func TestBufferPoolDropAll(t *testing.T) {
	dm := newDisk(t)
	bp := NewBufferPool(dm, 4)
	fr, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[77] = 0x42
	fr.MarkDirty()
	if err := bp.DropAll(); err == nil {
		t.Errorf("DropAll with pinned page should fail")
	}
	bp.UnpinPage(fr.ID())
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	if bp.Resident() != 0 {
		t.Errorf("pool not empty after DropAll")
	}
	var page [PageSize]byte
	if err := dm.ReadPage(0, page[:]); err != nil {
		t.Fatal(err)
	}
	if page[77] != 0x42 {
		t.Errorf("DropAll lost a dirty page")
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	dm := newDisk(t)
	bp := NewBufferPool(dm, 2)
	if err := bp.UnpinPage(0); err == nil {
		t.Errorf("unpin of non-resident page should fail")
	}
	fr, _ := bp.NewPage()
	bp.UnpinPage(fr.ID())
	if err := bp.UnpinPage(fr.ID()); err == nil {
		t.Errorf("double unpin should fail")
	}
}

func twoColSchema(t testing.TB) *tuple.Schema {
	t.Helper()
	return tuple.MustSchema([]tuple.Column{
		{Name: "K", Type: tuple.TInt64},
		{Name: "V", Type: tuple.TFloat64},
	})
}

func newHeap(t testing.TB, bucketPages, poolPages int) *HeapFile {
	t.Helper()
	dm := newDisk(t)
	h, err := NewHeapFile(NewBufferPool(dm, poolPages), twoColSchema(t), bucketPages)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHeapAppendGetScan(t *testing.T) {
	h := newHeap(t, 1, 64)
	const n = 1000
	tp := tuple.NewTuple(h.Schema())
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		tp.SetInt64(0, int64(i))
		tp.SetFloat64(1, float64(i)*1.5)
		rid, err := h.Append(tp)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	cnt, err := h.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Fatalf("NumRecords = %d, want %d", cnt, n)
	}
	// Point lookups.
	for _, i := range []int{0, 1, n / 2, n - 1} {
		got, err := h.Get(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64(0) != int64(i) {
			t.Errorf("Get(%v) = %d, want %d", rids[i], got.Int64(0), i)
		}
	}
	// Scan preserves physical (= insertion) order.
	expect := int64(0)
	err = h.Scan(func(tp tuple.Tuple, _ RID) error {
		if tp.Int64(0) != expect {
			t.Fatalf("scan out of order: got %d want %d", tp.Int64(0), expect)
		}
		expect++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeapUpdate(t *testing.T) {
	h := newHeap(t, 1, 8)
	tp := tuple.NewTuple(h.Schema())
	tp.SetInt64(0, 1)
	rid, err := h.Append(tp)
	if err != nil {
		t.Fatal(err)
	}
	tp.SetInt64(0, 99)
	if err := h.Update(rid, tp); err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64(0) != 99 {
		t.Errorf("update lost: %d", got.Int64(0))
	}
	if err := h.Update(RID{Page: 0, Slot: 500}, tp); err == nil {
		t.Errorf("update of bad slot should fail")
	}
}

func TestHeapBuckets(t *testing.T) {
	h := newHeap(t, 2, 64) // 2 pages per bucket
	per := h.RecordsPerPage()
	tp := tuple.NewTuple(h.Schema())
	// Fill 5 pages.
	for i := 0; i < per*5; i++ {
		tp.SetInt64(0, int64(i))
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() != 5 {
		t.Fatalf("NumPages = %d, want 5", h.NumPages())
	}
	if h.NumBuckets() != 3 {
		t.Fatalf("NumBuckets = %d, want 3 (partial last)", h.NumBuckets())
	}
	if h.BucketOf(0) != 0 || h.BucketOf(1) != 0 || h.BucketOf(2) != 1 || h.BucketOf(4) != 2 {
		t.Errorf("BucketOf wrong")
	}
	first, last := h.BucketRange(2)
	if first != 4 || last != 4 {
		t.Errorf("BucketRange(2) = [%d,%d], want [4,4] (clamped)", first, last)
	}
	// A stream over the bucket's pages reads exactly its tuples, each with
	// its own position, and skips a deleted one.
	lo, hi := h.BucketRange(1)
	readBucket := func() (recs []byte, rids []RID) {
		var s PageStream
		s.Open(h, []PageSpan{{First: lo, Last: hi}}, 0, make([]*Frame, 0, 2))
		defer s.Close()
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			var err error
			if recs, _, err = s.Read(context.Background(), recs, per, &rids); err != nil {
				t.Fatal(err)
			}
		}
		return recs, rids
	}
	rs := h.Schema().RecordSize()
	check := func(recs []byte, rids []RID, want int) {
		t.Helper()
		if len(rids) != want || len(recs) != want*rs {
			t.Fatalf("bucket 1 read %d positions and %d records, want %d", len(rids), len(recs)/rs, want)
		}
		for i, rid := range rids {
			got := tuple.Tuple{Schema: h.Schema(), Data: recs[i*rs : (i+1)*rs]}
			if stored, err := h.Get(rid); h.BucketOf(rid.Page) != 1 || err != nil || string(stored.Data) != string(got.Data) {
				t.Fatalf("position %d is %v, not the record read (%v)", i, rid, err)
			}
		}
	}
	recs, rids := readBucket()
	check(recs, rids, per*2)
	gone := rids[per+3]
	if err := h.Delete(gone); err != nil {
		t.Fatal(err)
	}
	recs, rids = readBucket()
	check(recs, rids, per*2-1)
	for _, rid := range rids {
		if rid == gone {
			t.Fatalf("deleted %v read", gone)
		}
	}
}

// TestReadPageInto checks the scans' page-decode step: the page's records
// are appended to dst in slot order, behind what dst already holds, and no
// pin outlives the call.
func TestReadPageInto(t *testing.T) {
	h := newHeap(t, 1, 8)
	per := h.RecordsPerPage()
	tp := tuple.NewTuple(h.Schema())
	for i := 0; i < 2*per; i++ {
		tp.SetInt64(0, int64(i))
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for p := PageID(0); p < 2; p++ {
		var n int
		var err error
		if buf, n, err = h.ReadPageInto(p, buf); err != nil {
			t.Fatal(err)
		}
		if n != per {
			t.Errorf("page %d yielded %d records, want %d", p, n, per)
		}
	}
	rs := h.Schema().RecordSize()
	if len(buf) != 2*per*rs {
		t.Fatalf("buffer holds %d bytes, want %d", len(buf), 2*per*rs)
	}
	for i := 0; i < 2*per; i++ {
		rec := tuple.Tuple{Schema: h.Schema(), Data: buf[i*rs : (i+1)*rs]}
		if rec.Int64(0) != int64(i) {
			t.Fatalf("record %d out of order: %d", i, rec.Int64(0))
		}
	}
	if err := h.Pool().DropAll(); err != nil {
		t.Fatalf("a page stayed pinned: %v", err)
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	huge := tuple.MustSchema([]tuple.Column{{Name: "C", Type: tuple.TChar, Len: PageSize}})
	dm := newDisk(t)
	if _, err := NewHeapFile(NewBufferPool(dm, 4), huge, 1); err == nil {
		t.Errorf("record larger than a page should be rejected")
	}
	if _, err := NewHeapFile(NewBufferPool(dm, 4), twoColSchema(t), 0); err == nil {
		t.Errorf("bucketPages 0 should be rejected")
	}
}

// TestQuickHeapRoundTrip property-tests that appended values come back in
// order through a scan, across page boundaries, with a pool smaller than
// the file.
func TestQuickHeapRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) > 3000 {
			vals = vals[:3000]
		}
		h := newHeap(t, 1, 4)
		tp := tuple.NewTuple(h.Schema())
		for _, v := range vals {
			tp.SetInt64(0, v)
			if _, err := h.Append(tp); err != nil {
				return false
			}
		}
		i := 0
		err := h.Scan(func(tp tuple.Tuple, _ RID) error {
			if tp.Int64(0) != vals[i] {
				t.Fatalf("value %d mismatched", i)
			}
			i++
			return nil
		})
		return err == nil && i == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickBufferPoolConsistency: a random fetch/write/unpin/evict workload
// never loses or corrupts page contents (verified against a shadow copy).
func TestQuickBufferPoolConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dm := newDisk(t)
		const numPages = 24
		shadow := make([][PageSize]byte, numPages)
		for i := 0; i < numPages; i++ {
			if _, err := dm.AllocatePage(); err != nil {
				return false
			}
		}
		bp := NewBufferPool(dm, 4) // much smaller than the page count
		for op := 0; op < 500; op++ {
			id := PageID(rng.Intn(numPages))
			fr, err := bp.FetchPage(id)
			if err != nil {
				return false
			}
			if fr.Data()[0] != shadow[id][0] || fr.Data()[PageSize-1] != shadow[id][PageSize-1] {
				t.Logf("seed %d op %d: page %d corrupted", seed, op, id)
				return false
			}
			if rng.Intn(2) == 0 {
				b := byte(rng.Intn(256))
				fr.Data()[0], fr.Data()[PageSize-1] = b, b
				shadow[id][0], shadow[id][PageSize-1] = b, b
				fr.MarkDirty()
			}
			if err := bp.UnpinPage(id); err != nil {
				return false
			}
			if rng.Intn(20) == 0 {
				if err := bp.DropAll(); err != nil {
					return false
				}
			}
		}
		// Flush and verify everything against the disk.
		if err := bp.FlushAll(); err != nil {
			return false
		}
		var buf [PageSize]byte
		for i := 0; i < numPages; i++ {
			if err := dm.ReadPage(PageID(i), buf[:]); err != nil {
				return false
			}
			if buf[0] != shadow[i][0] || buf[PageSize-1] != shadow[i][PageSize-1] {
				t.Logf("seed %d: page %d lost data on disk", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
