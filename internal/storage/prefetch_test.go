package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sma/internal/obs"
)

// prefetchDisk allocates n pages with a recognizable first byte each.
func prefetchDisk(t *testing.T, n int) *DiskManager {
	t.Helper()
	dm := newDisk(t)
	var page [PageSize]byte
	for i := 0; i < n; i++ {
		page[0] = byte(i)
		if err := dm.WritePage(PageID(i), page[:]); err != nil {
			t.Fatal(err)
		}
	}
	return dm
}

// waitIssued polls until the prefetcher has read ahead at least n pages.
func waitIssued(t *testing.T, p *prefetcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for int(p.issued.Load()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("prefetcher stuck at %d/%d pages", int(p.issued.Load()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetchWindowAndHits drives a prefetcher like a scan would: the
// prefetcher stays within its window, the consumer's fetches land on
// prefetched frames, and the pool attributes hits to readahead.
func TestPrefetchWindowAndHits(t *testing.T) {
	const numPages, window = 32, 4
	dm := prefetchDisk(t, numPages)
	bp := NewBufferPool(dm, 64)

	// Two spans covering all pages, exercising the span→page mapping.
	spans := []PageSpan{{First: 0, Last: numPages/2 - 1}, {First: numPages / 2, Last: numPages - 1}}
	p := bp.startPrefetch(spans, window)
	if p == nil {
		t.Fatal("startPrefetch returned nil for a valid window")
	}
	defer p.close()

	// Without consumption the prefetcher must stall at the window.
	waitIssued(t, p, window)
	time.Sleep(10 * time.Millisecond)
	if got := int(p.issued.Load()); got > window {
		t.Fatalf("prefetcher ran %d pages ahead, window is %d", got, window)
	}

	hits := 0
	for i := 0; i < numPages; i++ {
		id := PageID(i)
		if p.claim() {
			hits++
		}
		fr, err := bp.FetchPage(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		if fr.Data()[0] != byte(i) {
			t.Fatalf("page %d has wrong contents", i)
		}
		if err := bp.UnpinPage(id); err != nil {
			t.Fatal(err)
		}
	}
	if hits == 0 {
		t.Fatal("no scan fetch landed on a prefetched page")
	}
	p.close()

	st := bp.Stats()
	if st.Prefetched == 0 {
		t.Fatal("pool counted no prefetched reads")
	}
	if st.PrefetchHits == 0 {
		t.Fatal("pool counted no prefetch hits")
	}
	// Prefetch and demand must have coalesced: every page exactly one
	// physical read.
	reads, _ := dm.Stats()
	if reads != numPages {
		t.Fatalf("%d physical reads for %d pages; prefetch duplicated I/O", reads, numPages)
	}
}

// TestPrefetchedFrameEvictable verifies that a prefetched-but-never-pinned
// frame is an ordinary eviction candidate: on a two-frame pool, demand
// fetches of other pages must be able to evict it.
func TestPrefetchedFrameEvictable(t *testing.T) {
	dm := prefetchDisk(t, 4)
	bp := NewBufferPool(dm, 2)

	// A window of one: the readers stop after page 0.
	p := bp.startPrefetch([]PageSpan{{First: 0, Last: 1}}, 1)
	if p == nil {
		t.Fatal("window clamped to zero on a 2-frame pool")
	}
	waitIssued(t, p, 1)
	p.close()

	if bp.Resident() != 1 {
		t.Fatalf("resident = %d after prefetch", bp.Resident())
	}
	// Two demand fetches fill the pool; the second must evict the
	// prefetched page 0 rather than fail.
	for _, id := range []PageID{1, 2} {
		fr, err := bp.FetchPage(id)
		if err != nil {
			t.Fatalf("fetch %d with prefetched frame resident: %v", id, err)
		}
		if fr.Data()[0] != byte(id) {
			t.Fatalf("page %d has wrong contents", id)
		}
		if err := bp.UnpinPage(id); err != nil {
			t.Fatal(err)
		}
	}
	if bp.Stats().Evictions == 0 {
		t.Fatal("prefetched frame was never evicted")
	}
}

// TestPrefetcherCloseReleasesPool is the shutdown regression test: closing
// a prefetcher mid-stream on a tiny pool must leave no pinned frame and no
// leaked loading channel, so DropAll and further fetches succeed.
func TestPrefetcherCloseReleasesPool(t *testing.T) {
	const numPages = 64
	dm := prefetchDisk(t, numPages)
	dm.SetReadLatency(200 * time.Microsecond) // keep reads in flight at Close
	bp := NewBufferPool(dm, 4)

	p := bp.startPrefetch([]PageSpan{{First: 0, Last: numPages - 1}}, 2)
	waitIssued(t, p, 1)
	p.close() // must wait for in-flight reads and drop their pins

	if err := bp.DropAll(); err != nil {
		t.Fatalf("DropAll after prefetcher Close: %v", err)
	}
	dm.SetReadLatency(0)
	// A frame abandoned with a stuck loading channel would hang this fetch.
	done := make(chan error, 1)
	go func() {
		fr, err := bp.FetchPage(3)
		if err == nil {
			err = bp.UnpinPage(fr.ID())
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fetch after shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch after shutdown hung on a leaked loading channel")
	}
}

// TestPrefetchReaderContainsPanickingRead: a read that panics on a prefetch
// reader's goroutine (a fault hook here; any lower-layer bug in general)
// would, uncontained, kill the process — no statement panic boundary
// covers that goroutine. The reader must swallow it like a read error: the
// failed pages are not claimable as hits, the demand fetch re-raises the
// fault on its caller's goroutine, Close drains, and no frame stays pinned.
// A reader's unit in flight is a run, so the fault strikes once per run —
// at the run's first page — not once per position.
func TestPrefetchReaderContainsPanickingRead(t *testing.T) {
	const numPages, window = 16, 8
	dm := prefetchDisk(t, numPages)
	bp := NewBufferPool(dm, 16)
	var faulted atomic.Int64
	dm.SetFault(func(op string, _ PageID) error {
		if op == "read" {
			faulted.Add(1)
			panic("injected read panic")
		}
		return nil
	})

	p := bp.startPrefetch([]PageSpan{{First: 0, Last: numPages - 1}}, window)
	if p == nil {
		t.Fatal("startPrefetch returned nil for a valid window")
	}
	// Both in-window runs fail, and with the window taken every reader parks.
	readers := int32(min(prefetchReaders, window))
	for deadline := time.Now().Add(5 * time.Second); p.waiting.Load() < readers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d readers parked after %d faults", p.waiting.Load(), readers, faulted.Load())
		}
	}
	if got, want := faulted.Load(), int64((window+prefetchRun-1)/prefetchRun); got != want {
		t.Errorf("the fault struck %d times, want once for each of the %d runs in the window", got, want)
	}

	// The demand fetch meets the same fault on the caller's goroutine,
	// where a statement's panic boundary can turn it into an error (or,
	// had it coalesced with an in-flight prefetch read, as a load error).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("demand fetch of a faulted page neither panicked nor failed")
			}
		}()
		if _, err := bp.FetchPage(0); err != nil {
			panic(err)
		}
	}()

	p.close()
	for id := PageID(0); id < numPages; id++ {
		if p.claim() {
			t.Errorf("page %d: a failed prefetch is claimable as a hit", id)
		}
	}
	if int(p.issued.Load()) != 0 {
		t.Errorf("prefetcher reports %d pages read", int(p.issued.Load()))
	}

	dm.SetFault(nil)
	if err := bp.DropAll(); err != nil {
		t.Fatalf("DropAll after the faulted prefetch (a frame is still pinned?): %v", err)
	}
	fr, err := bp.FetchPage(1)
	if err != nil {
		t.Fatalf("fetch after the fault cleared: %v", err)
	}
	if fr.Data()[0] != 1 {
		t.Fatal("page 1 has wrong contents")
	}
	if err := bp.UnpinPage(1); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchWindowClamp checks the safety clamps: tiny pools disable or
// shrink readahead instead of starving demand fetches.
func TestPrefetchWindowClamp(t *testing.T) {
	dm := prefetchDisk(t, 8)
	if p := NewBufferPool(dm, 1).startPrefetch([]PageSpan{{First: 0, Last: 1}}, 16); p != nil {
		t.Fatal("1-frame pool should refuse to prefetch")
	}
	if p := NewBufferPool(dm, 64).startPrefetch(nil, 16); p != nil {
		t.Fatal("empty span list should return a nil prefetcher")
	}
	if p := NewBufferPool(dm, 64).startPrefetch([]PageSpan{{First: 3, Last: 2}}, 16); p != nil {
		t.Fatal("empty span should return a nil prefetcher")
	}
	if p := NewBufferPool(dm, 64).startPrefetch([]PageSpan{{First: 2, Last: 2}, {First: 5, Last: 4}}, 16); p != nil {
		t.Fatal("a single page should return a nil prefetcher: its demand read is that read")
	}
}

// TestPoolMissAllocatesNothingAtCapacity: once the pool is full, a miss
// recycles its victim's frame in place — intrusive LRU links, no channel
// for a read nobody waits for — so a miss and its unpin allocate nothing.
// LRU order is kept: the victim is always the least recently unpinned.
func TestPoolMissAllocatesNothingAtCapacity(t *testing.T) {
	const numPages, capacity = 64, 8
	dm := prefetchDisk(t, numPages)
	bp := NewBufferPool(dm, capacity)
	next := PageID(0)
	miss := func() {
		fr, err := bp.FetchPage(next)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(next) {
			t.Fatalf("page %d has wrong contents", next)
		}
		if err := bp.UnpinPage(next); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % numPages
	}
	for i := 0; i < 2*numPages; i++ { // fill the pool, settle the page table
		miss()
	}
	before := bp.Stats()
	if avg := testing.AllocsPerRun(200, miss); avg != 0 {
		t.Errorf("a pool miss and its unpin allocate %.1f times at capacity, want 0", avg)
	}
	after := bp.Stats()
	if n := after.Misses - before.Misses; n != after.Evictions-before.Evictions || after.Hits != before.Hits {
		t.Errorf("cycling %d pages through %d frames: %+v -> %+v, want every fetch a miss and an eviction",
			numPages, capacity, before, after)
	}
	if bp.Resident() != capacity {
		t.Errorf("%d pages resident, want %d", bp.Resident(), capacity)
	}
	// The frames resident now are the last `capacity` pages fetched, and
	// the next victim is the oldest of them.
	oldest := (next + numPages - capacity) % numPages
	if _, err := bp.FetchPage(next); err != nil {
		t.Fatal(err)
	}
	bp.mu.Lock()
	stillThere := bp.frames[oldest] != nil
	bp.mu.Unlock()
	if stillThere {
		t.Errorf("page %d, the least recently used, survived an eviction", oldest)
	}
}

// TestCoFetchersShareOneRead: fetchers that arrive while a page is being
// read wait for that read instead of issuing their own.
func TestCoFetchersShareOneRead(t *testing.T) {
	dm := prefetchDisk(t, 4)
	bp := NewBufferPool(dm, 4)
	entered, release := make(chan struct{}), make(chan struct{})
	dm.SetFault(func(op string, id PageID) error {
		if op == "read" && id == 2 {
			close(entered)
			<-release
		}
		return nil
	})
	const fetchers = 4
	errs := make(chan error, fetchers)
	fetch := func() {
		fr, err := bp.FetchPage(2)
		if err == nil && fr.Data()[0] != 2 {
			err = fmt.Errorf("wrong page image %d", fr.Data()[0])
		}
		if err == nil {
			err = bp.UnpinPage(2)
		}
		errs <- err
	}
	go fetch()
	<-entered // the loader is inside its read
	for i := 1; i < fetchers; i++ {
		go fetch()
	}
	// Wait until every co-fetcher has pinned the frame and gone to sleep on
	// the loader's signal.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		bp.mu.Lock()
		pins := bp.frames[2].pins
		bp.mu.Unlock()
		if pins == fetchers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d fetchers reached the frame", pins, fetchers)
		}
	}
	close(release)
	for i := 0; i < fetchers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if reads, _ := dm.Stats(); reads != 1 {
		t.Errorf("%d physical reads for one page fetched %d times at once", reads, fetchers)
	}
	if err := bp.DropAll(); err != nil {
		t.Errorf("a pin is left: %v", err)
	}
}

// TestPrefetcherSkipsToTheCursor: a scan that overtakes the readers — here
// by passing 400 pages while their reads are held up, as a batch scan
// passes a batch's worth in one burst — gets them back in front within one
// window: they take up at the cursor instead of sweeping through what the
// scan has passed. So no page behind the cursor is read beyond the run each
// reader had in flight, and the window ahead is read.
func TestPrefetcherSkipsToTheCursor(t *testing.T) {
	const numPages, window, passed = 1000, 16, 400
	dm := prefetchDisk(t, numPages)
	bp := NewBufferPool(dm, 64)
	var gate sync.RWMutex // write-locked: reads wait
	dm.SetFault(func(op string, _ PageID) error {
		if op == "read" {
			gate.RLock()
			defer gate.RUnlock()
		}
		return nil
	})
	p := bp.startPrefetch([]PageSpan{{First: 0, Last: numPages - 1}}, window)
	if p == nil {
		t.Fatal("startPrefetch returned nil for a valid window")
	}
	defer p.close()
	readers := min(prefetchReaders, window)
	parked := func(at int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			next, waiting := p.next.Load(), int(p.waiting.Load())
			if next == at && waiting == readers {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("readers at position %d, %d of %d waiting; want them parked at %d", next, waiting, readers, at)
			}
		}
	}
	parked(window) // the first window is read and every reader waits for room

	gate.Lock()
	for i := 0; i < passed; i++ {
		p.claim()
	}
	gate.Unlock()
	parked(passed + window)
	// A reader woken during the burst took one run and got as far as the
	// gate with it: a run's worth of reads in flight per reader.
	if got, max := int(p.issued.Load()), window+readers*prefetchRun+window; got > max {
		t.Errorf("readers issued %d reads, want at most %d: they swept through pages the cursor had passed", got, max)
	}
	hits := 0
	for i := passed; i < passed+window; i++ {
		if p.claim() {
			hits++
		}
		fr, err := bp.FetchPage(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(i) {
			t.Fatalf("page %d has wrong contents", i)
		}
		if err := bp.UnpinPage(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if hits != window {
		t.Errorf("%d of the %d pages after the burst were prefetched", hits, window)
	}
}

// none passes no page of a run read.
func none(int) bool { return false }

// TestRunReadQuarantinesOnlyTheCorruptPage: a page that fails its checksum
// in the middle of a run read is the only page of the run that fails. It is
// quarantined once, its neighbours are resident and intact, and a demand
// fetch of it reports the damage.
func TestRunReadQuarantinesOnlyTheCorruptPage(t *testing.T) {
	dm := prefetchDisk(t, prefetchRun)
	corruptPageByte(t, dm.Path(), 1, 2000)
	bp := NewBufferPool(dm, 2*prefetchRun)
	var notified []PageID
	bp.SetCorruptionHandler(func(id PageID) { notified = append(notified, id) })

	ids := []PageID{0, 1, 2, 3}
	ok := make([]bool, len(ids))
	if read := bp.readAhead(ids, ok, make([]byte, prefetchRun*PageSize), none); read != len(ids)-1 {
		t.Errorf("run read reports %d pages read, want %d", read, len(ids)-1)
	}
	for i, id := range ids {
		if ok[i] != (id != 1) {
			t.Errorf("page %d: ok = %v", id, ok[i])
		}
	}
	if len(notified) != 1 || notified[0] != 1 {
		t.Errorf("corruption handler calls = %v, want [1]", notified)
	}
	if reads, _ := dm.Stats(); reads != int64(len(ids)) {
		t.Errorf("%d physical page reads, want %d", reads, len(ids))
	}
	for _, id := range []PageID{0, 2, 3} {
		fr, err := bp.FetchPage(id)
		if err != nil {
			t.Fatalf("neighbour %d: %v", id, err)
		}
		if fr.Data()[0] != byte(id) {
			t.Errorf("neighbour %d has wrong contents", id)
		}
		if err := bp.UnpinPage(id); err != nil {
			t.Fatal(err)
		}
	}
	if reads, _ := dm.Stats(); reads != int64(len(ids)) {
		t.Errorf("the neighbours were read again: %d physical page reads", reads)
	}
	var ce *CorruptPageError
	if _, err := bp.FetchPage(1); !errors.As(err, &ce) || ce.Page != 1 {
		t.Errorf("demand fetch of the corrupt page: %v", err)
	}
	if got := bp.Stats().CorruptPages; got != 1 {
		t.Errorf("CorruptPages = %d, want 1", got)
	}
	if err := bp.DropAll(); err != nil {
		t.Errorf("a pin is left: %v", err)
	}
}

// TestRunReadSplitsAtResidentPages: a resident page inside a run is not
// read again, and it splits the run into one read before it and one after.
// The pool's and the disk's counters count pages; the read-latency
// histogram takes one sample per read call.
func TestRunReadSplitsAtResidentPages(t *testing.T) {
	dm := prefetchDisk(t, prefetchRun)
	bp := NewBufferPool(dm, 2*prefetchRun)
	reg := obs.NewRegistry()
	bp.SetObs(&obs.StorageMetrics{ReadSeconds: reg.Histogram("read_seconds", "read calls", obs.DefSecondsBuckets())})
	if _, err := bp.FetchPage(2); err != nil {
		t.Fatal(err)
	}
	if err := bp.UnpinPage(2); err != nil {
		t.Fatal(err)
	}
	before := bp.Stats()

	ids := []PageID{0, 1, 2, 3}
	ok := make([]bool, len(ids))
	if read := bp.readAhead(ids, ok, make([]byte, prefetchRun*PageSize), none); read != 3 {
		t.Errorf("run read reports %d pages read, want 3", read)
	}
	for i, id := range ids {
		if !ok[i] {
			t.Errorf("page %d is not resident after the run read", id)
		}
	}
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), "\nread_seconds_count 3\n") {
		t.Errorf("read calls are not 1 for the demand fetch and 2 for the run split at page 2:\n%s", expo.String())
	}
	if reads, _ := dm.Stats(); reads != 1+3 {
		t.Errorf("disk counts %d page reads, want 4", reads)
	}
	st := bp.Stats()
	if st.Misses-before.Misses != 3 || st.Prefetched-before.Prefetched != 3 || st.Hits-before.Hits != 1 {
		t.Errorf("pool counters moved %+v -> %+v, want 3 misses, 3 prefetched, 1 hit", before, st)
	}
	for _, id := range ids {
		fr, err := bp.FetchPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(id) {
			t.Errorf("page %d has wrong contents", id)
		}
		if err := bp.UnpinPage(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := bp.Stats().PrefetchHits; got != 3 {
		t.Errorf("%d prefetch hits, want the 3 pages the run read", got)
	}
}

// TestRunReadLeavesPassedPages: the pages of a run the cursor has passed by
// the time the pool lock is taken are not read; the scan read them.
func TestRunReadLeavesPassedPages(t *testing.T) {
	dm := prefetchDisk(t, prefetchRun)
	bp := NewBufferPool(dm, 2*prefetchRun)
	ids := []PageID{0, 1, 2, 3}
	ok := make([]bool, len(ids))
	if read := bp.readAhead(ids, ok, make([]byte, prefetchRun*PageSize), func(i int) bool { return i < 2 }); read != 2 {
		t.Errorf("run read reports %d pages read, want 2", read)
	}
	for i, id := range ids {
		if ok[i] != (i >= 2) || (bp.frames[id] != nil) != (i >= 2) {
			t.Errorf("page %d: ok = %v, resident = %v", id, ok[i], bp.frames[id] != nil)
		}
	}
	if reads, _ := dm.Stats(); reads != 2 {
		t.Errorf("%d physical page reads, want 2", reads)
	}
}

// TestRunReadChargesPerPage: a read of several pages is one seek followed
// by sequential reads, and the simulated latency is charged per page.
func TestRunReadChargesPerPage(t *testing.T) {
	dm := prefetchDisk(t, 16)
	buf := make([]byte, 4*PageSize)
	if err := dm.readPages(5, buf); err != nil {
		t.Fatal(err)
	}
	if seq, rnd := dm.SeqRandReads(); seq != 3 || rnd != 1 {
		t.Errorf("pages 5-8 in one read: %d sequential, %d random; want 3, 1", seq, rnd)
	}
	if err := dm.readPages(9, buf[:2*PageSize]); err != nil {
		t.Fatal(err)
	}
	if seq, rnd := dm.SeqRandReads(); seq != 5 || rnd != 1 {
		t.Errorf("then pages 9-10: %d sequential, %d random; want 5, 1", seq, rnd)
	}
	if reads, _ := dm.Stats(); reads != 6 {
		t.Errorf("%d page reads, want 6", reads)
	}
	for i := 0; i < 2; i++ {
		if buf[i*PageSize] != byte(9+i) {
			t.Errorf("page %d of the read has wrong contents", 9+i)
		}
	}

	const lat = 2 * time.Millisecond
	dm.SetReadLatency(lat)
	start := time.Now()
	if err := dm.readPages(0, buf); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 4*lat {
		t.Errorf("a 4-page read took %v, want at least 4 × %v", took, lat)
	}
	if err := dm.readPages(14, buf); err == nil {
		t.Error("a read past the end of the file succeeded")
	}
}

// TestStaleMarkIsNoHit: a mark a reader leaves for a position the cursor
// has already passed stays in its ring slot, and the position that next
// uses the slot, a window later, is not a hit because of it.
func TestStaleMarkIsNoHit(t *testing.T) {
	const window = 4
	p := &prefetcher{
		bp:     NewBufferPool(newDisk(t), 8),
		total:  4 * window,
		window: window,
		marks:  make([]atomic.Int64, window),
	}
	p.claim() // position 0
	p.claim() // position 1
	// A reader took position 1 just after the cursor passed it.
	p.marks[1%window].Store(1 + 1)
	for pos := 2; pos < 2*window; pos++ {
		if p.claim() {
			t.Errorf("position %d is a hit with no reader at it", pos)
		}
	}
	// A live mark is a hit.
	p.marks[(2*window)%window].Store(2*window + 1)
	if !p.claim() {
		t.Errorf("position %d is no hit though a reader took it", 2*window)
	}
}
