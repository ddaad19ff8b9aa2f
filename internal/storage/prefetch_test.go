package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
		if p.claim(id) {
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
func TestPrefetchReaderContainsPanickingRead(t *testing.T) {
	const numPages, window = 8, 4
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
	for deadline := time.Now().Add(5 * time.Second); faulted.Load() < window; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("readers attempted %d of %d in-window reads", faulted.Load(), window)
		}
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
		if p.claim(id) {
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
	_, stillThere := bp.frames[oldest]
	bp.mu.Unlock()
	if stillThere {
		t.Errorf("page %d, the least recently used, survived an eviction", oldest)
	}
}

// TestCoFetchersShareOneRead: fetchers that arrive while a page is being
// read wait for that read instead of issuing their own, though the signal
// they wait on exists only from the first of them on.
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
// scan has passed. So no page behind the cursor is read beyond the one read
// each reader had in flight, the window ahead is read, and the started set
// never holds more than a window of pages.
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
			p.mu.Lock()
			next, waiting, started := p.next, p.waiting, len(p.started)
			p.mu.Unlock()
			if next == at && waiting == readers {
				if started > window {
					t.Fatalf("started set holds %d pages, window is %d", started, window)
				}
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
		p.claim(PageID(i))
		p.mu.Lock()
		started := len(p.started)
		p.mu.Unlock()
		if started > window {
			t.Fatalf("at page %d the started set holds %d pages, window is %d", i, started, window)
		}
	}
	gate.Unlock()
	parked(passed + window)
	// A reader woken during the burst took one run and got as far as the
	// gate with its first page; the rest of that run the cursor had passed.
	if got, max := int(p.issued.Load()), window+readers+window; got > max {
		t.Errorf("readers issued %d reads, want at most %d: they swept through pages the cursor had passed", got, max)
	}
	hits := 0
	for i := passed; i < passed+window; i++ {
		if p.claim(PageID(i)) {
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
