package storage

import (
	"sort"
	"sync"
	"sync/atomic"
)

// prefetcher streams a PageStream's page sequence into the buffer pool
// ahead of its cursor. The SMA machinery makes this unusually effective:
// the grading pass computes the exact surviving page set before the first
// page is touched, so readahead never wastes I/O on pages the query will
// skip.
//
// The window is positional: a reader takes sequence index i only while
// i < consumed + window, where consumed counts the pages the scan has
// claimed. Readers take a run of up to prefetchRun in-window positions at a
// time under one lock, mark them there, and read the run's missing pages
// into the pool with one read per stretch of consecutive pages
// (BufferPool.readAhead). They never take a position behind the cursor: a
// batch scan reads a batch's worth of pages in one burst, overtaking the
// readers, and a reader that then swept through the pages the scan already
// passed would still be behind at the next burst. Skipping to the cursor
// puts the readers back in front within one window. The window
// simultaneously bounds the in-flight reads and prevents the prefetcher
// from evicting its own earlier pages on pools smaller than the page
// sequence. Prefetch and demand fetch coalesce in the pool: a demand
// FetchPage that arrives while the prefetch read is in flight waits for it
// instead of issuing a second physical read.
//
// The consumer's claim takes no lock: it takes its hit from the ring of
// marks with a compare-and-swap and advances consumed atomically, and it
// takes mu only while a reader is parked, to wake it.
//
// Prefetch reads pin their frames only for the duration of the read and
// unpin them immediately after, so a prefetched-but-never-pinned page is an
// ordinary eviction candidate. close stops the readers and waits for
// in-flight reads to land; after close returns the prefetcher holds no
// pins and no read is in flight, so the pool can be dropped or the disk
// closed.
type prefetcher struct {
	bp     *BufferPool
	spans  []PageSpan
	cum    []int64 // cumulative page counts per span
	total  int64
	window int64

	mu   sync.Mutex
	cond *sync.Cond
	// next is the next sequence index to hand to a reader, advanced under
	// mu; consumed counts the pages the consumer has claimed (the cursor's
	// position); closed is set under mu. All three are read without mu.
	next     atomic.Int64
	consumed atomic.Int64
	closed   atomic.Bool
	waiting  atomic.Int32 // readers parked on cond
	// marks is a ring of window slots: slot i%window holds i+1 while a
	// reader has position i. A mark left behind by a position the cursor
	// passed never matches a later position of the same slot.
	marks []atomic.Int64

	issued atomic.Int64 // physical reads this prefetcher triggered
	wg     sync.WaitGroup
}

// prefetchReaders caps the concurrent prefetch reads: reads from the OS
// cache cost CPU, and on two cores eight readers mostly contended with each
// other. A prefetcher never starts more readers than its window or its page
// sequence can occupy.
const prefetchReaders = 2

// prefetchRun is how many consecutive positions a reader takes, and reads,
// at a time: long enough that one read serves several pages, short enough
// that the readers share a window between them.
const prefetchRun = 8

// startPrefetch launches background readers over the page sequence the
// spans describe (in order), keeping at most window pages ahead of the
// pages the caller claims. The window is clamped to half the pool capacity
// so prefetch can never starve demand fetches of frames. A clamped-to-zero
// window, a sequence of at most one page — whose demand read is that read
// already — or one whose pages are all in the pool returns nil: no
// prefetcher.
func (bp *BufferPool) startPrefetch(spans []PageSpan, window int) *prefetcher {
	window = min(window, bp.cap/2)
	var total int64
	cum := make([]int64, len(spans)) // an empty span adds nothing: pageAt passes it
	for i, s := range spans {
		total += max(0, int64(s.Last-s.First)+1)
		cum[i] = total
	}
	if window <= 0 || total < 2 || bp.allResident(spans) {
		return nil
	}
	p := &prefetcher{
		bp:     bp,
		spans:  spans,
		cum:    cum,
		total:  total,
		window: int64(window),
		marks:  make([]atomic.Int64, window),
	}
	p.cond = sync.NewCond(&p.mu)
	readers := int(min(prefetchReaders, p.window, total))
	p.wg.Add(readers)
	for i := 0; i < readers; i++ {
		go p.reader()
	}
	return p
}

// allResident reports whether every page of spans is in the pool or being
// loaded into it. Such a sequence has nothing to read ahead: readers
// started over it would only take the pool's lock and the processor from
// the scan. The walk stops at the first page missing, so a cold sequence
// costs one lookup.
func (bp *BufferPool) allResident(spans []PageSpan) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, s := range spans {
		for id := s.First; id <= s.Last; id++ {
			if bp.frameLocked(id) == nil {
				return false
			}
		}
	}
	return true
}

// pageAt maps a sequence index to its page id via the cumulative counts.
func (p *prefetcher) pageAt(i int64) PageID {
	s := sort.Search(len(p.cum), func(k int) bool { return p.cum[k] > i })
	return p.spans[s].Last - PageID(p.cum[s]-1-i)
}

// runLocked returns the positions [lo, hi) a reader may take now: from the
// cursor or the readers' own front, whichever is further, to the end of
// the window, a run at most.
func (p *prefetcher) runLocked() (lo, hi int64) {
	consumed := p.consumed.Load()
	lo = max(p.next.Load(), consumed)
	return lo, min(lo+prefetchRun, consumed+p.window, p.total)
}

// claimRun hands a reader its next run of pages — positions lo onwards,
// appended to run — marked, waiting while the window is exhausted. It
// returns no pages when the sequence is done or the prefetcher closed.
func (p *prefetcher) claimRun(run []PageID) (int64, []PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed.Load() || max(p.next.Load(), p.consumed.Load()) >= p.total {
			return 0, nil
		}
		lo, hi := p.runLocked()
		if lo < hi {
			for i := lo; i < hi; i++ {
				p.marks[i%p.window].Store(i + 1)
				run = append(run, p.pageAt(i))
			}
			p.next.Store(hi)
			return lo, run
		}
		// Announce the wait, then look again: a claim that opened the
		// window after the first look is seen by the second, or sees the
		// announcement and takes mu to wake us, which waits for cond.Wait.
		p.waiting.Add(1)
		if lo, hi = p.runLocked(); lo >= hi && !p.closed.Load() {
			p.cond.Wait()
		}
		p.waiting.Add(-1)
	}
}

// reader pulls in-window runs into the pool. A position is marked when the
// reader takes it, before its read starts: a scan that arrives meanwhile
// either coalesces with the read in flight or finds the page a moment
// before the reader does, and the prefetcher counts as having got there
// first.
func (p *prefetcher) reader() {
	defer p.wg.Done()
	var ids [prefetchRun]PageID
	var buf [prefetchRun * PageSize]byte // on the stack: a run's pages land here
	for {
		lo, run := p.claimRun(ids[:0])
		if run == nil {
			return
		}
		p.fill(lo, run, buf[:])
	}
}

// fill reads the run of pages at positions lo onwards into the pool, unless
// the prefetcher closed, and takes back the marks of those that did not
// make it: a failed prefetch is no hit, and the consumer's demand fetch
// repeats the read and surfaces its error, or re-raises its panic (a fault
// hook, a bug below) inside the statement's panic boundary; a reader that
// let the panic escape would take the process down. The load has freed the
// run's frames by then. A position the cursor has passed is left alone: the
// scan read it, and a reader that was off the processor for a while could
// find it evicted again. The pool asks under its lock, so the answer holds
// until the page's frame is taken.
func (p *prefetcher) fill(lo int64, run []PageID, buf []byte) {
	var ok [prefetchRun]bool
	defer func() {
		recover()
		for i := range run {
			if pos := lo + int64(i); !ok[i] {
				p.marks[pos%p.window].CompareAndSwap(pos+1, 0) // unless the slot moved on
			}
		}
	}()
	if !p.closed.Load() {
		passed := func(i int) bool { return lo+int64(i) < p.consumed.Load() }
		p.issued.Add(int64(p.bp.readAhead(run, ok[:len(run)], buf, passed)))
	}
}

// claim reports whether the prefetcher reached the page at the cursor
// before the consumer — the page is resident or its read is in flight or
// about to start, so the consumer either hits directly or coalesces with
// the read instead of paying a synchronous one (a prefetch hit from the
// scan's point of view) — and slides the window past it. The consumer
// claims each page of the sequence, in order, before it reads it. The hit
// is taken before consumed moves: until then no reader may take the
// position that shares the page's slot. Readers parked on a full window
// are woken once a run's worth of it has opened, not at every page.
func (p *prefetcher) claim() bool {
	pos := p.consumed.Load()
	hit := p.marks[pos%p.window].CompareAndSwap(pos+1, 0)
	consumed := p.consumed.Add(1)
	// Sample window occupancy — pages the readers took ahead of the cursor —
	// once per consumed page. Nil histogram (observability off) is inert.
	if occ := p.next.Load() - consumed; occ >= 0 {
		p.bp.prefetchOcc.Observe(float64(occ))
	}
	if p.waiting.Load() > 0 {
		p.mu.Lock()
		lo, hi := p.runLocked()
		p.mu.Unlock()
		if hi-lo >= min(prefetchRun, p.window) || hi == p.total {
			p.cond.Broadcast()
		}
	}
	return hit
}

// close stops the readers and blocks until every in-flight read has landed
// and released its pin. It is idempotent.
func (p *prefetcher) close() {
	p.mu.Lock()
	p.closed.Store(true)
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
