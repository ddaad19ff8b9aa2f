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
// claimed. Readers take a short run of in-window positions at a time
// under one lock and mark them started there, and they never take a
// position behind the cursor: a batch scan reads a batch's worth of pages
// in one burst, overtaking the readers, and a reader that then swept
// through the pages the scan already passed would still be behind at the
// next burst. Skipping to the cursor puts the readers back in front within
// one window, and keeps the started set to at most window pages. The
// window simultaneously bounds the in-flight reads and prevents the
// prefetcher from evicting its own earlier pages on pools smaller than the
// page sequence. Prefetch and demand fetch coalesce in the pool: a demand
// FetchPage that arrives while the prefetch read is in flight waits for it
// instead of issuing a second physical read.
//
// Prefetch reads pin their frame only for the duration of the read and
// unpin it immediately after, so a prefetched-but-never-pinned page is an
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
	next int64 // next sequence index to hand to a reader
	// consumed counts the pages the consumer has claimed: the cursor's
	// position, past the page it is reading. It and closed are written
	// under mu; readers also look at them without, between the pages of a
	// run.
	consumed atomic.Int64
	closed   atomic.Bool
	waiting  int                 // readers blocked on cond
	started  map[PageID]struct{} // pages a reader took before the scan reached them

	issued atomic.Int64 // physical reads this prefetcher triggered
	wg     sync.WaitGroup
}

// prefetchReaders caps the concurrent prefetch reads; beyond a handful the
// simulated (and real) disks serialize anyway. A prefetcher never starts
// more readers than its window or its page sequence can occupy.
const prefetchReaders = 8

// prefetchRun is how many consecutive positions a reader takes at a time:
// long enough that readers and consumer meet at the lock once per few
// pages rather than once per page, short enough that the readers share a
// window between them.
const prefetchRun = 4

// startPrefetch launches background readers over the page sequence the
// spans describe (in order), keeping at most window pages ahead of the
// pages the caller claims. The window is clamped to half the pool capacity
// so prefetch can never starve demand fetches of frames. A clamped-to-zero
// window or a sequence of at most one page — whose demand read is that
// read already — returns nil: no prefetcher.
func (bp *BufferPool) startPrefetch(spans []PageSpan, window int) *prefetcher {
	window = min(window, bp.cap/2)
	var total int64
	cum := make([]int64, len(spans)) // an empty span adds nothing: pageAt passes it
	for i, s := range spans {
		total += max(0, int64(s.Last-s.First)+1)
		cum[i] = total
	}
	if window <= 0 || total < 2 {
		return nil
	}
	p := &prefetcher{
		bp:      bp,
		spans:   spans,
		cum:     cum,
		total:   total,
		window:  int64(window),
		started: make(map[PageID]struct{}, window),
	}
	p.cond = sync.NewCond(&p.mu)
	readers := int(min(prefetchReaders, p.window, total))
	p.wg.Add(readers)
	for i := 0; i < readers; i++ {
		go p.reader()
	}
	return p
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
	lo = max(p.next, consumed)
	return lo, min(lo+prefetchRun, consumed+p.window, p.total)
}

// claimRun hands a reader its next run of pages — positions lo onwards,
// appended to run — marked started, waiting while the window is exhausted.
// It returns no pages when the sequence is done or the prefetcher closed.
func (p *prefetcher) claimRun(run []PageID) (int64, []PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed.Load() || max(p.next, p.consumed.Load()) >= p.total {
			return 0, nil
		}
		lo, hi := p.runLocked()
		if lo < hi {
			for i := lo; i < hi; i++ {
				id := p.pageAt(i)
				p.started[id] = struct{}{}
				run = append(run, id)
			}
			p.next = hi
			return lo, run
		}
		p.waiting++
		p.cond.Wait()
		p.waiting--
	}
}

// reader pulls in-window pages into the pool. A page is marked when the
// reader takes it, before its read starts: a scan that arrives meanwhile
// either coalesces with the read in flight or finds the page a moment
// before the reader does, and the prefetcher counts as having got there
// first. The mark is rolled back when the prefetch fails, so a failed
// prefetch is never reported as a hit and the consumer does a (correct)
// demand fetch of its own. A page the cursor has passed since the run was
// taken is left alone: the scan read it, and by the time a reader that was
// off the processor for a while got to it, it could be evicted again. close
// ends a run between two pages.
func (p *prefetcher) reader() {
	defer p.wg.Done()
	var buf [prefetchRun]PageID
	for {
		lo, run := p.claimRun(buf[:0])
		if run == nil {
			return
		}
		for i, id := range run {
			switch {
			case p.closed.Load():
				p.unmark(run[i:])
				return
			case lo+int64(i) < p.consumed.Load():
			case !p.prefetchPage(id):
				p.unmark(run[i : i+1])
			}
		}
	}
}

// unmark takes back the started marks of pages that were not prefetched.
func (p *prefetcher) unmark(ids []PageID) {
	p.mu.Lock()
	for _, id := range ids {
		delete(p.started, id)
	}
	p.mu.Unlock()
}

// prefetchPage makes page id resident, reporting whether it is — or will
// be: somebody else may be reading it right now — without holding it.
// Failures are swallowed here because the query path reports them: the
// demand fetch repeats a failed read and surfaces its error, and it
// re-raises a panic (a fault-injection hook, or a bug in a lower layer) on
// the statement's own goroutine, inside the statement's panic boundary — a
// reader goroutine that let it escape would take the whole process down
// instead. fetch has already deregistered the frame and woken co-fetchers
// by the time the panic arrives here.
func (p *prefetcher) prefetchPage(id PageID) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	_, missed, err := p.bp.fetch(id, true)
	if missed {
		p.issued.Add(1)
	}
	return err == nil
}

// claim reports whether the prefetcher reached id, the page at the cursor,
// before the consumer — the page is resident or its read is in flight or
// about to start, so the consumer either hits directly or coalesces with
// the read instead of paying a synchronous one (a prefetch hit from the
// scan's point of view) — forgets the page, and slides the window past it.
// The consumer claims each page of the sequence, in order, before it reads
// it. Readers blocked on a full window are woken once a run's worth of it
// has opened, not at every page.
func (p *prefetcher) claim(id PageID) bool {
	p.mu.Lock()
	_, hit := p.started[id]
	delete(p.started, id)
	consumed := p.consumed.Add(1)
	occ := p.next - consumed
	lo, hi := p.runLocked()
	wake := p.waiting > 0 && (hi-lo >= min(prefetchRun, p.window) || hi == p.total)
	p.mu.Unlock()
	if wake {
		p.cond.Broadcast()
	}
	// Sample window occupancy — pages the readers took ahead of the cursor —
	// once per consumed page. Nil histogram (observability off) is inert.
	if occ >= 0 {
		p.bp.prefetchOcc.Observe(float64(occ))
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
