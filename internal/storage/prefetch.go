package storage

import (
	"sort"
	"sync"
	"sync/atomic"
)

// PageSpan is an inclusive page interval [First, Last] of a prefetch plan.
// Scans describe their page set as spans — one per surviving bucket, or a
// single span for a contiguous range — so starting a prefetcher costs
// O(buckets), never O(pages).
type PageSpan struct{ First, Last PageID }

// Prefetcher streams a known page sequence into the buffer pool ahead of a
// scan cursor. The SMA machinery makes this unusually effective: the
// grading pass computes the exact surviving page set before the first page
// is touched, so readahead never wastes I/O on pages the query will skip.
//
// The window is positional: a reader takes sequence index i only while
// i < consumed + window, where consumed is the progress the scan reports
// with Advance. Readers take a short run of in-window positions at a time
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
// ordinary eviction candidate. Close stops the readers and waits for
// in-flight reads to land; after Close returns the prefetcher holds no
// pins and no read is in flight, so the pool can be dropped or the disk
// closed.
type Prefetcher struct {
	bp     *BufferPool
	spans  []PageSpan
	cum    []int64 // cumulative page counts per span
	total  int64
	window int64

	mu   sync.Mutex
	cond *sync.Cond
	next int64 // next sequence index to hand to a reader
	// consumed counts the pages the consumer reported via Advance: the
	// cursor's position. It and closed are written under mu; readers also
	// look at them without, between the pages of a run.
	consumed atomic.Int64
	closed   atomic.Bool
	// claimed is set between the consumer's Claim of the page at the
	// cursor and its Advance past it: the consumer is reading that page
	// itself, and a reader that took it now would mark a page nobody will
	// claim again.
	claimed bool
	waiting int                 // readers blocked on cond
	started map[PageID]struct{} // pages a reader took before the scan reached them

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

// StartPrefetch launches background readers over the page sequence the
// spans describe (in order), keeping at most window pages ahead of the
// consumption the caller reports via Advance. The window is clamped to
// half the pool capacity so prefetch can never starve demand fetches of
// frames; a clamped-to-zero window (or an empty sequence) returns nil,
// which every Prefetcher method accepts.
func (bp *BufferPool) StartPrefetch(spans []PageSpan, window int) *Prefetcher {
	if max := bp.cap / 2; window > max {
		window = max
	}
	var total int64
	kept := make([]PageSpan, 0, len(spans))
	cum := make([]int64, 0, len(spans))
	for _, s := range spans {
		if s.Last < s.First {
			continue
		}
		total += int64(s.Last-s.First) + 1
		kept = append(kept, s)
		cum = append(cum, total)
	}
	if window <= 0 || total == 0 {
		return nil
	}
	p := &Prefetcher{
		bp:      bp,
		spans:   kept,
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
func (p *Prefetcher) pageAt(i int64) PageID {
	s := sort.Search(len(p.cum), func(k int) bool { return p.cum[k] > i })
	prev := int64(0)
	if s > 0 {
		prev = p.cum[s-1]
	}
	return p.spans[s].First + PageID(i-prev)
}

// runLocked returns the positions [lo, hi) a reader may take now: from the
// cursor or the readers' own front, whichever is further, to the end of
// the window, a run at most.
func (p *Prefetcher) runLocked() (lo, hi int64) {
	consumed := p.consumed.Load()
	lo = max(p.next, consumed)
	if lo == consumed && p.claimed {
		lo++
	}
	return lo, min(lo+prefetchRun, consumed+p.window, p.total)
}

// claimRun hands a reader its next run of pages — positions lo onwards,
// appended to run — marked started, waiting while the window is exhausted.
// It returns no pages when the sequence is done or the prefetcher closed.
func (p *Prefetcher) claimRun(run []PageID) (int64, []PageID) {
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
// off the processor for a while got to it, it could be evicted again. Close
// ends a run between two pages.
func (p *Prefetcher) reader() {
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
func (p *Prefetcher) unmark(ids []PageID) {
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
func (p *Prefetcher) prefetchPage(id PageID) (ok bool) {
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

// Advance reports that the consumer finished one page, sliding the
// readahead window forward. Readers blocked on a full window are woken
// once a run's worth of it has opened, not at every page. Safe on a nil
// prefetcher.
func (p *Prefetcher) Advance() {
	if p == nil {
		return
	}
	p.mu.Lock()
	consumed := p.consumed.Add(1)
	p.claimed = false
	occ := p.next - consumed
	lo, hi := p.runLocked()
	wake := p.waiting > 0 && (hi-lo >= min(prefetchRun, p.window) || hi == p.total)
	p.mu.Unlock()
	if wake {
		p.cond.Broadcast()
	}
	// Sample window occupancy — pages claimed ahead of consumption — once
	// per consumed page. Nil histogram (observability off) is inert.
	if occ >= 0 {
		p.bp.prefetchOcc.Observe(float64(occ))
	}
}

// Claim reports whether the prefetcher reached id before the consumer
// asked for it — the page is resident or its read is in flight or about to
// start, so the consumer either hits directly or coalesces with the read
// instead of paying a synchronous one (a prefetch hit from the scan's
// point of view) — and forgets the page. The consumer claims each page of
// the sequence, in order, before it reads it, and calls Advance after.
// Safe on a nil prefetcher.
func (p *Prefetcher) Claim(id PageID) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	_, ok := p.started[id]
	if ok {
		delete(p.started, id)
	}
	p.claimed = true
	p.mu.Unlock()
	return ok
}

// Issued returns the number of physical reads the prefetcher triggered so
// far. Safe on a nil prefetcher.
func (p *Prefetcher) Issued() int {
	if p == nil {
		return 0
	}
	return int(p.issued.Load())
}

// Close stops the readers and blocks until every in-flight read has landed
// and released its pin. It is idempotent and safe on a nil prefetcher.
func (p *Prefetcher) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed.Store(true)
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
