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
// The window is positional: the prefetcher processes sequence index i only
// while i < consumed + window, where consumed is the progress the scan
// reports with Advance. Metering by position (not by pages processed)
// means a prefetcher that momentarily falls behind the cursor — its
// fetches then land on already-resident pages — sweeps past them cheaply
// and rebuilds its full lookahead, instead of collapsing to lockstep with
// the scan. The window simultaneously bounds the in-flight reads and
// prevents the prefetcher from evicting its own earlier pages on pools
// smaller than the page sequence. Prefetch and demand fetch coalesce
// through the pool's per-frame loading channel: a demand FetchPage that
// arrives while the prefetch read is in flight waits on the channel
// instead of issuing a second physical read.
//
// Prefetch reads pin their frame only for the duration of the read and
// unpin it immediately after, so a prefetched-but-never-pinned page is an
// ordinary eviction candidate. Close stops the readers and waits for
// in-flight reads to land; after Close returns the prefetcher holds no
// pins and no loading channel, so the pool can be dropped or the disk
// closed.
type Prefetcher struct {
	bp     *BufferPool
	spans  []PageSpan
	cum    []int64 // cumulative page counts per span
	total  int64
	window int64

	mu       sync.Mutex
	cond     *sync.Cond
	next     int64 // next sequence index to hand to a reader
	consumed int64 // pages the consumer reported via Advance
	closed   bool
	started  map[PageID]struct{} // pages a reader reached before the scan

	issued atomic.Int64 // physical reads this prefetcher triggered
	wg     sync.WaitGroup
}

// prefetchReaders caps the concurrent prefetch reads; beyond a handful the
// simulated (and real) disks serialize anyway. A prefetcher never starts
// more readers than its window or its page sequence can occupy.
const prefetchReaders = 8

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

// claimIndex hands the next sequence index to a reader, waiting while the
// window is exhausted. ok is false when the sequence is done or the
// prefetcher closed.
func (p *Prefetcher) claimIndex() (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && p.next < p.total && p.next >= p.consumed+p.window {
		p.cond.Wait()
	}
	if p.closed || p.next >= p.total {
		return 0, false
	}
	i := p.next
	p.next++
	return i, true
}

// reader pulls in-window pages into the pool. The page is marked before
// the read starts: a scan that arrives mid-read coalesces on the frame's
// loading channel, and the prefetcher still counts as having got there
// first. The mark is rolled back when the prefetch fails, so a failed
// prefetch is never reported as a hit and the consumer does a (correct)
// demand fetch of its own.
func (p *Prefetcher) reader() {
	defer p.wg.Done()
	for {
		i, ok := p.claimIndex()
		if !ok {
			return
		}
		id := p.pageAt(i)
		p.mu.Lock()
		p.started[id] = struct{}{}
		p.mu.Unlock()
		if !p.prefetchPage(id) {
			p.mu.Lock()
			delete(p.started, id)
			p.mu.Unlock()
		}
	}
}

// prefetchPage reads page id into the pool and releases it again,
// reporting whether the page is now resident and unpinned. Failures are
// swallowed here because the query path reports them: the demand fetch
// repeats a failed read and surfaces its error, and it re-raises a panic
// (a fault-injection hook, or a bug in a lower layer) on the statement's
// own goroutine, inside the statement's panic boundary — a reader
// goroutine that let it escape would take the whole process down instead.
// fetch has already deregistered the frame and woken co-fetchers by the
// time the panic arrives here. A failed unpin means the frame is gone or
// the pin count is off — an invariant breach, not an I/O error — and is
// treated the same way.
func (p *Prefetcher) prefetchPage(id PageID) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	_, missed, err := p.bp.fetch(id, true)
	if err != nil {
		return false
	}
	if missed {
		p.issued.Add(1)
	}
	return p.bp.UnpinPage(id) == nil
}

// Advance reports that the consumer finished one page, sliding the
// readahead window forward. Safe on a nil prefetcher.
func (p *Prefetcher) Advance() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.consumed++
	occ := p.next - p.consumed
	p.mu.Unlock()
	p.cond.Broadcast()
	// Sample window occupancy — pages claimed ahead of consumption — once
	// per consumed page. Nil histogram (observability off) is inert.
	if occ >= 0 {
		p.bp.prefetchOcc.Observe(float64(occ))
	}
}

// Claim reports whether the prefetcher reached id before the consumer
// asked for it — the page is resident or its read is in flight, so the
// consumer either hits directly or coalesces on the loading channel
// instead of paying a synchronous read (a prefetch hit from the scan's
// point of view) — and forgets the page. Safe on a nil prefetcher.
func (p *Prefetcher) Claim(id PageID) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	_, ok := p.started[id]
	if ok {
		delete(p.started, id)
	}
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
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
