package storage

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sma/internal/obs"
)

// Frame is a buffer-pool slot holding one page image.
type Frame struct {
	id    PageID
	data  [PageSize]byte
	dirty bool
	pins  int

	// The LRU list is threaded through the frames themselves, so moving a
	// frame on or off it allocates nothing. inLRU is set while the frame is
	// unpinned and resident.
	prev, next *Frame
	inLRU      bool

	// loading is set while the page image is being read from disk (outside
	// the pool lock). A co-fetcher of the same page does not issue a second
	// read: it waits on the pool's loadDone until the loader clears loading,
	// so a wait allocates nothing. loadErr carries the read error, set
	// before loading is cleared.
	loading bool
	loadErr error

	// prefetched marks a frame whose read was issued by a prefetcher and
	// that no demand fetch has claimed yet; the first demand hit counts as
	// a prefetch hit and clears the mark.
	prefetched bool

	// epoch is the pool's statement epoch at the frame's last dirty
	// unpin. Under a statement barrier, a dirty frame whose epoch matches
	// the current epoch was (or may have been) dirtied by the in-flight
	// statement and must not reach disk; older dirt is committed and may
	// be written back (after its full-page image is logged).
	epoch uint64
}

// ID returns the page id held by the frame.
func (fr *Frame) ID() PageID { return fr.id }

// Data returns the page bytes. The slice is valid while the frame is pinned.
func (fr *Frame) Data() []byte { return fr.data[:] }

// MarkDirty records that the page image was modified and must be written
// back on eviction or flush.
func (fr *Frame) MarkDirty() { fr.dirty = true }

// PoolStats aggregates buffer pool activity.
type PoolStats struct {
	Hits         int64 // requests satisfied without disk I/O
	Misses       int64 // requests that required a physical read
	Evictions    int64 // frames written back / recycled
	Prefetched   int64 // physical reads issued by prefetchers
	PrefetchHits int64 // demand fetches that landed on a prefetched frame
	Overflows    int64 // frames allocated past capacity under a statement barrier
	CorruptPages int64 // pages quarantined after failing checksum verification
}

// Add folds another snapshot into s; engines use it to merge the per-table
// pools into one database-wide view.
func (s *PoolStats) Add(o PoolStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Prefetched += o.Prefetched
	s.PrefetchHits += o.PrefetchHits
	s.Overflows += o.Overflows
	s.CorruptPages += o.CorruptPages
}

// WriteBackHook intercepts in-place rewrites of dirty pages. The engine
// implements it over the WAL: PageImage logs a full image of the page,
// Barrier forces logged images to stable storage. Together they make a
// torn in-place write recoverable — the pre-write image is always on
// disk before the write that could tear it begins.
type WriteBackHook interface {
	PageImage(id PageID, data []byte) error
	Barrier() error
}

// BufferPool caches pages of a single DiskManager with LRU replacement.
// Pages are pinned while in use; unpinned frames are eviction candidates in
// least-recently-used order. Page ids are dense per file, so the page table
// is a slice indexed by page id. The bookkeeping allocates nothing per
// page: the LRU list is threaded through the frames, a miss at capacity
// recycles its victim's frame, and a fetcher that waits for another's read
// of its page waits on the pool's condition variable.
//
// The pool is safe for concurrent use: parallel partition workers pin
// disjoint (and occasionally shared) pages simultaneously. Physical reads
// happen outside the pool lock so concurrent misses overlap their I/O;
// activity counters are atomic so stat bumps and snapshots never contend
// on the pool mutex. A demand miss and a prefetch run (readAhead) read
// through one load. A page stream pins and releases pages a batch at a
// time (pinAhead, release): one lock round per batch of resident pages,
// not two per page, so scans running side by side do not take turns on mu.
type BufferPool struct {
	mu   sync.Mutex
	disk *DiskManager
	cap  int
	// frames is the page table: frames[id] is page id's frame, nil when
	// the page is not resident. resident counts the non-nil entries.
	frames   []*Frame
	resident int
	// The unpinned resident frames, most recently unpinned first; linked
	// through Frame.prev/next.
	lruFront, lruBack *Frame
	// loadDone is broadcast, on mu, when loads end while loadWaiters
	// co-fetchers wait for a frame's loading to clear.
	loadDone    sync.Cond
	loadWaiters int

	// hook, when non-nil, runs before every dirty page write-back.
	hook WriteBackHook
	// barrier > 0 marks a statement in flight: eviction must not write
	// back frames dirtied by the current statement, so uncommitted page
	// images never reach disk (the no-steal policy that lets rollback
	// stay purely in memory). Frames whose dirt predates the barrier hold
	// only committed data and stay evictable.
	barrier int
	// epoch increments at every BeginBarrier; together with Frame.epoch
	// it distinguishes current-statement dirt from committed dirt.
	epoch uint64

	// verify controls checksum verification of physical reads. It is on
	// by default; recovery turns it off while replaying the WAL, because
	// a torn page is expected there — the full-page image that heals it
	// sits later in the log, and intermediate record-level redo may read
	// the page first.
	verify atomic.Bool
	// quarantined holds pages that failed verification. Every later
	// fetch of a quarantined page fails fast with the recorded error —
	// re-reading cannot help, and the rest of the pool keeps working.
	quarantined map[PageID]*CorruptPageError
	// onCorrupt, when non-nil, is called (without bp.mu held) each time
	// a page is newly quarantined; the engine uses it to flip the
	// database into degraded read-only mode.
	onCorrupt func(PageID)

	hits         atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	prefetched   atomic.Int64
	prefetchHits atomic.Int64
	overflows    atomic.Int64
	corrupt      atomic.Int64

	// Observability hooks, set once via SetObs before the pool sees
	// concurrent traffic. Nil histograms are inert; the disabled path
	// costs a pointer test and a clock read per physical read call.
	readLatency *obs.Histogram // physical read latency per read call, demand + prefetch
	prefetchOcc *obs.Histogram // prefetch window occupancy per consumed page
}

// SetObs wires the pool's storage metric families. Call it right after
// NewBufferPool, before any fetch: the fields are read without
// synchronization on the hot path.
func (bp *BufferPool) SetObs(m *obs.StorageMetrics) {
	if m == nil {
		return
	}
	bp.readLatency = m.ReadSeconds
	bp.prefetchOcc = m.PrefetchOccupancy
}

// NewBufferPool creates a pool of the given capacity (in pages) over disk.
func NewBufferPool(disk *DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		disk:        disk,
		cap:         capacity,
		quarantined: make(map[PageID]*CorruptPageError),
	}
	bp.loadDone.L = &bp.mu
	bp.verify.Store(true)
	return bp
}

// SetVerifyReads toggles checksum verification of physical reads.
// Recovery disables it while torn pages may legitimately be read before
// their healing full-page image is replayed.
func (bp *BufferPool) SetVerifyReads(on bool) { bp.verify.Store(on) }

// SetCorruptionHandler installs a callback invoked (outside the pool
// lock) whenever a page is newly quarantined. Call it before the pool
// sees concurrent traffic.
func (bp *BufferPool) SetCorruptionHandler(fn func(PageID)) {
	bp.mu.Lock()
	bp.onCorrupt = fn
	bp.mu.Unlock()
}

// SetWriteBackHook installs the dirty write-back interceptor. Call it
// before the pool sees concurrent traffic.
func (bp *BufferPool) SetWriteBackHook(h WriteBackHook) {
	bp.mu.Lock()
	bp.hook = h
	bp.mu.Unlock()
}

// BeginBarrier enters no-steal mode: until the matching EndBarrier,
// eviction skips frames dirtied under this barrier, so pages dirtied by
// the current statement cannot reach disk before the statement commits.
// Every mutation pins its frame and unpins it afterwards, which is where
// the frame picks up the new epoch — so a frame dirtied after this call
// always carries it. Do not FlushAll or DropAll while a barrier is up.
func (bp *BufferPool) BeginBarrier() {
	bp.mu.Lock()
	bp.barrier++
	bp.epoch++
	bp.mu.Unlock()
}

// EndBarrier leaves no-steal mode. If the statement's working set
// overflowed the pool, the excess frames are evicted here — their dirt
// is now committed (or undone), so the normal image-then-write path
// applies.
func (bp *BufferPool) EndBarrier() {
	bp.mu.Lock()
	if bp.barrier > 0 {
		bp.barrier--
	}
	if bp.barrier == 0 {
		bp.trimLocked()
	}
	bp.mu.Unlock()
}

// trimLocked evicts LRU unpinned frames until the pool is back at
// capacity, two-phase like flushLocked: all page images first, one
// barrier, then the writes. Best effort — on any error the remaining
// frames stay resident (still dirty), to be retried by later evictions,
// FlushAll, or the next trim.
func (bp *BufferPool) trimLocked() {
	excess := bp.resident - bp.cap
	if excess <= 0 {
		return
	}
	var victims []*Frame
	for fr := bp.lruBack; fr != nil && len(victims) < excess; fr = fr.prev {
		victims = append(victims, fr)
	}
	if bp.hook != nil {
		logged := false
		for _, fr := range victims {
			if fr.dirty {
				if bp.hook.PageImage(fr.id, fr.data[:]) != nil {
					return
				}
				logged = true
			}
		}
		if logged && bp.hook.Barrier() != nil {
			return
		}
	}
	for _, fr := range victims {
		if fr.dirty {
			if bp.disk.WritePage(fr.id, fr.data[:]) != nil {
				return
			}
			fr.dirty = false
		}
		bp.lruRemove(fr)
		bp.dropLocked(fr)
		bp.evictions.Add(1)
	}
}

// Discard drops page id from the pool without writing it back, losing
// any dirty content. Rollback and recovery use it to forget pages that
// are being truncated away. Discarding a pinned page is an error;
// discarding a non-resident page is a no-op.
func (bp *BufferPool) Discard(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr := bp.frameLocked(id)
	if fr == nil {
		return nil
	}
	if fr.pins > 0 {
		return fmt.Errorf("storage: discard of pinned page %d", id)
	}
	bp.lruRemove(fr)
	bp.dropLocked(fr)
	return nil
}

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.cap }

// Disk returns the underlying disk manager.
func (bp *BufferPool) Disk() *DiskManager { return bp.disk }

// FetchPage pins page id, reading it from disk on a miss.
// The caller must UnpinPage it when done.
func (bp *BufferPool) FetchPage(id PageID) (*Frame, error) {
	bp.mu.Lock()
	return bp.fetchLocked(id)
}

// fetchLocked is FetchPage entered with bp.mu held; it releases the lock.
func (bp *BufferPool) fetchLocked(id PageID) (*Frame, error) {
	if ce, ok := bp.quarantined[id]; ok {
		bp.mu.Unlock()
		return nil, ce
	}
	if fr := bp.frameLocked(id); fr != nil {
		bp.hits.Add(1)
		if fr.prefetched {
			fr.prefetched = false
			bp.prefetchHits.Add(1)
		}
		bp.pinLocked(fr)
		// While another goroutine reads this page, wait for it. On failure
		// the loader has deregistered the frame and zeroed its pins, so
		// there is nothing to unpin here.
		for fr.loading {
			bp.loadWaiters++
			bp.loadDone.Wait()
			bp.loadWaiters--
		}
		err := fr.loadErr
		bp.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return fr, nil
	}
	fr, err := bp.missLocked(id, false)
	bp.mu.Unlock()
	if err != nil {
		return nil, err
	}
	run := [1]*Frame{fr}
	if err := bp.load(run[:], nil, false); err != nil {
		return nil, err
	}
	return fr, nil
}

// readAhead makes the pages of ids — ascending, at most prefetchRun — resident
// without pinning them: it takes a frame for every missing page, unless
// passed(i) under the lock, in one lock round and loads them through buf.
// ok[i] reports whether page ids[i] is resident, or being read, afterwards;
// read counts the pages it read, whose first demand hit is a prefetch hit.
func (bp *BufferPool) readAhead(ids []PageID, ok []bool, buf []byte, passed func(i int) bool) (read int) {
	var taken [prefetchRun]*Frame
	var at [prefetchRun]int // frames[k] holds page ids[at[k]]
	frames := taken[:0]
	bp.mu.Lock()
	for i, id := range ids {
		ok[i] = false
		if _, bad := bp.quarantined[id]; bad || passed(i) {
			continue
		}
		if bp.frameLocked(id) != nil {
			bp.hits.Add(1)
			ok[i] = true
		} else if fr, err := bp.missLocked(id, true); err == nil {
			at[len(frames)] = i
			frames = append(frames, fr)
		}
	}
	bp.mu.Unlock()
	if len(frames) == 0 {
		return 0
	}
	bp.load(frames, buf, true) // the demand fetch repeats a failed read and reports it
	for k, fr := range frames {
		if fr != nil {
			ok[at[k]] = true
			read++
		}
	}
	return read
}

// missLocked counts a miss of page id and takes it a frame: registered, so
// co-fetchers wait for its load; pinned, so it stays off the eviction list.
func (bp *BufferPool) missLocked(id PageID, prefetch bool) (*Frame, error) {
	bp.misses.Add(1)
	if id < 0 || int(id) >= len(bp.frames) && int64(id) >= bp.disk.NumPages() {
		return nil, fmt.Errorf("storage: fetch of page %d past the end of %s", id, bp.disk.Path())
	}
	fr, err := bp.victimLocked(id)
	if err != nil {
		return nil, err
	}
	fr.loading = true
	fr.prefetched = prefetch
	if prefetch {
		bp.prefetched.Add(1)
	}
	return fr, nil
}

// load reads the pages of frames — taken by missLocked, in ascending page
// order — outside the pool lock, one read per stretch of consecutive pages;
// a stretch of several is read into buf, then copied to its frames. Each
// checksum is verified before the lock is retaken: it is most of the work
// per page besides the read, and every other fetch would wait for it. One
// lock round ends all the loads, and a prefetch load unpins its pages. It
// returns the first failure; a failed page does not fail its neighbours.
func (bp *BufferPool) load(frames []*Frame, buf []byte, prefetch bool) error {
	// If a read panics (a fault hook, or a bug below), deregister the frames
	// and wake co-fetchers before the panic propagates to a statement's panic
	// boundary: no goroutine may be left waiting on loaded forever.
	completed := false
	defer func() {
		if !completed {
			bp.mu.Lock()
			for _, fr := range frames {
				fr.loadErr = fmt.Errorf("storage: read of page %d aborted by panic", fr.id)
			}
			bp.endLoadsLocked(frames, false)
		}
	}()
	verify := bp.verify.Load()
	for i, j := 0, 1; i < len(frames); i = j {
		for j = i + 1; j < len(frames) && frames[j].id == frames[j-1].id+1; j++ {
		}
		stretch, dst := frames[i:j], frames[i].data[:]
		if len(stretch) > 1 {
			dst = buf[:len(stretch)*PageSize]
		}
		t0 := time.Now()
		err := bp.disk.readPages(stretch[0].id, dst)
		if bp.readLatency != nil {
			bp.readLatency.ObserveDuration(time.Since(t0))
		}
		for k, fr := range stretch {
			if err == nil && len(stretch) > 1 {
				copy(fr.data[:], dst[k*PageSize:])
			}
			switch {
			case err != nil:
				fr.loadErr = err
			case verify && !VerifyPage(fr.data[:]):
				fr.loadErr = &CorruptPageError{Path: bp.disk.Path(), Page: fr.id}
			}
		}
	}
	bp.mu.Lock()
	completed = true
	return bp.endLoadsLocked(frames, prefetch)
}

// endLoadsLocked ends the loads of frames and releases bp.mu. A failed frame
// leaves the pool with its waiters' pins (they see loadErr) and becomes nil
// in frames; a checksum failure quarantines its page. With unpin, a loaded
// frame is released. Co-fetchers are woken, and onCorrupt is told of each
// quarantined page after the unlock. It returns the first failure.
func (bp *BufferPool) endLoadsLocked(frames []*Frame, unpin bool) (first error) {
	var bad []PageID
	for i, fr := range frames {
		if fr.loadErr == nil {
			if unpin {
				bp.unpinLocked(fr)
			}
		} else {
			if ce, ok := fr.loadErr.(*CorruptPageError); ok {
				bp.quarantined[fr.id] = ce
				bp.corrupt.Add(1)
				bad = append(bad, fr.id)
			}
			first = cmp.Or(first, fr.loadErr)
			bp.dropLocked(fr)
			fr.pins = 0
			frames[i] = nil
		}
		fr.loading = false
	}
	if bp.loadWaiters > 0 {
		bp.loadDone.Broadcast()
	}
	notify := bp.onCorrupt
	bp.mu.Unlock()
	for _, id := range bad {
		if notify != nil {
			notify(id)
		}
	}
	return first
}

// frameLocked returns page id's frame, or nil when it is not resident.
func (bp *BufferPool) frameLocked(id PageID) *Frame {
	if id < 0 || int(id) >= len(bp.frames) {
		return nil
	}
	return bp.frames[id]
}

// registerLocked enters fr into the page table under fr.id.
func (bp *BufferPool) registerLocked(fr *Frame) {
	for int(fr.id) >= len(bp.frames) {
		bp.frames = append(bp.frames, nil)
	}
	bp.frames[fr.id] = fr
	bp.resident++
}

// dropLocked removes fr from the page table.
func (bp *BufferPool) dropLocked(fr *Frame) {
	bp.frames[fr.id] = nil
	bp.resident--
}

// NewPage allocates a fresh page, pins it, and returns the frame. The page
// exists only here until its first write-back (see
// DiskManager.AllocatePage), so the frame is born dirty: eviction can never
// drop it unwritten.
func (bp *BufferPool) NewPage() (*Frame, error) {
	id, err := bp.disk.AllocatePage()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, err := bp.victimLocked(id)
	if err != nil {
		return nil, err
	}
	clear(fr.data[:])
	fr.dirty = true
	return fr, nil
}

// pinLocked pins an in-pool frame, removing it from the LRU list.
func (bp *BufferPool) pinLocked(fr *Frame) {
	bp.lruRemove(fr)
	fr.pins++
}

// lruPushFront makes the unpinned frame fr the most recently used.
func (bp *BufferPool) lruPushFront(fr *Frame) {
	fr.prev, fr.next, fr.inLRU = nil, bp.lruFront, true
	if bp.lruFront != nil {
		bp.lruFront.prev = fr
	} else {
		bp.lruBack = fr
	}
	bp.lruFront = fr
}

// lruRemove takes fr off the LRU list; a frame that is not on it (pinned,
// or not yet unpinned) is left alone.
func (bp *BufferPool) lruRemove(fr *Frame) {
	if !fr.inLRU {
		return
	}
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		bp.lruFront = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		bp.lruBack = fr.prev
	}
	fr.prev, fr.next, fr.inLRU = nil, nil, false
}

// victimLocked obtains a frame for page id (which must not be resident),
// evicting the LRU unpinned page if the pool is full. While a statement
// barrier is up, frames dirtied under the current epoch are not
// candidates — writing back a page dirtied by an uncommitted statement
// would leak its effects to disk. The returned frame is pinned and
// registered under id, with stale contents.
func (bp *BufferPool) victimLocked(id PageID) (*Frame, error) {
	if bp.resident >= bp.cap {
		var victim *Frame
		for fr := bp.lruBack; fr != nil; fr = fr.prev {
			if bp.barrier > 0 && fr.dirty && fr.epoch == bp.epoch {
				continue
			}
			victim = fr
			break
		}
		if victim == nil {
			if bp.barrier > 0 {
				// Every candidate holds uncommitted dirt. The statement's
				// working set must stay in memory, so grow past capacity;
				// EndBarrier trims the pool back down once the dirt is
				// committed (or rolled back).
				bp.overflows.Add(1)
				fr := &Frame{id: id, pins: 1}
				bp.registerLocked(fr)
				return fr, nil
			}
			return nil, fmt.Errorf("storage: buffer pool exhausted: all %d frames pinned", bp.cap)
		}
		if victim.dirty {
			if bp.hook != nil {
				if err := bp.hook.PageImage(victim.id, victim.data[:]); err != nil {
					return nil, err
				}
				if err := bp.hook.Barrier(); err != nil {
					return nil, err
				}
			}
			if err := bp.disk.WritePage(victim.id, victim.data[:]); err != nil {
				return nil, err
			}
			victim.dirty = false
		}
		bp.lruRemove(victim)
		bp.dropLocked(victim)
		bp.evictions.Add(1)
		victim.id = id
		victim.pins = 1
		victim.loadErr = nil
		victim.prefetched = false
		bp.registerLocked(victim)
		return victim, nil
	}
	fr := &Frame{id: id, pins: 1}
	bp.registerLocked(fr)
	return fr, nil
}

// UnpinPage releases one pin on page id. When the pin count reaches zero the
// frame becomes an eviction candidate.
func (bp *BufferPool) UnpinPage(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr := bp.frameLocked(id)
	if fr == nil {
		return fmt.Errorf("storage: unpin of non-resident page %d", id)
	}
	if fr.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	bp.unpinLocked(fr)
	return nil
}

// unpin releases one pin on fr, a frame the caller fetched and still pins.
func (bp *BufferPool) unpin(fr *Frame) {
	bp.mu.Lock()
	bp.unpinLocked(fr)
	bp.mu.Unlock()
}

// pinAhead is a page stream's lock round, taken once the pages it pinned
// are read: it releases them and pins the resident, loaded pages of the
// stream's sequence from its cursor on, across span ends, up to limit. A
// page that is not resident, or whose read is still in flight, ends the
// batch; when that is the cursor's own page, the same round fetches it as
// FetchPage does, as a miss or by waiting for the read in flight.
func (bp *BufferPool) pinAhead(s *PageStream, limit int) error {
	bp.mu.Lock()
	bp.releaseLocked(s)
	for span, id := s.span, s.next; len(s.pins) < limit && span < len(s.spans); {
		fr := bp.frameLocked(id)
		if fr == nil || fr.loading {
			break
		}
		bp.pinLocked(fr)
		s.pins = append(s.pins, fr)
		if id < s.spans[span].Last {
			id++
		} else {
			span, id = s.first(span + 1)
		}
	}
	if len(s.pins) > 0 {
		bp.mu.Unlock()
		return nil
	}
	fr, err := bp.fetchLocked(s.next)
	if err != nil {
		return err
	}
	s.pins, s.fetched = append(s.pins, fr), true
	return nil
}

// release drops the pins of a page stream's batch (see pinAhead).
func (bp *BufferPool) release(s *PageStream) {
	bp.mu.Lock()
	bp.releaseLocked(s)
	bp.mu.Unlock()
}

// releaseLocked empties the pin list of s, unpinning its frames in order, so
// they reach the LRU list in the order a one-page-at-a-time reader would have
// unpinned them. A page counts as a pool hit, and as a prefetch hit when a
// prefetcher loaded it, when it is read, not when it is pinned: each page s
// read counts here, but for one it fetched, which the fetch counted.
func (bp *BufferPool) releaseLocked(s *PageStream) {
	for i, fr := range s.pins {
		if i < s.at && fr.prefetched {
			fr.prefetched = false
			bp.prefetchHits.Add(1)
		}
		bp.unpinLocked(fr)
	}
	if !s.fetched && s.at > 0 {
		bp.hits.Add(int64(s.at))
	}
	clear(s.pins)
	s.pins, s.at, s.fetched = s.pins[:0], 0, false
}

// unpinLocked releases one pin on a pinned frame.
func (bp *BufferPool) unpinLocked(fr *Frame) {
	fr.pins--
	if fr.pins == 0 {
		bp.lruPushFront(fr)
	}
	if fr.dirty {
		// Every mutation happens while pinned, so stamping at unpin
		// catches all pages the current statement may have dirtied (a
		// page merely read under the barrier is stamped too — safe,
		// just conservative).
		fr.epoch = bp.epoch
	}
}

// FlushAll writes back every dirty resident page and fsyncs the file.
// With a write-back hook installed it is two-phase: all page images are
// logged, one barrier makes them durable, then the pages are written —
// amortizing the torn-write protection over the whole flush instead of
// paying a log fsync per page.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.flushLocked(); err != nil {
		return err
	}
	return bp.disk.Sync()
}

// flushLocked writes back every dirty frame under bp.mu, in ascending page
// order, without the trailing fsync.
func (bp *BufferPool) flushLocked() error {
	var dirty []*Frame
	for _, fr := range bp.frames {
		if fr != nil && fr.dirty {
			dirty = append(dirty, fr)
		}
	}
	if len(dirty) == 0 {
		return nil
	}
	if bp.hook != nil {
		for _, fr := range dirty {
			if err := bp.hook.PageImage(fr.id, fr.data[:]); err != nil {
				return err
			}
		}
		if err := bp.hook.Barrier(); err != nil {
			return err
		}
	}
	for _, fr := range dirty {
		if err := bp.disk.WritePage(fr.id, fr.data[:]); err != nil {
			return err
		}
		fr.dirty = false
	}
	return nil
}

// DropAll flushes dirty pages (fsyncing the file) and then empties the
// pool, simulating a cold buffer. It fails if any page is still pinned.
func (bp *BufferPool) DropAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, fr := range bp.frames {
		if fr != nil && fr.pins > 0 {
			return fmt.Errorf("storage: DropAll with page %d still pinned", id)
		}
	}
	if err := bp.flushLocked(); err != nil {
		return err
	}
	if err := bp.disk.Sync(); err != nil {
		return err
	}
	clear(bp.frames)
	bp.resident = 0
	bp.lruFront, bp.lruBack = nil, nil
	return nil
}

// Stats returns a snapshot of pool activity counters. The counters are
// atomic: Stats never takes the pool lock, so monitoring cannot stall
// concurrent workers.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		Hits:         bp.hits.Load(),
		Misses:       bp.misses.Load(),
		Evictions:    bp.evictions.Load(),
		Prefetched:   bp.prefetched.Load(),
		PrefetchHits: bp.prefetchHits.Load(),
		Overflows:    bp.overflows.Load(),
		CorruptPages: bp.corrupt.Load(),
	}
}

// ResetStats zeroes the activity counters.
func (bp *BufferPool) ResetStats() {
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
	bp.prefetched.Store(0)
	bp.prefetchHits.Store(0)
	bp.overflows.Store(0)
}
