package storage

import (
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
	// read: it installs loaded if nobody has yet — so a read nobody waits
	// for allocates no channel — and blocks on it; the loader closes it when
	// the read completes. loadErr carries the read error, published before
	// the close.
	loading bool
	loaded  chan struct{}
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

// BufferPool caches pages of a single DiskManager with LRU replacement.
// Pages are pinned while in use; unpinned frames are eviction candidates in
// least-recently-used order. The bookkeeping allocates nothing per page:
// the LRU list is threaded through the frames, a miss at capacity recycles
// its victim's frame, and a read gets a completion signal only when a
// second fetcher waits for it.
//
// The pool is safe for concurrent use: parallel partition workers pin
// disjoint (and occasionally shared) pages simultaneously. Physical reads
// happen outside the pool lock so concurrent misses overlap their I/O;
// activity counters are atomic so stat bumps and snapshots never contend
// on the pool mutex.
// WriteBackHook intercepts in-place rewrites of dirty pages. The engine
// implements it over the WAL: PageImage logs a full image of the page,
// Barrier forces logged images to stable storage. Together they make a
// torn in-place write recoverable — the pre-write image is always on
// disk before the write that could tear it begins.
type WriteBackHook interface {
	PageImage(id PageID, data []byte) error
	Barrier() error
}

type BufferPool struct {
	mu     sync.Mutex
	disk   *DiskManager
	cap    int
	frames map[PageID]*Frame
	// The unpinned resident frames, most recently unpinned first; linked
	// through Frame.prev/next.
	lruFront, lruBack *Frame

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
	verify bool
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
	// concurrent traffic. Nil histograms are inert, so the disabled path
	// costs one pointer test per physical read.
	readLatency *obs.Histogram // physical read latency, demand + prefetch
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
	return &BufferPool{
		disk:        disk,
		cap:         capacity,
		frames:      make(map[PageID]*Frame, capacity),
		verify:      true,
		quarantined: make(map[PageID]*CorruptPageError),
	}
}

// SetVerifyReads toggles checksum verification of physical reads.
// Recovery disables it while torn pages may legitimately be read before
// their healing full-page image is replayed.
func (bp *BufferPool) SetVerifyReads(on bool) {
	bp.mu.Lock()
	bp.verify = on
	bp.mu.Unlock()
}

// SetCorruptionHandler installs a callback invoked (outside the pool
// lock) whenever a page is newly quarantined. Call it before the pool
// sees concurrent traffic.
func (bp *BufferPool) SetCorruptionHandler(fn func(PageID)) {
	bp.mu.Lock()
	bp.onCorrupt = fn
	bp.mu.Unlock()
}

// Quarantined returns the ids of pages currently quarantined for failing
// checksum verification.
func (bp *BufferPool) Quarantined() []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	ids := make([]PageID, 0, len(bp.quarantined))
	for id := range bp.quarantined {
		ids = append(ids, id)
	}
	return ids
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
	excess := len(bp.frames) - bp.cap
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
		delete(bp.frames, fr.id)
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
	fr, ok := bp.frames[id]
	if !ok {
		return nil
	}
	if fr.pins > 0 {
		return fmt.Errorf("storage: discard of pinned page %d", id)
	}
	bp.lruRemove(fr)
	delete(bp.frames, id)
	return nil
}

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.cap }

// Disk returns the underlying disk manager.
func (bp *BufferPool) Disk() *DiskManager { return bp.disk }

// FetchPage pins page id, reading it from disk on a miss.
// The caller must UnpinPage it when done.
func (bp *BufferPool) FetchPage(id PageID) (*Frame, error) {
	fr, _, err := bp.fetch(id, false)
	return fr, err
}

// fetch implements FetchPage. missed reports whether this call issued the
// physical read. A prefetch wants the page resident, not pinned: it returns
// no frame — at once when the page is resident or somebody is reading it —
// and on a miss marks the frame, so the first later demand hit can be
// attributed to readahead, and releases it inside the critical section that
// ends the read.
func (bp *BufferPool) fetch(id PageID, prefetch bool) (*Frame, bool, error) {
	bp.mu.Lock()
	if ce, ok := bp.quarantined[id]; ok {
		bp.mu.Unlock()
		return nil, false, ce
	}
	if fr, ok := bp.frames[id]; ok {
		bp.hits.Add(1)
		if prefetch {
			bp.mu.Unlock()
			return nil, false, nil
		}
		if fr.prefetched {
			fr.prefetched = false
			bp.prefetchHits.Add(1)
		}
		bp.pinLocked(fr)
		var loaded chan struct{}
		if fr.loading {
			if fr.loaded == nil {
				fr.loaded = make(chan struct{})
			}
			loaded = fr.loaded
		}
		bp.mu.Unlock()
		if loaded != nil {
			// Another goroutine is reading this page; wait for it. On
			// failure the loader already deregistered the frame and zeroed
			// its pins, so there is nothing to unpin here.
			<-loaded
			if fr.loadErr != nil {
				return nil, false, fr.loadErr
			}
		}
		return fr, false, nil
	}
	bp.misses.Add(1)
	fr, err := bp.victimLocked(id)
	if err != nil {
		bp.mu.Unlock()
		return nil, false, err
	}
	// Read outside the lock so concurrent misses on different pages overlap
	// their I/O. The frame is registered and pinned and marked loading:
	// co-fetchers of the same page wait for the read rather than racing a
	// second one, and the pin keeps the frame off the eviction list.
	fr.loading = true
	fr.loadErr = nil
	fr.prefetched = prefetch
	if prefetch {
		bp.prefetched.Add(1)
	}
	verify := bp.verify
	bp.mu.Unlock()

	// If the read panics (a fault-injection hook, or a bug in a lower
	// layer), deregister the frame and wake co-fetchers before the panic
	// propagates: a statement-level panic boundary above must not leave
	// other goroutines wedged on the loaded channel forever.
	completed := false
	defer func() {
		if completed {
			return
		}
		bp.mu.Lock()
		delete(bp.frames, id)
		fr.pins = 0
		fr.loadErr = fmt.Errorf("storage: read of page %d aborted by panic", id)
		bp.loadDoneLocked(fr)
	}()

	if bp.readLatency != nil {
		t0 := time.Now()
		err = bp.disk.ReadPage(id, fr.data[:])
		bp.readLatency.ObserveDuration(time.Since(t0))
	} else {
		err = bp.disk.ReadPage(id, fr.data[:])
	}
	// The checksum is computed before the lock is retaken: it is most of
	// what there is to do per page besides the read itself, and every other
	// fetch would wait for it.
	corrupt := err == nil && verify && !VerifyPage(fr.data[:])
	bp.mu.Lock()
	var notify func(PageID)
	if corrupt {
		ce := &CorruptPageError{Path: bp.disk.Path(), Page: id}
		bp.quarantined[id] = ce
		bp.corrupt.Add(1)
		notify = bp.onCorrupt
		err = ce
	}
	if err != nil {
		// Discard the frame; waiters observe loadErr and give up their pins
		// collectively (the frame is no longer resident).
		delete(bp.frames, id)
		fr.pins = 0
		fr.loadErr = err
	} else if prefetch {
		bp.unpinLocked(fr)
	}
	completed = true
	bp.loadDoneLocked(fr)
	if notify != nil {
		notify(id)
	}
	if err != nil || prefetch {
		return nil, err == nil, err
	}
	return fr, true, nil
}

// loadDoneLocked ends fr's read: it clears the loading mark, releases
// bp.mu, and wakes the co-fetchers, if any waited.
func (bp *BufferPool) loadDoneLocked(fr *Frame) {
	loaded := fr.loaded
	fr.loading, fr.loaded = false, nil
	bp.mu.Unlock()
	if loaded != nil {
		close(loaded)
	}
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
	if len(bp.frames) >= bp.cap {
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
				bp.frames[id] = fr
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
		delete(bp.frames, victim.id)
		bp.evictions.Add(1)
		victim.id = id
		victim.pins = 1
		victim.loadErr = nil
		victim.prefetched = false
		bp.frames[id] = victim
		return victim, nil
	}
	fr := &Frame{id: id, pins: 1}
	bp.frames[id] = fr
	return fr, nil
}

// UnpinPage releases one pin on page id. When the pin count reaches zero the
// frame becomes an eviction candidate.
func (bp *BufferPool) UnpinPage(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of non-resident page %d", id)
	}
	if fr.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	bp.unpinLocked(fr)
	return nil
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

// flushLocked writes back every dirty frame under bp.mu, without the
// trailing fsync.
func (bp *BufferPool) flushLocked() error {
	var dirty []*Frame
	for _, fr := range bp.frames {
		if fr.dirty {
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
		if fr.pins > 0 {
			return fmt.Errorf("storage: DropAll with page %d still pinned", id)
		}
	}
	if err := bp.flushLocked(); err != nil {
		return err
	}
	if err := bp.disk.Sync(); err != nil {
		return err
	}
	bp.frames = make(map[PageID]*Frame, bp.cap)
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

// Resident returns the number of pages currently cached.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}
