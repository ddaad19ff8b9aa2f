// Package storage seeds lockorder violations of rules 1 and 2: disk
// reads under the pool mutex and pool calls under a narrower storage
// lock. Its import path ends in "internal/storage" so both rules apply.
package storage

import "sync"

type PageID int64

type DiskManager struct{}

func (d *DiskManager) ReadPage(id PageID, buf []byte) error     { return nil }
func (d *DiskManager) readPages(first PageID, buf []byte) error { return nil }
func (d *DiskManager) WritePage(id PageID, buf []byte) error    { return nil }

type Frame struct{ data [64]byte }

type BufferPool struct {
	mu     sync.Mutex
	disk   *DiskManager
	frames map[PageID]*Frame
}

func (bp *BufferPool) UnpinPage(id PageID) error { return nil }

// fetchBad reads from disk while holding the pool mutex: every concurrent
// miss now serializes on one physical read.
func (bp *BufferPool) fetchBad(id PageID) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr := &Frame{}
	if err := bp.disk.ReadPage(id, fr.data[:]); err != nil { // want `ReadPage while holding BufferPool.mu`
		return nil, err
	}
	bp.frames[id] = fr
	return fr, nil
}

// readRunBad reads a run of pages while holding the pool mutex: the run
// read is a disk read like ReadPage.
func (bp *BufferPool) readRunBad(first PageID, n int) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	buf := make([]byte, n*64)
	return bp.disk.readPages(first, buf) // want `readPages while holding BufferPool.mu`
}

// readRunGood takes the run's frames under the lock, then reads.
func (bp *BufferPool) readRunGood(first PageID, n int) error {
	bp.mu.Lock()
	for i := 0; i < n; i++ {
		bp.frames[first+PageID(i)] = &Frame{}
	}
	bp.mu.Unlock()
	return bp.disk.readPages(first, make([]byte, n*64))
}

// fetchGood registers the frame, releases the lock, then reads.
func (bp *BufferPool) fetchGood(id PageID) (*Frame, error) {
	bp.mu.Lock()
	fr := &Frame{}
	bp.frames[id] = fr
	bp.mu.Unlock()
	if err := bp.disk.ReadPage(id, fr.data[:]); err != nil {
		return nil, err
	}
	return fr, nil
}

// evictGood writes back a dirty victim under the lock — the documented
// exception: only reads are banned under bp.mu.
func (bp *BufferPool) evictGood(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr := bp.frames[id]
	return bp.disk.WritePage(id, fr.data[:])
}

type Prefetcher struct {
	mu      sync.Mutex
	bp      *BufferPool
	started map[PageID]bool
}

// readerBad calls back into the pool while holding the prefetcher's mark
// mutex, inverting the pool-outermost lock order.
func (p *Prefetcher) readerBad(id PageID) {
	p.mu.Lock()
	p.started[id] = true
	p.bp.UnpinPage(id) // want `BufferPool.UnpinPage while holding Prefetcher.mu`
	p.mu.Unlock()
}

// readerGood marks under the mutex, releases it, then touches the pool.
func (p *Prefetcher) readerGood(id PageID) {
	p.mu.Lock()
	p.started[id] = true
	p.mu.Unlock()
	p.bp.UnpinPage(id)
}
