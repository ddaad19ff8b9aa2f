// Package storage implements the paged storage substrate: a disk manager,
// an LRU buffer pool with pin counts and I/O statistics, and heap files of
// fixed-width records grouped into buckets of consecutive pages.
//
// The paper's performance argument is about pages touched, so the buffer
// pool counts every physical read and write; benchmarks report these counts
// alongside wall-clock time. An optional simulated per-page read latency
// reproduces the paper's cold-buffer behaviour deterministically.
package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the size of a disk page in bytes. The paper assumes 4K pages
// ("Assume that a bucket corresponds to a 4K-page...").
const PageSize = 4096

// PageID identifies a page within a single file (zero-based).
type PageID int64

// DiskManager performs page-granular I/O against a single file.
// It is safe for concurrent use.
type DiskManager struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// numPages counts the pages that exist: those in the file plus those
	// AllocatePage reserved, which live in the buffer pool until their
	// first write-back. It changes only under mu and is read without it,
	// so per-bucket loops over NumPages take no lock. filePages is what
	// the file itself holds.
	numPages  atomic.Int64
	filePages int64

	// readLatency, if non-zero, is added to every physical page read to
	// simulate a cold rotating disk. Writes are not delayed: the paper's
	// experiments are read-only queries.
	readLatency time.Duration
	// seekLatency, if non-zero, is added when a read is not sequential
	// (page != previously read page + 1), modeling the random-I/O penalty
	// that makes non-clustered index scans and scattered ambivalent-bucket
	// fetches expensive (the effect behind the paper's Fig. 5 breakeven).
	seekLatency time.Duration
	lastRead    PageID

	reads     int64
	seqReads  int64
	randReads int64
	writes    int64
	syncs     int64

	// fault, when non-nil, is consulted before every physical operation
	// and can fail it. Crash tests use it to cut the disk out from under
	// the engine at a precise point.
	fault FaultFn
}

// FaultFn inspects an imminent disk operation ("read", "write", "sync",
// "truncate", with the page id where meaningful, -1 otherwise) and may
// veto it by returning an error.
type FaultFn func(op string, page PageID) error

// OpenDiskManager opens (creating if necessary) the page file at path.
func OpenDiskManager(path string) (*DiskManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s has size %d, not a multiple of the page size", path, st.Size())
	}
	n := st.Size() / PageSize
	d := &DiskManager{f: f, path: path, filePages: n, lastRead: -1}
	d.numPages.Store(n)
	return d, nil
}

// SetReadLatency installs a simulated per-page read delay (0 disables).
func (d *DiskManager) SetReadLatency(lat time.Duration) {
	d.mu.Lock()
	d.readLatency = lat
	d.mu.Unlock()
}

// SetSeekLatency installs an additional delay for non-sequential reads
// (0 disables).
func (d *DiskManager) SetSeekLatency(lat time.Duration) {
	d.mu.Lock()
	d.seekLatency = lat
	d.mu.Unlock()
}

// SetFault installs (or with nil removes) a fault-injection hook.
func (d *DiskManager) SetFault(fn FaultFn) {
	d.mu.Lock()
	d.fault = fn
	d.mu.Unlock()
}

// checkFault runs the installed hook, if any, for an imminent operation.
func (d *DiskManager) checkFault(op string, page PageID) error {
	d.mu.Lock()
	fn := d.fault
	d.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(op, page)
}

// Path returns the underlying file path.
func (d *DiskManager) Path() string { return d.path }

// NumPages returns the current number of pages: the file's plus those
// allocated and not yet written back.
func (d *DiskManager) NumPages() int64 { return d.numPages.Load() }

// ReadPage reads page id into buf (which must be PageSize bytes). It is the
// one-page case of readPages.
func (d *DiskManager) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: ReadPage buffer has %d bytes, want %d", len(buf), PageSize)
	}
	return d.readPages(id, buf)
}

// readPages reads the len(buf)/PageSize consecutive pages from first on
// into buf with one positioned read. The fault hook, the read count and the
// simulated latency are per page; the run counts as one seek (none if it
// continues the previous read) and then sequential reads.
func (d *DiskManager) readPages(first PageID, buf []byte) error {
	n := int64(len(buf) / PageSize)
	d.mu.Lock()
	if num := d.numPages.Load(); first < 0 || int64(first)+n > num {
		d.mu.Unlock()
		return fmt.Errorf("storage: read pages [%d,%d) out of range [0,%d)", first, int64(first)+n, num)
	}
	lat := time.Duration(n) * d.readLatency
	if first == d.lastRead+1 {
		d.seqReads++
	} else {
		d.randReads++
		lat += d.seekLatency
	}
	d.seqReads += n - 1
	d.lastRead = first + PageID(n-1)
	d.reads += n
	fault := d.fault
	d.mu.Unlock()

	if fault != nil {
		for id := first; id < first+PageID(n); id++ {
			if err := fault("read", id); err != nil {
				return err
			}
		}
	}
	// A page past the end of the file was allocated and never written
	// back: it reads as the empty page it was born as (as does one in a
	// hole that a later page's write-back left behind it).
	if k, err := d.f.ReadAt(buf, int64(first)*PageSize); err == io.EOF {
		clear(buf[k:])
	} else if err != nil {
		return fmt.Errorf("storage: read pages [%d,%d) of %s: %w", first, int64(first)+n, d.path, err)
	}
	simulateLatency(lat)
	return nil
}

// SimulateLatency exposes the latency spinner for callers that model reads
// outside the page files (e.g. charging the sequential SMA-file load of a
// cold run).
func SimulateLatency(lat time.Duration) { simulateLatency(lat) }

// simulateLatency delays for lat. time.Sleep has ~1ms kernel granularity,
// which would distort microsecond-scale page costs by over an order of
// magnitude, so short delays spin on the monotonic clock instead.
func simulateLatency(lat time.Duration) {
	if lat <= 0 {
		return
	}
	if lat >= time.Millisecond {
		time.Sleep(lat)
		return
	}
	for start := time.Now(); time.Since(start) < lat; {
	}
}

// SeqRandReads returns the sequential / random split of physical reads.
func (d *DiskManager) SeqRandReads() (seq, random int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seqReads, d.randReads
}

// WritePage writes buf (PageSize bytes) to page id, which must be within the
// file or exactly one past the end (append). The page checksum is stamped
// into buf's header before the write, so every page image that reaches
// disk is verifiable; callers must not rely on the checksum bytes.
func (d *DiskManager) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: WritePage buffer has %d bytes, want %d", len(buf), PageSize)
	}
	if err := d.checkFault("write", id); err != nil {
		return err
	}
	StampPage(buf)
	d.mu.Lock()
	n := d.numPages.Load()
	if int64(id) < 0 || int64(id) > n {
		d.mu.Unlock()
		return fmt.Errorf("storage: write page %d out of range [0,%d]", id, n)
	}
	if int64(id) == n {
		d.numPages.Store(n + 1)
	}
	d.filePages = max(d.filePages, int64(id)+1)
	d.writes++
	d.mu.Unlock()

	if _, err := d.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d of %s: %w", id, d.path, err)
	}
	return nil
}

// AllocatePage reserves the next page id for an empty page and returns it.
// Nothing is written: the page is born in the buffer pool (NewPage hands out
// a zeroed dirty frame) and the file grows when it is first written back;
// until then ReadPage returns zeros for it. A crash before that write-back
// leaves a shorter file, which is what recovery expects of pages no
// committed statement reached — and the log re-creates those one did.
func (d *DiskManager) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return PageID(d.numPages.Add(1) - 1), nil
}

// Stats returns the number of physical page reads and writes so far.
func (d *DiskManager) Stats() (reads, writes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}

// ResetStats zeroes the I/O counters and the sequential-read tracking.
func (d *DiskManager) ResetStats() {
	d.mu.Lock()
	d.reads, d.writes, d.seqReads, d.randReads = 0, 0, 0, 0
	d.lastRead = -1
	d.mu.Unlock()
}

// Sync flushes the file to stable storage.
func (d *DiskManager) Sync() error {
	if err := d.checkFault("sync", -1); err != nil {
		return err
	}
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.mu.Lock()
	d.syncs++
	d.mu.Unlock()
	return nil
}

// Syncs returns the number of successful fsyncs issued so far.
func (d *DiskManager) Syncs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Truncate shrinks the file to the given page count. Recovery uses it
// to drop pages allocated by statements that never committed.
func (d *DiskManager) Truncate(pages int64) error {
	if err := d.checkFault("truncate", PageID(pages)); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := d.numPages.Load(); pages < 0 || pages > n {
		return fmt.Errorf("storage: truncate to %d pages out of range [0,%d]", pages, n)
	}
	if pages < d.filePages { // pages never written back have nothing to cut
		if err := d.f.Truncate(pages * PageSize); err != nil {
			return fmt.Errorf("storage: truncate %s: %w", d.path, err)
		}
		d.filePages = pages
	}
	d.numPages.Store(pages)
	if int64(d.lastRead) >= pages {
		d.lastRead = -1
	}
	return nil
}

// Close flushes and closes the underlying file.
func (d *DiskManager) Close() error {
	err := d.Sync()
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}
