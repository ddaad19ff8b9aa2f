package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrSyncTimeout is returned by WaitDurable when a group-commit wait
// exceeds the policy's SyncTimeout — typically because the leader's
// fsync has stalled in the kernel. The statement's durability is
// unknown: its records were handed to the OS but the barrier never
// completed.
var ErrSyncTimeout = errors.New("wal: group-commit wait timed out")

// defaultSyncTimeout bounds group-commit waits when the policy does not
// set one. A healthy fsync is microseconds to milliseconds; ten seconds
// distinguishes a stalled device from a merely busy one.
const defaultSyncTimeout = 10 * time.Second

// maxSpare bounds the batch buffer a log keeps between statements: one
// huge statement must not pin its buffer for the life of the log.
const maxSpare = 1 << 20

// SyncMode selects when commit records are forced to stable storage.
type SyncMode int

const (
	// ModeGrouped fsyncs before every SQL statement returns, with one
	// fsync amortized over all concurrently-committing statements
	// (leader/follower group commit). Power-loss safe.
	ModeGrouped SyncMode = iota
	// ModeOS hands records to the operating system without fsync.
	// Survives a process crash, not a power cut.
	ModeOS
	// ModeInterval fsyncs from a background ticker every Interval.
	// Bounds power-loss exposure to one tick.
	ModeInterval
)

// SyncPolicy is the durability knob surfaced as sma.WithSyncPolicy.
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration
	// SyncTimeout bounds how long a group-commit follower waits for the
	// leader's fsync before giving up with ErrSyncTimeout. Zero selects
	// the default (10s).
	SyncTimeout time.Duration
}

// Grouped returns the default policy: group-committed fsync per
// statement.
func Grouped() SyncPolicy { return SyncPolicy{Mode: ModeGrouped} }

// OSOnly returns the write-to-OS policy: no fsync on commit.
func OSOnly() SyncPolicy { return SyncPolicy{Mode: ModeOS} }

// Every returns the background-fsync policy with the given interval.
func Every(d time.Duration) SyncPolicy {
	return SyncPolicy{Mode: ModeInterval, Interval: d}
}

func (p SyncPolicy) String() string {
	switch p.Mode {
	case ModeGrouped:
		return "grouped"
	case ModeOS:
		return "os"
	case ModeInterval:
		return fmt.Sprintf("every %s", p.Interval)
	}
	return fmt.Sprintf("mode-%d", int(p.Mode))
}

// Batch accumulates one statement's redo records, each encoded in place
// into one buffer that Commit hands to the log as it is. It is not safe for
// concurrent use; the engine builds each batch under its write lock. A
// committed batch is spent: Commit empties it and keeps its buffer for the
// log's next batch.
type Batch struct {
	buf []byte
	n   int
}

// Insert records a tuple image placed at (page, slot).
func (b *Batch) Insert(table string, page int64, slot int, data []byte) {
	b.buf = appendOp(b.buf, recInsert, table, page, slot, 1, data)
	b.n++
}

// InsertRun records count tuple images, back to back in data, placed in
// slots [slot, slot+count) of page: what one statement appended to one page
// is one record.
func (b *Batch) InsertRun(table string, page int64, slot, count int, data []byte) {
	b.buf = appendOp(b.buf, recInsertRun, table, page, slot, count, data)
	b.n++
}

// Update records a replacement tuple image at (page, slot).
func (b *Batch) Update(table string, page int64, slot int, data []byte) {
	b.buf = appendOp(b.buf, recUpdate, table, page, slot, 1, data)
	b.n++
}

// Delete records a tombstone for (page, slot).
func (b *Batch) Delete(table string, page int64, slot int) {
	b.buf = appendOp(b.buf, recDelete, table, page, slot, 1, nil)
	b.n++
}

// Len reports the number of operations recorded so far.
func (b *Batch) Len() int { return b.n }

// Stats is a point-in-time snapshot of log activity.
type Stats struct {
	Commits      uint64 // statements committed (non-empty batches)
	Syncs        uint64 // fsync calls issued
	GroupedWaits uint64 // WaitDurable calls satisfied by another caller's fsync
	Records      uint64 // redo + commit + page-image records appended
	Bytes        uint64 // bytes appended since the log was created
	PageImages   uint64 // full-page images appended
	Checkpoints  uint64 // truncations since the log was created
	SyncTimeouts uint64 // group-commit waits abandoned at the deadline
	Size         int64  // current file size in bytes
	LastSeq      uint64 // last committed statement sequence
	SyncedSeq    uint64 // highest sequence known durable
	Policy       string
}

// Log is the append-only redo log. Appends are buffered and serialized
// by an internal mutex; durability waits run group commit on a second
// mutex so an in-flight fsync never blocks new appends.
type Log struct {
	policy SyncPolicy

	mu     sync.Mutex // guards f/w appends, seq, size, dirty, closed
	f      *os.File
	w      *bufio.Writer
	path   string
	seq    uint64
	size   int64
	dirty  bool // bytes appended since the last fsync
	closed bool
	spare  []byte             // the last committed batch's buffer, for the next NewBatch
	fault  func(string) error // runs before every fsync; see SetFault

	syncMu    sync.Mutex // guards the fields below; never held with mu
	syncCond  *sync.Cond
	syncedSeq uint64
	syncing   bool
	syncErr   error // sticky: a failed fsync means durability is unknown

	stopTicker chan struct{}
	tickerDone chan struct{}
	closeOnce  sync.Once
	closeErr   error

	nCommits      atomic.Uint64
	nSyncs        atomic.Uint64
	nGroupedWaits atomic.Uint64
	nRecords      atomic.Uint64
	nBytes        atomic.Uint64
	nPageImages   atomic.Uint64
	nCheckpoints  atomic.Uint64
	nSyncTimeouts atomic.Uint64
}

// Create truncates (or creates) the log at path and writes a checkpoint
// header recording states as the committed base. The caller must have
// made the heap state described by states durable first: Create is the
// point where prior log contents stop being needed.
func Create(path string, states []TableState, policy SyncPolicy) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{
		policy: policy,
		f:      f,
		w:      bufio.NewWriterSize(f, 64<<10),
		path:   path,
	}
	l.syncCond = sync.NewCond(&l.syncMu)
	hdr := encodeHeader(states)
	if _, err := l.w.Write(hdr); err == nil {
		err = l.w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l.size = int64(len(hdr))
	if policy.Mode == ModeInterval && policy.Interval > 0 {
		l.stopTicker = make(chan struct{})
		l.tickerDone = make(chan struct{})
		go l.tickLoop()
	}
	return l, nil
}

// NewBatch returns an empty statement batch. Statements commit one after
// another, so a steady load encodes every batch into the same buffer.
func (l *Log) NewBatch() *Batch {
	l.mu.Lock()
	buf := l.spare
	l.spare = nil
	l.mu.Unlock()
	return &Batch{buf: buf[:0]}
}

// Commit appends the batch's records followed by a statement-boundary
// commit record and hands them to the OS, returning the statement's
// sequence number. It does not wait for the fsync — pass the sequence
// to WaitDurable for that. Empty batches commit as sequence 0 without
// touching the file.
func (l *Log) Commit(b *Batch) (uint64, error) {
	seq, _, err := l.CommitFrame(b)
	return seq, err
}

// CommitFrame is Commit that also returns the size of the frame it
// appended — the batch's records and its commit record — which is the
// statement's own share of the log.
func (l *Log) CommitFrame(b *Batch) (seq uint64, size int64, err error) {
	if b.n == 0 {
		return 0, 0, nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, 0, ErrClosed
	}
	l.seq++
	seq = l.seq
	frame, n := appendCommit(b.buf, seq, b.n), b.n
	_, err = l.w.Write(frame) // copies: the buffer is free again
	l.size += int64(len(frame))
	l.dirty = true
	if b.buf, b.n = nil, 0; cap(frame) <= maxSpare {
		l.spare = frame[:0]
	}
	l.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	l.nCommits.Add(1)
	l.nRecords.Add(uint64(n + 1))
	l.nBytes.Add(uint64(len(frame)))
	return seq, int64(len(frame)), nil
}

// WaitDurable blocks until the given commit sequence is on stable
// storage, sharing one fsync among all concurrently-waiting committers.
// Under ModeOS and ModeInterval it returns immediately — those policies
// trade the wait away by contract.
func (l *Log) WaitDurable(seq uint64) error {
	_, err := l.Await(seq)
	return err
}

// Await is WaitDurable that also reports whether this caller led the fsync
// that made seq durable: of the statements one barrier covers, it is the
// one the fsync is charged to.
func (l *Log) Await(seq uint64) (led bool, err error) {
	if seq == 0 || l.policy.Mode != ModeGrouped {
		return false, nil
	}
	return l.syncTo(seq)
}

// syncTo runs leader/follower group commit: the first waiter to find no
// fsync in flight becomes leader, flushes and fsyncs everything
// appended so far, and advances the durable watermark; the rest wait on
// the condvar and are satisfied by the leader's barrier.
//
// Follower waits are bounded by the policy's SyncTimeout: a leader whose
// fsync stalls in the kernel cannot be interrupted, but its followers —
// and every later waiter — give up with ErrSyncTimeout instead of
// hanging the whole commit path forever.
func (l *Log) syncTo(seq uint64) (led bool, err error) {
	timeout := l.policy.SyncTimeout
	if timeout <= 0 {
		timeout = defaultSyncTimeout
	}
	deadline := time.Now().Add(timeout)
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for l.syncedSeq < seq {
		if l.syncErr != nil {
			return led, l.syncErr
		}
		if l.syncing {
			if !time.Now().Before(deadline) {
				l.nSyncTimeouts.Add(1)
				return led, fmt.Errorf("%w after %s (seq %d, durable through %d)",
					ErrSyncTimeout, timeout, seq, l.syncedSeq)
			}
			l.timedWaitLocked(deadline)
			continue
		}
		led = true
		l.syncing = true
		l.syncMu.Unlock()
		target, err := l.flushAndSync()
		l.syncMu.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = err
		} else if target > l.syncedSeq {
			l.syncedSeq = target
		}
		l.syncCond.Broadcast()
	}
	if !led {
		l.nGroupedWaits.Add(1)
	}
	return led, nil
}

// timedWaitLocked waits on the sync condvar until a broadcast or until
// the deadline. sync.Cond has no timed wait, so a timer broadcasts at
// the deadline to wake the waiters for their deadline check; the loop
// in syncTo re-examines the condition (and the clock) on every wakeup.
func (l *Log) timedWaitLocked(deadline time.Time) {
	t := time.AfterFunc(time.Until(deadline), func() {
		l.syncMu.Lock()
		l.syncCond.Broadcast()
		l.syncMu.Unlock()
	})
	l.syncCond.Wait()
	t.Stop()
}

// flushAndSync drains the append buffer to the OS and fsyncs, returning
// the highest sequence covered by the barrier.
func (l *Log) flushAndSync() (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	target := l.seq
	l.dirty = false
	err := l.w.Flush()
	f, fault := l.f, l.fault
	if err != nil {
		l.dirty = true
		l.mu.Unlock()
		return 0, err
	}
	l.mu.Unlock()
	if fault != nil {
		if err := fault("sync"); err != nil {
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	l.nSyncs.Add(1)
	return target, nil
}

// SetFault installs fn to run before every fsync of the log with op
// "sync" (nil removes it); an error it returns fails the fsync. Tests
// stall or break the log's barrier with it, as storage.DiskManager's
// SetFault does for page I/O.
func (l *Log) SetFault(fn func(op string) error) {
	l.mu.Lock()
	l.fault = fn
	l.mu.Unlock()
}

// Sync forces everything appended so far to stable storage regardless
// of policy. DB.Sync and checkpointing use it as a barrier.
func (l *Log) Sync() error {
	target, err := l.flushAndSync()
	if err != nil {
		return err
	}
	l.syncMu.Lock()
	if target > l.syncedSeq {
		l.syncedSeq = target
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return nil
}

// PageImage appends a full image of a heap page about to be rewritten
// in place. Replay restores the image before re-applying later records,
// so a torn in-place write can never corrupt committed tuples.
func (l *Log) PageImage(table string, page int64, data []byte) error {
	frame := appendPageImage(make([]byte, 0, 8+2+len(table)+8+len(data)), table, page, data)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	_, err := l.w.Write(frame)
	l.size += int64(len(frame))
	l.dirty = true
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.nPageImages.Add(1)
	l.nRecords.Add(1)
	l.nBytes.Add(uint64(len(frame)))
	return nil
}

// SyncForWriteback fsyncs the log if anything was appended since the
// last barrier. The buffer pool calls it between logging a page image
// and rewriting the page in place: the image must be on stable storage
// before the write it protects against can tear.
func (l *Log) SyncForWriteback() error {
	l.mu.Lock()
	dirty := l.dirty
	l.mu.Unlock()
	if !dirty {
		return nil
	}
	return l.Sync()
}

// Checkpoint truncates the log and writes a fresh header with the given
// committed base state. The caller must have flushed and fsynced every
// table to exactly that state first; pending durability waiters are
// released as satisfied because their effects are now in the base.
func (l *Log) Checkpoint(states []TableState) error {
	// Take the sync token so no group-commit leader fsyncs a file that
	// is being truncated under it.
	l.syncMu.Lock()
	for l.syncing {
		l.syncCond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()

	l.mu.Lock()
	err := l.resetLocked(states)
	seq := l.seq
	l.mu.Unlock()

	l.syncMu.Lock()
	l.syncing = false
	if err == nil {
		l.syncedSeq = seq
		l.syncErr = nil
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if err == nil {
		l.nCheckpoints.Add(1)
	}
	return err
}

// resetLocked rewrites the file as an empty log over a fresh header.
// Unflushed buffered records are discarded — the checkpointed base
// supersedes them.
func (l *Log) resetLocked(states []TableState) error {
	if l.closed {
		return ErrClosed
	}
	l.w.Reset(l.f)
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		return err
	}
	hdr := encodeHeader(states)
	if _, err := l.w.Write(hdr); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size = int64(len(hdr))
	l.dirty = false
	return nil
}

// Size reports the current log file size, used to decide when to
// checkpoint.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats snapshots log activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	size, seq := l.size, l.seq
	l.mu.Unlock()
	l.syncMu.Lock()
	synced := l.syncedSeq
	l.syncMu.Unlock()
	return Stats{
		Commits:      l.nCommits.Load(),
		Syncs:        l.nSyncs.Load(),
		GroupedWaits: l.nGroupedWaits.Load(),
		Records:      l.nRecords.Load(),
		Bytes:        l.nBytes.Load(),
		PageImages:   l.nPageImages.Load(),
		Checkpoints:  l.nCheckpoints.Load(),
		SyncTimeouts: l.nSyncTimeouts.Load(),
		Size:         size,
		LastSeq:      seq,
		SyncedSeq:    synced,
		Policy:       l.policy.String(),
	}
}

// tickLoop drives ModeInterval background fsyncs until Close.
func (l *Log) tickLoop() {
	defer close(l.tickerDone)
	t := time.NewTicker(l.policy.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopTicker:
			return
		case <-t.C:
			if err := l.Sync(); err != nil && !errors.Is(err, ErrClosed) {
				l.syncMu.Lock()
				if l.syncErr == nil {
					l.syncErr = err
				}
				l.syncMu.Unlock()
			}
		}
	}
}

// Close flushes, fsyncs, and closes the log file. Waiters blocked in
// WaitDurable are released with ErrClosed unless already satisfied.
// Close is idempotent.
func (l *Log) Close() error {
	l.closeOnce.Do(func() { l.closeErr = l.doClose() })
	return l.closeErr
}

func (l *Log) doClose() error {
	if l.stopTicker != nil {
		close(l.stopTicker)
		<-l.tickerDone
	}
	_, err := l.flushAndSync()
	l.mu.Lock()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	l.syncMu.Lock()
	if l.syncErr == nil {
		l.syncErr = ErrClosed
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return err
}
