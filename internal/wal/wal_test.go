package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// memApplier records everything replay delivers, in order.
type memApplier struct {
	ops    []Op
	images []struct {
		table string
		page  int64
		data  []byte
	}
	failAfterOps int // when > 0, ApplyOp fails once this many ops applied
}

func (m *memApplier) ApplyOp(op Op) error {
	if m.failAfterOps > 0 && len(m.ops) >= m.failAfterOps {
		return fmt.Errorf("applier: injected failure after %d ops", m.failAfterOps)
	}
	// Copy Data: replay hands out slices of the file image.
	if op.Data != nil {
		op.Data = append([]byte(nil), op.Data...)
	}
	m.ops = append(m.ops, op)
	return nil
}

func (m *memApplier) ApplyPageImage(table string, page int64, data []byte) error {
	m.images = append(m.images, struct {
		table string
		page  int64
		data  []byte
	}{table, page, append([]byte(nil), data...)})
	return nil
}

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal")
}

func mustCreate(t *testing.T, path string, states []TableState, p SyncPolicy) *Log {
	t.Helper()
	l, err := Create(path, states, p)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return l
}

func TestRoundTrip(t *testing.T) {
	path := logPath(t)
	states := []TableState{{Name: "T", Pages: 3}, {Name: "U", Pages: 0}}
	l := mustCreate(t, path, states, Grouped())

	b := l.NewBatch()
	b.Insert("T", 2, 5, []byte("hello"))
	b.Update("T", 0, 1, []byte("world"))
	b.Delete("U", 1, 7)
	seq, err := l.Commit(b)
	if err != nil || seq != 1 {
		t.Fatalf("Commit = %d, %v", seq, err)
	}
	if err := l.WaitDurable(seq); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	img := bytes.Repeat([]byte{0xAB}, 4096)
	if err := l.PageImage("T", 1, img); err != nil {
		t.Fatalf("PageImage: %v", err)
	}
	b2 := l.NewBatch()
	b2.Insert("U", 0, 0, []byte("x"))
	seq2, err := l.Commit(b2)
	if err != nil || seq2 != 2 {
		t.Fatalf("Commit 2 = %d, %v", seq2, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var a memApplier
	st, err := Replay(path, &a)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.Statements != 2 || st.Ops != 4 || st.PageImages != 1 || st.DiscardedBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Header) != 2 || st.Header[0] != states[0] || st.Header[1] != states[1] {
		t.Fatalf("header = %+v", st.Header)
	}
	if len(a.ops) != 4 {
		t.Fatalf("ops = %+v", a.ops)
	}
	if !a.ops[0].IsInsert() || a.ops[0].Table != "T" || a.ops[0].Page != 2 ||
		a.ops[0].Slot != 5 || string(a.ops[0].Data) != "hello" {
		t.Fatalf("op0 = %+v", a.ops[0])
	}
	if !a.ops[1].IsUpdate() || string(a.ops[1].Data) != "world" {
		t.Fatalf("op1 = %+v", a.ops[1])
	}
	if !a.ops[2].IsDelete() || a.ops[2].Table != "U" || a.ops[2].Data != nil {
		t.Fatalf("op2 = %+v", a.ops[2])
	}
	if len(a.images) != 1 || a.images[0].page != 1 || !bytes.Equal(a.images[0].data, img) {
		t.Fatalf("images = %d", len(a.images))
	}
	if st.MaxPage["T"] != 2 || st.MaxPage["U"] != 1 {
		t.Fatalf("MaxPage = %v", st.MaxPage)
	}
}

func TestEmptyBatchCommitsAsZero(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, nil, Grouped())
	seq, err := l.Commit(l.NewBatch())
	if err != nil || seq != 0 {
		t.Fatalf("Commit(empty) = %d, %v", seq, err)
	}
	if err := l.WaitDurable(0); err != nil {
		t.Fatalf("WaitDurable(0): %v", err)
	}
	if got := l.Size(); got != int64(len(encodeHeader(nil))) {
		t.Fatalf("empty commit grew the log to %d bytes", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestTornTailFailsClosed truncates the log at every possible byte
// length and checks replay applies a prefix of whole statements —
// never part of one — and never errors.
func TestTornTailFailsClosed(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, []TableState{{Name: "T", Pages: 1}}, Grouped())
	for i := 0; i < 5; i++ {
		b := l.NewBatch()
		b.Insert("T", int64(i), 0, []byte{byte(i), byte(i)})
		b.Delete("T", int64(i), 1)
		if _, err := l.Commit(b); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		var a memApplier
		st, err := ReplayBytes(full[:cut], &a)
		if cut < headerLen(t, full) {
			if err == nil {
				t.Fatalf("cut=%d: corrupt header accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if st.Ops%2 != 0 || len(a.ops)%2 != 0 {
			t.Fatalf("cut=%d: half a statement applied (%d ops)", cut, len(a.ops))
		}
		if int64(len(a.ops)) != st.Ops {
			t.Fatalf("cut=%d: stats/applier disagree", cut)
		}
		want := int64(len(full[:cut])) // discarded + applied prefix cover the input
		if st.DiscardedBytes < 0 || st.DiscardedBytes > want {
			t.Fatalf("cut=%d: DiscardedBytes=%d", cut, st.DiscardedBytes)
		}
	}
}

// TestBitFlipFailsClosed flips one byte at every offset of a valid log
// and checks replay still applies only whole statements.
func TestBitFlipFailsClosed(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, []TableState{{Name: "T", Pages: 1}}, Grouped())
	for i := 0; i < 3; i++ {
		b := l.NewBatch()
		b.Insert("T", int64(i), 0, []byte("abcdef"))
		if _, err := l.Commit(b); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x40
		var a memApplier
		st, err := ReplayBytes(mut, &a)
		if err != nil {
			continue // corrupt header: refused outright, nothing applied
		}
		if len(a.ops) != int(st.Ops) || st.Ops > 3 {
			t.Fatalf("off=%d: stats=%+v ops=%d", off, st, len(a.ops))
		}
		for _, op := range a.ops {
			// Any op that survives must be byte-perfect: its CRC held.
			if op.Table != "T" || string(op.Data) != "abcdef" {
				t.Fatalf("off=%d: corrupted op applied: %+v", off, op)
			}
		}
	}
}

func headerLen(t *testing.T, full []byte) int {
	t.Helper()
	_, off, err := decodeHeader(full)
	if err != nil {
		t.Fatalf("decodeHeader on valid log: %v", err)
	}
	return int(off)
}

func TestApplierErrorAborts(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, nil, Grouped())
	b := l.NewBatch()
	b.Insert("T", 0, 0, []byte("a"))
	b.Insert("T", 0, 1, []byte("b"))
	if _, err := l.Commit(b); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	a := &memApplier{failAfterOps: 1}
	if _, err := Replay(path, a); err == nil {
		t.Fatal("applier error swallowed")
	}
}

func TestCheckpointTruncatesAndReleasesWaiters(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, []TableState{{Name: "T", Pages: 1}}, Grouped())
	for i := 0; i < 10; i++ {
		b := l.NewBatch()
		b.Insert("T", 0, i, []byte("payload"))
		if _, err := l.Commit(b); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Size()
	newStates := []TableState{{Name: "T", Pages: 4}}
	if err := l.Checkpoint(newStates); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if after := l.Size(); after >= before {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d", before, after)
	}
	// Replaying the truncated log yields the new base and nothing else.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var a memApplier
	st, err := Replay(path, &a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Statements != 0 || len(st.Header) != 1 || st.Header[0].Pages != 4 {
		t.Fatalf("post-checkpoint stats = %+v", st)
	}
}

// TestGroupCommit drives many goroutines through commit+wait and checks
// the fsync count stays well below the commit count (the whole point of
// group commit), with every waiter satisfied.
func TestGroupCommit(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, nil, Grouped())
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b := l.NewBatch()
				b.Insert("T", int64(w), i, []byte("tuple"))
				seq, err := l.Commit(b)
				if err == nil {
					err = l.WaitDurable(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker: %v", err)
	}
	st := l.Stats()
	if st.Commits != workers*per {
		t.Fatalf("commits = %d", st.Commits)
	}
	if st.SyncedSeq < uint64(workers*per) {
		t.Fatalf("synced watermark %d below last commit %d", st.SyncedSeq, workers*per)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var a memApplier
	rst, err := Replay(path, &a)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Statements != workers*per {
		t.Fatalf("replayed %d of %d statements", rst.Statements, workers*per)
	}
}

// TestGroupCommitAmortizes proves one fsync covers every commit that
// was appended before the barrier: ten commits, then a single wait on
// the last sequence, costs exactly one fsync, and waiting on earlier
// sequences afterwards costs none.
func TestGroupCommitAmortizes(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, nil, Grouped())
	var last uint64
	for i := 0; i < 10; i++ {
		b := l.NewBatch()
		b.Insert("T", 0, i, []byte("row"))
		seq, err := l.Commit(b)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if got := l.Stats().Syncs; got != 0 {
		t.Fatalf("commit alone fsynced (%d times)", got)
	}
	if err := l.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != 1 {
		t.Fatalf("one barrier took %d fsyncs", got)
	}
	for seq := uint64(1); seq < last; seq++ {
		if err := l.WaitDurable(seq); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Syncs != 1 {
		t.Fatalf("already-durable waits re-synced: %d fsyncs", st.Syncs)
	}
	if st.GroupedWaits == 0 {
		t.Fatal("no grouped waits recorded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotentAndClosedErrors(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, nil, Grouped())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Commit(func() *Batch { b := l.NewBatch(); b.Delete("T", 0, 0); return b }()); err != ErrClosed {
		t.Fatalf("Commit after Close = %v", err)
	}
	if err := l.PageImage("T", 0, make([]byte, 8)); err != ErrClosed {
		t.Fatalf("PageImage after Close = %v", err)
	}
}

// runLog writes a log of n statements, each two insert-run records (a
// statement that touched two pages) of three and two 4-byte tuples, and
// returns its bytes.
func runLog(t testing.TB, n int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Create(path, []TableState{{Name: "T", Pages: 1}}, Grouped())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b := l.NewBatch()
		b.InsertRun("T", int64(2*i), 4, 3, []byte("aaaabbbbcccc"))
		b.InsertRun("T", int64(2*i+1), 0, 2, []byte("ddddeeee"))
		if _, err := l.Commit(b); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// TestInsertRunRoundTrip: an insert run replays as one op carrying its
// first slot, its count and every image.
func TestInsertRunRoundTrip(t *testing.T) {
	var a memApplier
	st, err := ReplayBytes(runLog(t, 1), &a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Statements != 1 || st.Ops != 2 || st.DiscardedBytes != 0 || st.MaxPage["T"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if op := a.ops[0]; !op.IsInsert() || op.Page != 0 || op.Slot != 4 || op.Count != 3 || string(op.Data) != "aaaabbbbcccc" {
		t.Fatalf("op0 = %+v", op)
	}
	if op := a.ops[1]; !op.IsInsert() || op.Page != 1 || op.Slot != 0 || op.Count != 2 || string(op.Data) != "ddddeeee" {
		t.Fatalf("op1 = %+v", op)
	}
}

// TestTornOrFlippedRunDiscardsItsStatement: cut the log at every length and
// flip a bit at every offset — a statement whose run record is torn or
// damaged is discarded whole, with everything after it, and every run that
// is applied is byte-perfect.
func TestTornOrFlippedRunDiscardsItsStatement(t *testing.T) {
	full := runLog(t, 3)
	check := func(what string, raw []byte) {
		var a memApplier
		st, err := ReplayBytes(raw, &a)
		if err != nil {
			return // corrupt header: refused outright, nothing applied
		}
		if len(a.ops) != int(st.Ops) || st.Ops != 2*st.Statements || st.Statements > 3 {
			t.Fatalf("%s: half a statement applied: %+v, %d ops", what, st, len(a.ops))
		}
		for i, op := range a.ops {
			want := Op{Type: recInsertRun, Table: "T", Page: int64(i), Slot: 4, Count: 3, Data: []byte("aaaabbbbcccc")}
			if i%2 == 1 {
				want.Slot, want.Count, want.Data = 0, 2, []byte("ddddeeee")
			}
			if op.Type != want.Type || op.Table != want.Table || op.Page != want.Page || op.Slot != want.Slot ||
				op.Count != want.Count || !bytes.Equal(op.Data, want.Data) {
				t.Fatalf("%s: damaged run applied: %+v, want %+v", what, op, want)
			}
		}
	}
	for cut := headerLen(t, full); cut <= len(full); cut++ {
		check(fmt.Sprintf("cut=%d", cut), full[:cut])
	}
	for off := 0; off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x04
		check(fmt.Sprintf("flip at %d", off), mut)
	}
}
