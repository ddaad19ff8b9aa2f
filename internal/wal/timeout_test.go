package wal

import (
	"errors"
	"testing"
	"time"
)

// TestFollowerWaitTimesOut proves a stalled group-commit leader cannot
// hang followers forever: with the sync token held (as a leader stuck
// in fsync would hold it), WaitDurable gives up with ErrSyncTimeout
// within the policy bound instead of blocking on the condvar.
func TestFollowerWaitTimesOut(t *testing.T) {
	path := logPath(t)
	policy := SyncPolicy{SyncTimeout: 50 * time.Millisecond}
	l := mustCreate(t, path, nil, policy)
	defer l.Close()

	b := l.NewBatch()
	b.Insert("T", 0, 0, []byte("tuple"))
	seq, err := l.Commit(b)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a leader stalled inside fsync: it holds the sync token
	// and never broadcasts.
	l.syncMu.Lock()
	l.syncing = true
	l.syncMu.Unlock()

	start := time.Now()
	err = l.WaitDurable(seq)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrSyncTimeout) {
		t.Fatalf("WaitDurable under stalled leader: got %v, want ErrSyncTimeout", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("follower took %s to give up, bound was 50ms", elapsed)
	}
	if st := l.Stats(); st.SyncTimeouts != 1 {
		t.Fatalf("SyncTimeouts = %d, want 1", st.SyncTimeouts)
	}

	// Once the stall clears, the same wait succeeds (the waiter becomes
	// leader and fsyncs) — the timeout is not sticky.
	l.syncMu.Lock()
	l.syncing = false
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if err := l.WaitDurable(seq); err != nil {
		t.Fatalf("WaitDurable after stall cleared: %v", err)
	}
}
