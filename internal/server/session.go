package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Admission errors, mapped to 503 by the handlers.
var (
	// ErrQueueTimeout reports that no execution slot freed up within the
	// admission queue timeout.
	ErrQueueTimeout = errors.New("server: admission queue timeout")
	// ErrDraining reports that the server is shutting down and admits no
	// new statements.
	ErrDraining = errors.New("server: draining, not admitting new statements")
)

// admission is a bounded concurrent-statement semaphore with a queue
// timeout. At most cap(slots) statements execute at once; excess requests
// wait in line up to the configured timeout, then fail fast with a 503 so
// load sheds at the door instead of piling onto the engine's locks.
type admission struct {
	slots  chan struct{}
	queued atomic.Int64

	mu       sync.Mutex // guards draining vs. inflight.Add
	draining bool
	inflight sync.WaitGroup
}

func newAdmission(maxConcurrent int) *admission {
	return &admission{slots: make(chan struct{}, maxConcurrent)}
}

// acquire claims an execution slot, waiting at most timeout. It fails
// with ErrQueueTimeout when the line is too slow, ErrDraining when the
// server is shutting down, or the context's error when the client gave up
// while queued. On success the caller must release().
func (a *admission) acquire(ctx context.Context, timeout time.Duration) error {
	a.mu.Lock()
	draining := a.draining
	a.mu.Unlock()
	if draining {
		return ErrDraining
	}
	a.queued.Add(1)
	defer a.queued.Add(-1)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
	case <-timer.C:
		return ErrQueueTimeout
	case <-ctx.Done():
		return ctx.Err()
	}
	// The slot is held; re-check draining under the lock so inflight.Add
	// can never race a Wait that drain() already started.
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		<-a.slots
		return ErrDraining
	}
	a.inflight.Add(1)
	a.mu.Unlock()
	return nil
}

// release returns a slot claimed by acquire.
func (a *admission) release() {
	<-a.slots
	a.inflight.Done()
}

// beginDrain stops admitting new statements. Idempotent.
func (a *admission) beginDrain() {
	a.mu.Lock()
	a.draining = true
	a.mu.Unlock()
}

// wait blocks until every admitted statement released its slot.
func (a *admission) wait() { a.inflight.Wait() }

// snapshot reports (active, queued, draining) for /status and /metrics.
func (a *admission) snapshot() (int, int, bool) {
	a.mu.Lock()
	draining := a.draining
	a.mu.Unlock()
	return len(a.slots), int(a.queued.Load()), draining
}

// session is one admitted in-flight statement.
type session struct {
	id     int64
	kind   string // "query" or "exec"
	sql    string
	start  time.Time
	cancel context.CancelFunc
}

// sessionTable tracks in-flight statements so /status can list them and a
// timed-out shutdown can cancel their contexts.
type sessionTable struct {
	mu   sync.Mutex
	next int64
	m    map[int64]*session
}

func newSessionTable() *sessionTable {
	return &sessionTable{m: make(map[int64]*session)}
}

// add registers a statement and returns its session.
func (st *sessionTable) add(kind, sql string, cancel context.CancelFunc) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	s := &session{id: st.next, kind: kind, sql: sql, start: time.Now(), cancel: cancel}
	st.m[s.id] = s
	return s
}

// remove deregisters a finished statement.
func (st *sessionTable) remove(s *session) {
	st.mu.Lock()
	delete(st.m, s.id)
	st.mu.Unlock()
}

// cancelAll cancels the context of every live session (forced shutdown).
func (st *sessionTable) cancelAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range st.m {
		s.cancel()
	}
}

// list snapshots the live sessions in id order for /status.
func (st *sessionTable) list() []SessionStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SessionStatus, 0, len(st.m))
	for _, s := range st.m {
		out = append(out, SessionStatus{
			ID:            s.id,
			Kind:          s.kind,
			SQL:           s.sql,
			ElapsedMicros: time.Since(s.start).Microseconds(),
		})
	}
	sortSessions(out)
	return out
}

func sortSessions(s []SessionStatus) {
	for i := 1; i < len(s); i++ { // tiny n: insertion sort, no sort import
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// metrics holds the server's lifetime counters (atomics: bumped on hot
// paths, snapshotted lock-free by /metrics and /status).
type metrics struct {
	queries           atomic.Int64
	execs             atomic.Int64
	errors            atomic.Int64
	cancelled         atomic.Int64
	rowsStreamed      atomic.Int64
	admissionTimeouts atomic.Int64
	admissionRejected atomic.Int64
	watchdogCancels   atomic.Int64
	idemReplays       atomic.Int64
}

func (m *metrics) totals() TotalsStatus {
	return TotalsStatus{
		Queries:           m.queries.Load(),
		Execs:             m.execs.Load(),
		Errors:            m.errors.Load(),
		Cancelled:         m.cancelled.Load(),
		RowsStreamed:      m.rowsStreamed.Load(),
		AdmissionTimeouts: m.admissionTimeouts.Load(),
		AdmissionRejected: m.admissionRejected.Load(),
		WatchdogCancels:   m.watchdogCancels.Load(),
		IdempotentReplays: m.idemReplays.Load(),
	}
}
