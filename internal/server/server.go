package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"sma"
	"sma/internal/obs"
)

// Config tunes a Server. The zero value picks sensible defaults.
type Config struct {
	// MaxConcurrent bounds the statements executing at once (queries and
	// DML alike). Excess requests queue. Default: 2 × GOMAXPROCS.
	MaxConcurrent int
	// QueueTimeout bounds how long a request waits for an execution slot
	// before a 503. Default 2s.
	QueueTimeout time.Duration
	// StatementDeadline bounds every statement's execution, even one whose
	// client is still connected and that carried no deadline of its own:
	// it is a context deadline beside the request's timeout_ms and
	// deadline_ms, the earliest wins, and a statement it stops answers 504
	// and counts in watchdog_cancels. 0 (default) means no server bound.
	StatementDeadline time.Duration
	// Logger receives the server's structured request log: one record per
	// statement with its query id, route, status, duration, and row count.
	// nil discards the records; metrics accumulate either way.
	Logger *slog.Logger
}

const (
	// flushEveryRows is the row-frame interval between explicit flushes of
	// a /query stream (the header and trailer always flush).
	flushEveryRows = 64
	// idempotencyCapacity bounds the /exec idempotency-key table; oldest
	// completed entries are evicted first.
	idempotencyCapacity = 4096
)

// errStatementDeadline is the cause of a statement context that
// Config.StatementDeadline expired, telling the server's bound apart from
// the request's own.
var errStatementDeadline = errors.New("server: statement deadline exceeded")

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	return c
}

// Server serves one sma.DB over HTTP. Create with New, mount Handler on
// an http.Server, and call Shutdown before closing the database.
type Server struct {
	db       *sma.DB
	cfg      Config
	start    time.Time
	adm      *admission
	sessions *sessionTable
	idem     *idempotency
	m        metrics
	log      *slog.Logger

	// reg is the server-side metric registry: request totals, admission
	// and session gauges, and per-route latency histograms. /metrics
	// renders it followed by the database's engine-side registry.
	reg        *obs.Registry
	reqSeconds *obs.HistogramVec
}

// New wraps a database in a query server. The Server does not own the DB:
// the caller closes it after Shutdown has drained the in-flight cursors.
func New(db *sma.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:       db,
		cfg:      cfg,
		start:    time.Now(),
		adm:      newAdmission(cfg.MaxConcurrent),
		sessions: newSessionTable(),
		idem:     newIdempotency(idempotencyCapacity),
		log:      cfg.Logger,
	}
	if s.log == nil {
		s.log = obs.DiscardLogger()
	}
	s.registerMetrics()
	return s
}

// registerMetrics builds the server registry. The request totals stay in
// atomics (the /status snapshot reads them too) and are exported as
// CounterFuncs; gauges sample the admission gate at render time.
func (s *Server) registerMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	fromAtomic := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	fromAtomic("sma_queries_total", "Queries admitted for execution.", &s.m.queries)
	fromAtomic("sma_execs_total", "DDL/DML statements admitted for execution.", &s.m.execs)
	fromAtomic("sma_errors_total", "Statements that failed after admission.", &s.m.errors)
	fromAtomic("sma_queries_cancelled_total", "Statements aborted by client disconnect or deadline.", &s.m.cancelled)
	fromAtomic("sma_rows_streamed_total", "Result rows written to /query streams.", &s.m.rowsStreamed)
	fromAtomic("sma_admission_timeouts_total", "Requests that timed out waiting for a slot.", &s.m.admissionTimeouts)
	fromAtomic("sma_admission_rejected_total", "Requests rejected because the server was draining.", &s.m.admissionRejected)
	fromAtomic("sma_watchdog_cancels_total", "Statements stopped by the server's statement deadline.", &s.m.watchdogCancels)
	fromAtomic("sma_exec_idempotent_replays_total", "Keyed /exec duplicates answered from the recorded response.", &s.m.idemReplays)
	r.GaugeFunc("sma_sessions_active", "Statements currently executing.", func() float64 {
		active, _, _ := s.adm.snapshot()
		return float64(active)
	})
	r.GaugeFunc("sma_sessions_queued", "Requests waiting for an execution slot.", func() float64 {
		_, queued, _ := s.adm.snapshot()
		return float64(queued)
	})
	r.GaugeFunc("sma_sessions_max", "Admission-control concurrency bound.", func() float64 {
		return float64(s.cfg.MaxConcurrent)
	})
	r.GaugeFunc("sma_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	s.reqSeconds = r.HistogramVec("sma_server_request_seconds",
		"HTTP request latency by route.", obs.DefSecondsBuckets(), "route")
}

// Handler returns the server's route table. Every route is wrapped in
// the per-route latency observer.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.timed("query", s.handleQuery))
	mux.HandleFunc("POST /exec", s.timed("exec", s.handleExec))
	mux.HandleFunc("GET /status", s.timed("status", s.handleStatus))
	mux.HandleFunc("GET /metrics", s.timed("metrics", s.handleMetrics))
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// handleLivez answers 200 while the process can serve HTTP at all — the
// restart-me probe. It stays 200 even degraded or draining: restarting
// would not help either condition.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// handleReadyz answers 200 while the server accepts new statements — the
// route-traffic-here probe. Readiness drops while draining (Shutdown
// began) and while the database is degraded to read-only after detected
// corruption. Recovery replay happens inside sma.Open before this
// handler can exist, so during replay probes fail at the connection
// level, which is the correct "not ready yet" signal.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	_, _, draining := s.adm.snapshot()
	degErr := s.db.Degraded()
	if !draining && degErr == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
		return
	}
	body := ErrorResponse{Degraded: degErr != nil}
	switch {
	case draining:
		body.Error = "draining"
	default:
		body.Error = degErr.Error()
	}
	s.writeJSON(w, http.StatusServiceUnavailable, &body)
}

// timed observes a route's request latency into sma_server_request_seconds.
func (s *Server) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reqSeconds.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.ObserveDuration(time.Since(start))
	}
}

// Shutdown stops admitting new statements and blocks until every
// in-flight statement finished and released its cursor (the graceful
// drain contract). If ctx expires first, the remaining sessions'
// contexts are cancelled — the engine aborts them at the next bucket or
// page boundary — and Shutdown still waits for them to unwind before
// returning ctx's error, so the caller can always Close the database
// immediately after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.adm.beginDrain()
	done := make(chan struct{})
	go func() {
		s.adm.wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.sessions.cancelAll()
		<-done
		return ctx.Err()
	}
}

// admit runs the admission gate, answering 503 with Retry-After when the
// request cannot get a slot. ok=false means the response was written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	err := s.adm.acquire(r.Context(), s.cfg.QueueTimeout)
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrQueueTimeout):
		s.m.admissionTimeouts.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrDraining):
		s.m.admissionRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, err)
	default: // client went away while queued
		s.m.cancelled.Add(1)
	}
	return false
}

// statementContext derives the execution context of one statement: the
// request context (cancelled by client disconnect) bounded by the earliest
// of the request's timeout_ms, its absolute deadline_ms and the server's
// StatementDeadline, registered in the session table so a forced shutdown
// can cancel it. Only the server's bound sets errStatementDeadline as the
// cause.
func (s *Server) statementContext(r *http.Request, timeoutMillis, deadlineMillis int64, kind, sql string) (context.Context, *session, context.CancelFunc) {
	now := time.Now()
	var deadline time.Time
	var cause error
	bound := func(t time.Time, c error) {
		if deadline.IsZero() || t.Before(deadline) {
			deadline, cause = t, c
		}
	}
	if timeoutMillis > 0 {
		bound(now.Add(time.Duration(timeoutMillis)*time.Millisecond), nil)
	}
	if deadlineMillis > 0 {
		bound(time.UnixMilli(deadlineMillis), nil)
	}
	if d := s.cfg.StatementDeadline; d > 0 {
		bound(now.Add(d), errStatementDeadline)
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline.IsZero() {
		ctx, cancel = context.WithCancel(r.Context())
	} else {
		ctx, cancel = context.WithDeadlineCause(r.Context(), deadline, cause)
	}
	sess := s.sessions.add(kind, sql, cancel)
	return ctx, sess, cancel
}

// noteDeadline counts a statement in watchdog_cancels when err ended it
// because the server's StatementDeadline expired. Each statement calls it
// once, with the error it ended with, before that error is answered.
func (s *Server) noteDeadline(ctx context.Context, err error) {
	if isCancel(err) && errors.Is(context.Cause(ctx), errStatementDeadline) {
		s.m.watchdogCancels.Add(1)
		s.log.Warn("statement deadline exceeded", "deadline", s.cfg.StatementDeadline)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeQueryRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.adm.release()
	s.m.queries.Add(1)

	ctx, sess, cancel := s.statementContext(r, req.TimeoutMillis, req.DeadlineMillis, "query", req.SQL)
	defer cancel()
	defer s.sessions.remove(sess)

	var opts []sma.QueryOption
	if req.DOP > 0 {
		opts = append(opts, sma.WithQueryParallelism(req.DOP))
	}
	if req.Trace {
		opts = append(opts, sma.WithQueryTrace())
	}
	start := time.Now()
	rows, err := s.db.QueryContext(ctx, req.SQL, opts...)
	if err != nil {
		s.noteDeadline(ctx, err)
		s.log.Warn("query rejected", "err", err)
		s.writeError(w, statusFor(err), err)
		return
	}
	defer rows.Close()
	count, err := s.streamRows(ctx, w, rows, req.Trace)
	s.log.Debug("query", "qid", rows.QueryID(), "strategy", rows.Strategy(),
		"dur", time.Since(start), "rows", count, "err", err)
}

// streamRows writes the NDJSON frame stream of one query, returning the
// row count for the request log and the error that ended the stream. Once
// the header frame is out the HTTP status is committed, so later failures
// travel as in-band error frames.
func (s *Server) streamRows(ctx context.Context, w http.ResponseWriter, rows *sma.Rows, traced bool) (int64, error) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}

	types := rows.ColumnTypes()
	header := &QueryHeader{
		Columns:     rows.Columns(),
		Types:       make([]string, len(types)),
		Strategy:    rows.Strategy(),
		Parallelism: rows.Parallelism(),
		QueryID:     rows.QueryID(),
	}
	for i, t := range types {
		header.Types[i] = t.String()
	}
	enc.Encode(Frame{Header: header})
	flush()

	var count int64
	for rows.Next() {
		vals, err := rows.RowStrings()
		if err != nil {
			s.m.rowsStreamed.Add(count)
			return count, s.streamError(ctx, bw, flush, err)
		}
		enc.Encode(Frame{Row: vals})
		count++
		if count%flushEveryRows == 0 {
			flush()
			// The engine checks the context at page boundaries, but rows
			// already resident never hit one: surface a client disconnect
			// or deadline here as an in-band error, never as a truncated
			// stream under a success trailer.
			if err := ctx.Err(); err != nil {
				s.m.rowsStreamed.Add(count)
				return count, s.streamError(ctx, bw, flush, err)
			}
		}
	}
	s.m.rowsStreamed.Add(count)
	if err := rows.Err(); err != nil {
		return count, s.streamError(ctx, bw, flush, err)
	}
	if traced {
		if node := rows.Trace(); node != nil {
			enc.Encode(Frame{Trace: node})
		}
	}
	trailer := &QueryTrailer{RowCount: count, ElapsedMicros: time.Since(start).Microseconds()}
	if qs, ok := rows.Stats(); ok {
		trailer.Stats = &WireQueryStats{
			QualifyingBuckets:    qs.QualifyingBuckets,
			DisqualifyingBuckets: qs.DisqualifyingBuckets,
			AmbivalentBuckets:    qs.AmbivalentBuckets,
			PagesRead:            qs.PagesRead,
			Batches:              qs.Batches,
			PagesPrefetched:      qs.PagesPrefetched,
			PrefetchHits:         qs.PrefetchHits,
		}
	}
	enc.Encode(Frame{Trailer: trailer})
	flush()
	return count, nil
}

// streamError terminates a committed stream with an in-band error frame,
// returning err. A deadline is counted before the frame is written, so a
// client that reads the frame and then asks /status sees it.
func (s *Server) streamError(ctx context.Context, bw *bufio.Writer, flush func(), err error) error {
	s.noteDeadline(ctx, err)
	if isCancel(err) {
		s.m.cancelled.Add(1)
	} else {
		s.m.errors.Add(1)
	}
	json.NewEncoder(bw).Encode(Frame{Error: err.Error()})
	flush()
	return err
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeExecRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Idempotency: duplicates of a keyed statement never reach the
	// engine — they wait for the first attempt and replay its recorded
	// response, so a client may retry an Exec it lost the answer to
	// without risking a second execution.
	var entry *idemEntry
	if req.IdempotencyKey != "" {
		var leader bool
		entry, leader = s.idem.begin(req.IdempotencyKey)
		if !leader {
			s.replayExec(w, r, entry)
			return
		}
	}
	if !s.admit(w, r) {
		if entry != nil {
			// Never executed: release the key so a retry gets a fresh run.
			s.idem.abandon(entry, idemResult{
				status:  http.StatusServiceUnavailable,
				errBody: &ErrorResponse{Error: "statement was shed before execution; retry"},
			})
		}
		return
	}
	defer s.adm.release()
	s.m.execs.Add(1)

	ctx, sess, cancel := s.statementContext(r, req.TimeoutMillis, req.DeadlineMillis, "exec", req.SQL)
	defer cancel()
	defer s.sessions.remove(sess)

	start := time.Now()
	res, err := s.db.ExecContext(ctx, req.SQL)
	s.noteDeadline(ctx, err)
	if err != nil {
		status, body := statusFor(err), s.errorBody(err)
		if entry != nil {
			s.idem.finish(entry, idemResult{status: status, errBody: body})
		}
		s.writeJSON(w, status, body)
		return
	}
	resp := &ExecResponse{
		Kind:          res.Kind,
		Table:         res.Table,
		RowsAffected:  res.RowsAffected,
		ElapsedMicros: time.Since(start).Microseconds(),
		WALBytes:      res.WALBytes,
		WALSyncs:      res.WALSyncs,
	}
	if res.SMAName != "" {
		resp.SMA = &SMAResult{
			Name:    res.SMAName,
			Buckets: res.SMABuckets,
			Files:   res.SMAFiles,
			Pages:   res.SMAPages,
		}
	}
	if entry != nil {
		s.idem.finish(entry, idemResult{status: http.StatusOK, resp: resp})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// replayExec answers a duplicate keyed /exec from the recorded outcome
// of the first attempt, waiting for it if still in flight.
func (s *Server) replayExec(w http.ResponseWriter, r *http.Request, entry *idemEntry) {
	select {
	case <-entry.done:
	case <-r.Context().Done():
		s.m.cancelled.Add(1)
		return
	}
	s.m.idemReplays.Add(1)
	res := s.idem.result(entry)
	if res.errBody != nil {
		s.writeJSON(w, res.status, res.errBody)
		return
	}
	s.writeJSON(w, res.status, res.resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	active, queued, draining := s.adm.snapshot()
	health := HealthStatus{Ready: !draining, Draining: draining}
	if degErr := s.db.Degraded(); degErr != nil {
		health.Ready = false
		health.Degraded = true
		health.DegradedErr = degErr.Error()
		health.CorruptPages = s.db.CorruptPages()
	}
	if rep := s.db.LastScrub(); rep != nil {
		health.LastScrub = &ScrubStatus{
			StartUnixMillis: rep.Start.UnixMilli(),
			DurationMicros:  rep.Duration.Microseconds(),
			PagesScanned:    rep.PagesScanned,
			SMAsChecked:     rep.SMAsChecked,
			CorruptPages:    len(rep.Corrupt),
			Errors:          len(rep.Errors),
			Clean:           rep.Clean(),
		}
	}
	resp := &StatusResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Health:        health,
		Tables:        []TableStatus{},
		Admission: AdmissionStatus{
			Active:             active,
			Queued:             queued,
			MaxConcurrent:      s.cfg.MaxConcurrent,
			QueueTimeoutMillis: s.cfg.QueueTimeout.Milliseconds(),
			Draining:           draining,
		},
		Sessions: s.sessions.list(),
		Totals:   s.m.totals(),
	}
	for _, ti := range s.db.Tables() {
		ts := TableStatus{
			Name:        ti.Name,
			Rows:        ti.Rows,
			Pages:       ti.Pages,
			Buckets:     ti.Buckets,
			BucketPages: ti.BucketPages,
		}
		for _, c := range ti.Columns {
			cs := ColumnStatus{Name: c.Name, Type: c.Type.String()}
			if c.Type == sma.TypeChar {
				cs.Len = c.Len
			}
			ts.Columns = append(ts.Columns, cs)
		}
		for _, sm := range ti.SMAs {
			ts.SMAs = append(ts.SMAs, SMAStatus{
				Name: sm.Name, SQL: sm.SQL,
				Files: sm.Files, Pages: sm.Pages, Buckets: sm.Buckets,
			})
		}
		resp.Tables = append(resp.Tables, ts)
	}
	ps := s.db.PoolStats()
	resp.Pool = PoolStatus{
		Hits:         ps.Hits,
		Misses:       ps.Misses,
		Evictions:    ps.Evictions,
		Prefetched:   ps.Prefetched,
		PrefetchHits: ps.PrefetchHits,
	}
	ws, rs := s.db.WALStats(), s.db.RecoveryStats()
	resp.WAL = WALStatus{
		SizeBytes:           ws.Size,
		Commits:             ws.Commits,
		Syncs:               ws.Syncs,
		GroupedWaits:        ws.GroupedWaits,
		PageImages:          ws.PageImages,
		Checkpoints:         ws.Checkpoints,
		Recovered:           rs.Performed,
		RecoveredStatements: rs.Statements,
		RecoveredOps:        rs.Ops,
		SMAsRebuilt:         rs.SMAsRebuilt,
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the server registry followed by the database's
// engine-side registry (query strategies, grading outcomes, buffer pool,
// storage latency, parallel skew). The family name spaces are disjoint,
// so the concatenation is itself a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	if err := s.reg.WritePrometheus(bw); err != nil {
		return // client went away mid-write; nothing to answer
	}
	if err := s.db.WritePrometheus(bw); err != nil {
		return
	}
	bw.Flush()
}

// writeJSON answers a JSON body with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// errorBody counts a failure and builds its JSON body, marking degraded
// failures so clients know the 503 is not retryable.
func (s *Server) errorBody(err error) *ErrorResponse {
	if isCancel(err) {
		s.m.cancelled.Add(1)
	} else {
		s.m.errors.Add(1)
	}
	return &ErrorResponse{Error: err.Error(), Degraded: errors.Is(err, sma.ErrDegraded)}
}

// writeError answers the JSON error body, counting it.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, s.errorBody(err))
}

// statusFor maps a pre-stream execution error to an HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, sma.ErrDegraded):
		// Unavailable, but marked degraded in the body: unlike admission
		// 503s this does not clear on its own, so clients must not retry.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusBadRequest // client is gone; status is moot
	default:
		return http.StatusBadRequest
	}
}

// isCancel reports whether err is a context cancellation or deadline.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
