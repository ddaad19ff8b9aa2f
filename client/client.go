// Package client is the Go client for the sma query server (cmd/smaserverd):
// it speaks the server's JSON-over-HTTP wire protocol — streaming NDJSON
// query results, DML execs with RowsAffected, and the /status snapshot.
//
// Typical use:
//
//	c := client.New("http://localhost:7421")
//	rows, _ := c.Query(ctx, "select REGION, sum(AMOUNT) as REV from SALES group by REGION")
//	defer rows.Close()
//	for rows.Next() {
//	    fmt.Println(rows.Row()) // rendered display strings, column order
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Row values arrive as the engine's rendered display strings — the same
// bytes sma.Collect produces in-process — so results are comparable across
// the wire byte for byte.
//
// # Retries
//
// The client retries transient failures by default: transport errors
// before any result bytes arrived, and 503 responses that are not marked
// degraded (admission shedding, draining). Backoff is exponential with
// jitter, capped at half a second. Queries are read-only and always safe
// to re-send; Exec is made safe by an idempotency token the client
// generates per call (crypto/rand) and re-sends on every retry — the
// server executes the statement at most once and replays the recorded
// response to duplicates. Degraded 503s are not retried: the database
// needs operator attention, not another attempt. WithRetries(1) disables
// retrying.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"time"
)

// Client talks to one sma query server. It is safe for concurrent use;
// each Query holds one HTTP connection open until its Rows is closed.
type Client struct {
	base        string
	hc          *http.Client
	attempts    int
	backoffBase time.Duration
	backoffCap  time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client (TLS config, timeouts,
// proxies). The default client has no overall timeout: query streams are
// long-lived by design and bounded server-side via WithTimeout.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries bounds a request to n attempts in total (default 5).
// WithRetries(1) disables retrying: every failure surfaces immediately.
func WithRetries(n int) Option {
	return func(c *Client) {
		if n < 1 {
			n = 1
		}
		c.attempts = n
	}
}

// New creates a client for a server base URL like "http://host:7421".
func New(base string, opts ...Option) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	c := &Client{
		base:        base,
		hc:          &http.Client{},
		attempts:    5,
		backoffBase: 25 * time.Millisecond,
		backoffCap:  500 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// queryRequest mirrors the server's /query body.
type queryRequest struct {
	SQL            string `json:"sql"`
	DOP            int    `json:"dop,omitempty"`
	TimeoutMillis  int64  `json:"timeout_ms,omitempty"`
	DeadlineMillis int64  `json:"deadline_ms,omitempty"`
	Trace          bool   `json:"trace,omitempty"`
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// QueryOption adjusts one Query or Exec request.
type QueryOption func(*queryRequest)

// WithDOP requests a degree of intra-query parallelism (0 = server
// default, 1 = serial).
func WithDOP(n int) QueryOption {
	return func(q *queryRequest) { q.DOP = n }
}

// WithTimeout asks the server to abort the statement after d. The clock
// restarts on every retry attempt; for a budget that spans retries use
// WithDeadline.
func WithTimeout(d time.Duration) QueryOption {
	return func(q *queryRequest) { q.TimeoutMillis = d.Milliseconds() }
}

// WithDeadline asks the server to abort the statement at an absolute
// wall-clock instant. Unlike WithTimeout, the deadline survives retries:
// each re-sent attempt carries the same instant, so the total budget —
// backoffs included — cannot exceed it.
func WithDeadline(t time.Time) QueryOption {
	return func(q *queryRequest) { q.DeadlineMillis = t.UnixMilli() }
}

// WithIdempotencyKey overrides the generated Exec idempotency token, for
// callers whose retries span processes (job queues, crash-restarted
// workers): re-running the statement under the same key replays the first
// execution's response instead of executing twice.
func WithIdempotencyKey(key string) QueryOption {
	return func(q *queryRequest) { q.IdempotencyKey = key }
}

// WithTrace asks the server for the query's trace, its record's phases as
// a tree; it arrives as a trace frame before the trailer and is available
// from Rows.Trace once the stream ends.
func WithTrace() QueryOption {
	return func(q *queryRequest) { q.Trace = true }
}

// Stats mirrors the engine's scan statistics reported in the trailer.
type Stats struct {
	QualifyingBuckets    int `json:"qualifying_buckets"`
	DisqualifyingBuckets int `json:"disqualifying_buckets"`
	AmbivalentBuckets    int `json:"ambivalent_buckets"`
	PagesRead            int `json:"pages_read"`
	Batches              int `json:"batches"`
	PagesPrefetched      int `json:"pages_prefetched"`
	PrefetchHits         int `json:"prefetch_hits"`
}

// TraceNode mirrors one node of the server's trace frame — the query, one
// of its phases, or a parallel worker under merge — with its wall time,
// counters and children. The qualify/disqualify/ambivalent counts use the
// paper's §3.1 bucket grading terminology.
type TraceNode struct {
	Name            string       `json:"name"`
	Note            string       `json:"note,omitempty"`
	DurMicros       int64        `json:"dur_us"`
	Rows            int64        `json:"rows,omitempty"`
	Batches         int64        `json:"batches,omitempty"`
	PagesRead       int64        `json:"pages_read,omitempty"`
	PagesPrefetched int64        `json:"pages_prefetched,omitempty"`
	PrefetchHits    int64        `json:"prefetch_hits,omitempty"`
	Qualify         int64        `json:"qualify,omitempty"`
	Disqualify      int64        `json:"disqualify,omitempty"`
	Ambivalent      int64        `json:"ambivalent,omitempty"`
	Children        []*TraceNode `json:"children,omitempty"`
}

// wire frame mirrors of the server's NDJSON stream.
type header struct {
	Columns     []string `json:"columns"`
	Types       []string `json:"types"`
	Strategy    string   `json:"strategy"`
	Parallelism int      `json:"parallelism"`
	QueryID     string   `json:"query_id"`
}

type trailer struct {
	RowCount      int64  `json:"row_count"`
	ElapsedMicros int64  `json:"elapsed_us"`
	Stats         *Stats `json:"stats,omitempty"`
}

type frame struct {
	Header  *header    `json:"header,omitempty"`
	Row     []string   `json:"row,omitempty"`
	Trace   *TraceNode `json:"trace,omitempty"`
	Trailer *trailer   `json:"trailer,omitempty"`
	Error   string     `json:"error,omitempty"`
}

// Rows is a streaming query result in the style of database/sql: Next
// until false, Row inside the loop, then Err and Close. The server holds
// the query's cursor (and the database read lock) until the stream ends
// or the connection closes, so close promptly.
type Rows struct {
	body  io.ReadCloser
	dec   *json.Decoder
	hdr   header
	row   []string
	trl   *trailer
	trace *TraceNode
	err   error
	done  bool
}

// Columns returns the output column names in select-list order.
func (r *Rows) Columns() []string { return r.hdr.Columns }

// Types names each column's value type ("int32", "int64", "float64",
// "date", "char"); aggregate columns report "float64".
func (r *Rows) Types() []string { return r.hdr.Types }

// Strategy names the physical plan the server executed.
func (r *Rows) Strategy() string { return r.hdr.Strategy }

// Parallelism is the degree of parallelism the plan ran with (1 = serial).
func (r *Rows) Parallelism() int { return r.hdr.Parallelism }

// QueryID is the engine-assigned query id ("" when the server's database
// runs without observability); it matches the server's request log.
func (r *Rows) QueryID() string { return r.hdr.QueryID }

// Next advances to the next row, returning false at end of stream or on
// error (check Err to tell them apart).
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	for {
		var f frame
		if err := r.dec.Decode(&f); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // stream must end with trailer or error
			}
			r.fail(err)
			return false
		}
		switch {
		case f.Row != nil:
			r.row = f.Row
			return true
		case f.Trace != nil:
			r.trace = f.Trace // trailer follows
		case f.Trailer != nil:
			r.trl = f.Trailer
			r.done = true
			return false
		case f.Error != "":
			r.fail(fmt.Errorf("server: %s", f.Error))
			return false
		default:
			r.fail(fmt.Errorf("client: unexpected frame in stream"))
			return false
		}
	}
}

// Row returns the current row as rendered display strings, one per
// column. The slice is valid until the next call to Next.
func (r *Rows) Row() []string { return r.row }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Trailer returns the stream's trailing statistics once Next has
// returned false without error.
func (r *Rows) Trailer() (rowCount int64, elapsed time.Duration, stats *Stats, ok bool) {
	if r.trl == nil {
		return 0, 0, nil, false
	}
	return r.trl.RowCount, time.Duration(r.trl.ElapsedMicros) * time.Microsecond, r.trl.Stats, true
}

// Stats returns the typed scan statistics from the stream's trailer:
// how the query classified the relation's buckets (qualify /
// disqualify / ambivalent) and the pages it touched. ok is false until
// Next has returned false without error, or when the plan tracks no
// stats.
func (r *Rows) Stats() (Stats, bool) {
	if r.trl == nil || r.trl.Stats == nil {
		return Stats{}, false
	}
	return *r.trl.Stats, true
}

// Trace returns the query's trace when the query was run with WithTrace
// and the stream has ended; nil otherwise.
func (r *Rows) Trace() *TraceNode { return r.trace }

// Close releases the HTTP connection. Once the trailer has been read it
// first reads what is left of the body (at most drainLimit bytes), so the
// connection goes back to the client's pool for the next request. Closing
// before the trailer disconnects, which cancels the query server-side.
func (r *Rows) Close() error {
	r.done = true
	if r.trl != nil {
		_, _ = io.CopyN(io.Discard, r.body, drainLimit)
	}
	return r.body.Close()
}

// drainLimit bounds what Close reads after the trailer: the end of the
// chunked body, not a stream that went on.
const drainLimit = 4 << 10

func (r *Rows) fail(err error) {
	r.err = err
	r.done = true
}

// Query begins executing a SELECT on the server, returning a streaming
// cursor. Cancelling ctx disconnects, which aborts the query mid-scan on
// the server. Transient failures before the header frame (shed 503s,
// connection resets) are retried with backoff; queries are read-only, so
// re-sending is always safe.
func (c *Client) Query(ctx context.Context, sql string, opts ...QueryOption) (*Rows, error) {
	req := queryRequest{SQL: sql}
	for _, o := range opts {
		o(&req)
	}
	for attempt := 1; ; attempt++ {
		rows, err := c.queryOnce(ctx, req)
		if err != nil {
			if !c.retryAfter(ctx, attempt, err) {
				return nil, err
			}
			continue
		}
		return rows, nil
	}
}

func (c *Client) queryOnce(ctx context.Context, req queryRequest) (*Rows, error) {
	resp, err := c.post(ctx, "/query", req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, c.asError(resp)
	}
	r := &Rows{body: resp.Body, dec: json.NewDecoder(resp.Body)}
	var f frame
	if err := r.dec.Decode(&f); err != nil || f.Header == nil {
		cerr := resp.Body.Close()
		if err == nil {
			err = fmt.Errorf("client: stream did not begin with a header frame")
		}
		if cerr != nil {
			err = fmt.Errorf("%w (also failed to close response body: %v)", err, cerr)
		}
		return nil, err
	}
	r.hdr = *f.Header
	return r, nil
}

// ExecResult reports the effect of a non-SELECT statement.
type ExecResult struct {
	Kind         string `json:"kind"`
	Table        string `json:"table"`
	RowsAffected int64  `json:"rows_affected"`
	SMA          *struct {
		Name    string `json:"name"`
		Buckets int    `json:"buckets"`
		Files   int    `json:"files"`
		Pages   int64  `json:"pages"`
	} `json:"sma"`
	ElapsedMicros int64 `json:"elapsed_us"`
	// WALBytes is the size of the statement's own redo-log frame; WALSyncs
	// is 1 when it led the fsync that covered it, 0 when another did.
	WALBytes int64 `json:"wal_bytes"`
	WALSyncs int64 `json:"wal_syncs"`
}

// Exec runs a DDL or DML statement on the server. Of the query options
// WithTimeout, WithDeadline, and WithIdempotencyKey apply; WithDOP is a
// query-execution knob and is rejected rather than silently dropped.
//
// Exec is safely retryable: every call carries an idempotency token
// (generated when WithIdempotencyKey is not given), and all retry
// attempts re-send the same token, so a statement whose response was lost
// in transit is never executed twice — the server replays the recorded
// outcome instead.
func (c *Client) Exec(ctx context.Context, sql string, opts ...QueryOption) (*ExecResult, error) {
	req := queryRequest{SQL: sql}
	for _, o := range opts {
		o(&req)
	}
	if req.DOP != 0 {
		return nil, fmt.Errorf("client: WithDOP does not apply to Exec")
	}
	if req.IdempotencyKey == "" && c.attempts > 1 {
		key, err := newIdempotencyKey()
		if err != nil {
			return nil, err
		}
		req.IdempotencyKey = key
	}
	body := struct {
		SQL            string `json:"sql"`
		TimeoutMillis  int64  `json:"timeout_ms,omitempty"`
		DeadlineMillis int64  `json:"deadline_ms,omitempty"`
		IdempotencyKey string `json:"idempotency_key,omitempty"`
	}{SQL: req.SQL, TimeoutMillis: req.TimeoutMillis,
		DeadlineMillis: req.DeadlineMillis, IdempotencyKey: req.IdempotencyKey}
	for attempt := 1; ; attempt++ {
		out, err := c.execOnce(ctx, body)
		if err == nil {
			return out, nil
		}
		if !c.retryAfter(ctx, attempt, err) {
			return nil, err
		}
	}
}

func (c *Client) execOnce(ctx context.Context, body any) (*ExecResult, error) {
	resp, err := c.post(ctx, "/exec", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.asError(resp)
	}
	var out ExecResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// newIdempotencyKey draws a 128-bit random token. Collisions across the
// server's bounded dedup window are vanishingly unlikely.
func newIdempotencyKey() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("client: generating idempotency key: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// retryAfter decides whether the failed attempt should be retried and, if
// so, sleeps the backoff (exponential, jittered, capped). It returns
// false when the error is permanent, the attempt budget is spent, or ctx
// ends during the backoff.
func (c *Client) retryAfter(ctx context.Context, attempt int, err error) bool {
	if attempt >= c.attempts || ctx.Err() != nil {
		return false
	}
	if !retryable(err) {
		return false
	}
	backoff := c.backoffBase << (attempt - 1)
	if backoff > c.backoffCap {
		backoff = c.backoffCap
	}
	// Full jitter in [backoff/2, backoff): desynchronises clients that
	// failed together so their retries don't stampede together.
	backoff = backoff/2 + time.Duration(mrand.Int63n(int64(backoff/2)+1))
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryable classifies an attempt's error: 503s that are not degraded
// (admission shedding, draining) and transport failures (connection
// refused/reset, broken pipe) are transient; everything else — 4xx, 504,
// degraded 503s, context cancellation — is permanent for this call.
func retryable(err error) bool {
	var se *Error
	if errors.As(err, &se) {
		return se.IsUnavailable() && !se.Degraded
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true // transport-level: the request may never have arrived
}

// Status mirrors the server's /status snapshot.
type Status struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Health        struct {
		Ready        bool   `json:"ready"`
		Draining     bool   `json:"draining"`
		Degraded     bool   `json:"degraded"`
		DegradedErr  string `json:"degraded_err,omitempty"`
		CorruptPages []struct {
			Table string `json:"table"`
			Page  int64  `json:"page"`
		} `json:"corrupt_pages,omitempty"`
		LastScrub *struct {
			StartUnixMillis int64 `json:"start_unix_ms"`
			DurationMicros  int64 `json:"duration_us"`
			PagesScanned    int64 `json:"pages_scanned"`
			SMAsChecked     int   `json:"smas_checked"`
			CorruptPages    int   `json:"corrupt_pages"`
			Errors          int   `json:"errors"`
			Clean           bool  `json:"clean"`
		} `json:"last_scrub,omitempty"`
	} `json:"health"`
	Tables []struct {
		Name    string `json:"name"`
		Columns []struct {
			Name string `json:"name"`
			Type string `json:"type"`
			Len  int    `json:"len"`
		} `json:"columns"`
		Rows        int64 `json:"rows"`
		Pages       int64 `json:"pages"`
		Buckets     int   `json:"buckets"`
		BucketPages int   `json:"bucket_pages"`
		SMAs        []struct {
			Name    string `json:"name"`
			SQL     string `json:"sql"`
			Files   int    `json:"files"`
			Pages   int64  `json:"pages"`
			Buckets int    `json:"buckets"`
		} `json:"smas"`
	} `json:"tables"`
	Pool struct {
		Hits         int64 `json:"hits"`
		Misses       int64 `json:"misses"`
		Evictions    int64 `json:"evictions"`
		Prefetched   int64 `json:"prefetched"`
		PrefetchHits int64 `json:"prefetch_hits"`
	} `json:"pool"`
	Admission struct {
		Active             int   `json:"active"`
		Queued             int   `json:"queued"`
		MaxConcurrent      int   `json:"max_concurrent"`
		QueueTimeoutMillis int64 `json:"queue_timeout_ms"`
		Draining           bool  `json:"draining"`
	} `json:"admission"`
	Sessions []struct {
		ID            int64  `json:"id"`
		Kind          string `json:"kind"`
		SQL           string `json:"sql"`
		ElapsedMicros int64  `json:"elapsed_us"`
	} `json:"sessions"`
	Totals struct {
		Queries           int64 `json:"queries"`
		Execs             int64 `json:"execs"`
		Errors            int64 `json:"errors"`
		Cancelled         int64 `json:"cancelled"`
		RowsStreamed      int64 `json:"rows_streamed"`
		AdmissionTimeouts int64 `json:"admission_timeouts"`
		AdmissionRejected int64 `json:"admission_rejected"`
		WatchdogCancels   int64 `json:"watchdog_cancels"`
		IdempotentReplays int64 `json:"idempotent_replays"`
	} `json:"totals"`
}

// Status fetches the server's catalog/pool/session snapshot.
func (c *Client) Status(ctx context.Context) (*Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/status", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.asError(resp)
	}
	var out Status
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// post sends one JSON request body.
func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.hc.Do(req)
}

// Error is a non-200 server answer.
type Error struct {
	StatusCode int
	Message    string
	// Degraded marks a 503 caused by detected on-disk corruption rather
	// than transient load: the database is read-only until an operator
	// intervenes, so the client does not retry these.
	Degraded bool
}

func (e *Error) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.StatusCode)
}

// IsUnavailable reports whether the server shed this request (admission
// queue timeout or draining); the caller may retry after a backoff.
func (e *Error) IsUnavailable() bool { return e.StatusCode == http.StatusServiceUnavailable }

// IsDegraded reports whether the request was rejected because the
// database is in degraded (corruption-detected, read-only) mode. Not
// retryable: writes will keep failing until the operator repairs or
// restores the store.
func (e *Error) IsDegraded() bool { return e.Degraded }

// asError converts a non-200 response into *Error.
func (c *Client) asError(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error    string `json:"error"`
		Degraded bool   `json:"degraded"`
	}
	msg := resp.Status
	var degraded bool
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
		degraded = body.Degraded
	}
	return &Error{StatusCode: resp.StatusCode, Message: msg, Degraded: degraded}
}

// Alive probes GET /livez: nil means the process is up and serving its
// listener. Liveness stays true even when the database is degraded.
func (c *Client) Alive(ctx context.Context) error { return c.probe(ctx, "/livez") }

// Ready probes GET /readyz: nil means the server is accepting new
// statements. It fails while the server drains for shutdown and while
// the database is degraded.
func (c *Client) Ready(ctx context.Context) error { return c.probe(ctx, "/readyz") }

func (c *Client) probe(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusOK {
		resp.Body.Close()
		return nil
	}
	return c.asError(resp)
}
