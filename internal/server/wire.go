// Package server turns the embedded sma engine into a served system: a
// concurrent SQL-over-HTTP query server with admission control, session
// tracking, live metrics, and graceful shutdown.
//
// Wire protocol (JSON over HTTP):
//
//	POST /query  {"sql": "...", "dop": 4, "timeout_ms": 5000, "trace": true}
//	  → 200, Content-Type application/x-ndjson: one JSON frame per line —
//	    first a header frame {"header": {columns, types, strategy, parallelism,
//	    query_id}}, then a row frame {"row": ["...", ...]} per result row
//	    (values are the engine's rendered display strings, byte-identical to
//	    sma.Collect), then — when "trace" was requested — a trace frame
//	    {"trace": {...}} carrying the query's trace (the statement record's
//	    phases — parse, plan, grade, scan, fold or merge with one node per
//	    worker, stream — each with its wall time and counters), finally a
//	    trailer frame {"trailer": {row_count, elapsed_us, stats}}. A failure
//	    mid-stream replaces the trailer with {"error": "..."}.
//	POST /exec   {"sql": "...", "timeout_ms": 5000, "idempotency_key": "..."}
//	  → 200 {"kind", "table", "rows_affected", "sma"?, "elapsed_us"}
//	GET  /status → catalog, pool, session, admission, and health snapshot
//	GET  /metrics → Prometheus text exposition
//	GET  /livez  → 200 while the process serves requests at all
//	GET  /readyz → 200 when accepting statements; 503 while draining or
//	  degraded (during recovery replay the listener is not up yet, so
//	  probes fail at the connection level)
//
// Both statement routes accept "deadline_ms", an absolute wall-clock
// deadline in Unix milliseconds that propagates into the statement's
// context — the knob retries use so a statement never outlives its
// original deadline no matter how many attempts carried it. "timeout_ms"
// is the equivalent relative form. The server's own bound
// (Config.StatementDeadline) joins them, and the earliest of the three
// wins.
//
// An /exec carrying an "idempotency_key" is executed at most once: while
// the first attempt is in flight, duplicates wait for it; afterwards they
// receive a replay of its recorded response without touching the engine.
// Keys fall out of the table LRU-style (4096 entries, oldest completed
// first), and do not survive a server restart.
//
// Requests rejected before execution answer a JSON error body with an HTTP
// status: 400 (malformed request or SQL), 503 (admission queue timeout,
// server draining — both with Retry-After — or database degraded, marked
// "degraded": true in the body), 504 (a deadline exceeded: the request's
// or the server's).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"sma"
)

// Request limits: a decoded request is rejected before execution when it
// exceeds them, so a malformed or hostile body cannot balloon memory or
// spawn absurd parallelism.
const (
	// MaxSQLBytes caps the statement text length.
	MaxSQLBytes = 1 << 20
	// MaxBodyBytes caps the HTTP body read for /query and /exec.
	MaxBodyBytes = MaxSQLBytes + 4096
	// MaxDOP caps the per-request degree of parallelism.
	MaxDOP = 512
	// MaxTimeoutMillis caps the per-request deadline (24h).
	MaxTimeoutMillis = 24 * 60 * 60 * 1000
	// MaxIdempotencyKeyBytes caps the /exec idempotency key length.
	MaxIdempotencyKeyBytes = 128
)

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	SQL string `json:"sql"`
	// DOP overrides the server's degree of intra-query parallelism for
	// this query (0 keeps the server default, 1 forces serial).
	DOP int `json:"dop,omitempty"`
	// TimeoutMillis bounds execution; past it the query fails with 504 (or
	// an in-stream error frame once streaming began). 0 means no deadline.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// DeadlineMillis is an absolute wall-clock deadline (Unix
	// milliseconds) that propagates into the statement context. Unlike
	// timeout_ms it survives retries unchanged: every attempt races the
	// same instant. 0 means none; combined with timeout_ms the earlier
	// deadline wins.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Trace asks the engine to render the query's record as a trace; it
	// streams back as a trace frame before the trailer.
	Trace bool `json:"trace,omitempty"`
}

// ExecRequest is the body of POST /exec.
type ExecRequest struct {
	SQL           string `json:"sql"`
	TimeoutMillis int64  `json:"timeout_ms,omitempty"`
	// DeadlineMillis is the absolute form of timeout_ms; see QueryRequest.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// IdempotencyKey makes the statement safely retryable: the server
	// executes at most one statement per key and replays the recorded
	// response to duplicates. Empty disables deduplication.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// DecodeQueryRequest strictly decodes and validates a /query body:
// unknown fields, trailing data, empty or oversized SQL, and out-of-range
// knobs are errors.
func DecodeQueryRequest(r io.Reader) (*QueryRequest, error) {
	var req QueryRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := validateSQL(req.SQL); err != nil {
		return nil, err
	}
	if req.DOP < 0 || req.DOP > MaxDOP {
		return nil, fmt.Errorf("dop %d out of range [0, %d]", req.DOP, MaxDOP)
	}
	if err := validateTimeout(req.TimeoutMillis); err != nil {
		return nil, err
	}
	if req.DeadlineMillis < 0 {
		return nil, fmt.Errorf("deadline_ms %d is negative", req.DeadlineMillis)
	}
	return &req, nil
}

// DecodeExecRequest strictly decodes and validates an /exec body.
func DecodeExecRequest(r io.Reader) (*ExecRequest, error) {
	var req ExecRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := validateSQL(req.SQL); err != nil {
		return nil, err
	}
	if err := validateTimeout(req.TimeoutMillis); err != nil {
		return nil, err
	}
	if req.DeadlineMillis < 0 {
		return nil, fmt.Errorf("deadline_ms %d is negative", req.DeadlineMillis)
	}
	if len(req.IdempotencyKey) > MaxIdempotencyKeyBytes {
		return nil, fmt.Errorf("idempotency_key length %d exceeds %d bytes",
			len(req.IdempotencyKey), MaxIdempotencyKeyBytes)
	}
	return &req, nil
}

// decodeStrict decodes exactly one JSON object, rejecting unknown fields
// and trailing content.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	if dec.More() {
		return errors.New("malformed request body: trailing data after request object")
	}
	return nil
}

func validateSQL(sql string) error {
	if sql == "" {
		return errors.New(`request is missing "sql"`)
	}
	if len(sql) > MaxSQLBytes {
		return fmt.Errorf("sql length %d exceeds %d bytes", len(sql), MaxSQLBytes)
	}
	return nil
}

func validateTimeout(ms int64) error {
	if ms < 0 || ms > MaxTimeoutMillis {
		return fmt.Errorf("timeout_ms %d out of range [0, %d]", ms, MaxTimeoutMillis)
	}
	return nil
}

// QueryHeader is the first frame of a /query response stream.
type QueryHeader struct {
	Columns []string `json:"columns"`
	// Types names each column's value type ("int32", "int64", "float64",
	// "date", "char"); aggregate columns are "float64".
	Types []string `json:"types"`
	// Strategy is the physical plan ("SMA_GAggr", "SMA_Scan+GAggr", ...).
	Strategy string `json:"strategy"`
	// Parallelism is the degree the plan executes with (1 = serial).
	Parallelism int `json:"parallelism"`
	// QueryID is the engine-assigned query id ("" when the database runs
	// without observability); it matches the id in the server's request
	// log and the engine's query log.
	QueryID string `json:"query_id,omitempty"`
}

// WireQueryStats mirrors sma.QueryStats on the wire.
type WireQueryStats struct {
	QualifyingBuckets    int `json:"qualifying_buckets"`
	DisqualifyingBuckets int `json:"disqualifying_buckets"`
	AmbivalentBuckets    int `json:"ambivalent_buckets"`
	PagesRead            int `json:"pages_read"`
	Batches              int `json:"batches"`
	PagesPrefetched      int `json:"pages_prefetched"`
	PrefetchHits         int `json:"prefetch_hits"`
}

// QueryTrailer is the final frame of a successful /query stream.
type QueryTrailer struct {
	RowCount      int64           `json:"row_count"`
	ElapsedMicros int64           `json:"elapsed_us"`
	Stats         *WireQueryStats `json:"stats,omitempty"`
}

// Frame is one NDJSON line of a /query response: exactly one field is
// set. Error frames terminate the stream in place of the trailer.
type Frame struct {
	Header  *QueryHeader   `json:"header,omitempty"`
	Row     []string       `json:"row,omitempty"`
	Trace   *sma.TraceNode `json:"trace,omitempty"`
	Trailer *QueryTrailer  `json:"trailer,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// SMAResult describes the SMA built by a "define sma" statement.
type SMAResult struct {
	Name    string `json:"name"`
	Buckets int    `json:"buckets"`
	Files   int    `json:"files"`
	Pages   int64  `json:"pages"`
}

// ExecResponse is the body of a successful /exec.
type ExecResponse struct {
	Kind          string     `json:"kind"`
	Table         string     `json:"table,omitempty"`
	RowsAffected  int64      `json:"rows_affected"`
	SMA           *SMAResult `json:"sma,omitempty"`
	ElapsedMicros int64      `json:"elapsed_us"`
	WALBytes      int64      `json:"wal_bytes,omitempty"`
	WALSyncs      int64      `json:"wal_syncs,omitempty"`
}

// ErrorResponse is the JSON body of every non-200 answer. Degraded marks
// failures caused by the database's degraded read-only mode: the
// condition is persistent (a human must repair or restore), so clients
// must not treat the 503 as retryable.
type ErrorResponse struct {
	Error    string `json:"error"`
	Degraded bool   `json:"degraded,omitempty"`
}

// ColumnStatus describes one column in /status.
type ColumnStatus struct {
	Name string `json:"name"`
	Type string `json:"type"`
	Len  int    `json:"len,omitempty"`
}

// SMAStatus describes one SMA in /status.
type SMAStatus struct {
	Name    string `json:"name"`
	SQL     string `json:"sql"`
	Files   int    `json:"files"`
	Pages   int64  `json:"pages"`
	Buckets int    `json:"buckets"`
}

// TableStatus describes one table in /status.
type TableStatus struct {
	Name        string         `json:"name"`
	Columns     []ColumnStatus `json:"columns"`
	Rows        int64          `json:"rows"`
	Pages       int64          `json:"pages"`
	Buckets     int            `json:"buckets"`
	BucketPages int            `json:"bucket_pages"`
	SMAs        []SMAStatus    `json:"smas,omitempty"`
}

// PoolStatus is the database-wide buffer pool picture in /status.
type PoolStatus struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	Prefetched   int64 `json:"prefetched"`
	PrefetchHits int64 `json:"prefetch_hits"`
}

// WALStatus reports redo-log and crash-recovery state in /status.
type WALStatus struct {
	Policy       string `json:"policy"`
	SizeBytes    int64  `json:"size_bytes"`
	Commits      uint64 `json:"commits"`
	Syncs        uint64 `json:"syncs"`
	GroupedWaits uint64 `json:"grouped_waits"`
	PageImages   uint64 `json:"page_images"`
	Checkpoints  uint64 `json:"checkpoints"`
	// Recovered is true when the last Open replayed the redo log after an
	// unclean shutdown; the replayed counts describe what it restored.
	Recovered           bool  `json:"recovered"`
	RecoveredStatements int64 `json:"recovered_statements,omitempty"`
	RecoveredOps        int64 `json:"recovered_ops,omitempty"`
	SMAsRebuilt         int   `json:"smas_rebuilt,omitempty"`
}

// SessionStatus describes one in-flight statement in /status.
type SessionStatus struct {
	ID            int64  `json:"id"`
	Kind          string `json:"kind"` // "query" or "exec"
	SQL           string `json:"sql"`
	ElapsedMicros int64  `json:"elapsed_us"`
}

// AdmissionStatus reports the admission-control state in /status.
type AdmissionStatus struct {
	Active             int   `json:"active"`
	Queued             int   `json:"queued"`
	MaxConcurrent      int   `json:"max_concurrent"`
	QueueTimeoutMillis int64 `json:"queue_timeout_ms"`
	Draining           bool  `json:"draining"`
}

// TotalsStatus reports the lifetime counters in /status.
type TotalsStatus struct {
	Queries           int64 `json:"queries"`
	Execs             int64 `json:"execs"`
	Errors            int64 `json:"errors"`
	Cancelled         int64 `json:"cancelled"`
	RowsStreamed      int64 `json:"rows_streamed"`
	AdmissionTimeouts int64 `json:"admission_timeouts"`
	AdmissionRejected int64 `json:"admission_rejected"`
	WatchdogCancels   int64 `json:"watchdog_cancels"`
	IdempotentReplays int64 `json:"idempotent_replays"`
}

// ScrubStatus summarizes the most recent scrub pass in /status.
type ScrubStatus struct {
	StartUnixMillis int64 `json:"start_unix_ms"`
	DurationMicros  int64 `json:"duration_us"`
	PagesScanned    int64 `json:"pages_scanned"`
	SMAsChecked     int   `json:"smas_checked"`
	CorruptPages    int   `json:"corrupt_pages"`
	Errors          int   `json:"errors"`
	Clean           bool  `json:"clean"`
}

// HealthStatus reports serving health in /status: Ready mirrors /readyz,
// Degraded the database's read-only corruption mode.
type HealthStatus struct {
	Ready        bool              `json:"ready"`
	Draining     bool              `json:"draining"`
	Degraded     bool              `json:"degraded"`
	DegradedErr  string            `json:"degraded_err,omitempty"`
	CorruptPages []sma.CorruptPage `json:"corrupt_pages,omitempty"`
	LastScrub    *ScrubStatus      `json:"last_scrub,omitempty"`
}

// StatusResponse is the body of GET /status.
type StatusResponse struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Health        HealthStatus    `json:"health"`
	Tables        []TableStatus   `json:"tables"`
	Pool          PoolStatus      `json:"pool"`
	WAL           WALStatus       `json:"wal"`
	Admission     AdmissionStatus `json:"admission"`
	Sessions      []SessionStatus `json:"sessions"`
	Totals        TotalsStatus    `json:"totals"`
}
