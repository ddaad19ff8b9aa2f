package server_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sma"
	"sma/client"
	"sma/internal/server"
)

// startServerAt serves an existing database directory, for tests that
// seed (or damage) the store before the server opens it.
func startServerAt(t *testing.T, dir string, dbOpts []sma.Option, cfg server.Config) *testServer {
	t.Helper()
	db, err := sma.Open(dir, dbOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	ts := &testServer{DB: db, Srv: srv, HTTP: httpSrv, Base: "http://" + ln.Addr().String()}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ts.Srv.Shutdown(ctx)
		ts.HTTP.Shutdown(ctx)
		ts.DB.Close()
	})
	return ts
}

// seedCorruptDir builds a small database, closes it cleanly, then flips
// one byte inside page 0 of table S's heap so the next read of that page
// fails its checksum.
func seedCorruptDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := sma.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("create table S (D date, V float64)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("insert into S values (date '2024-01-01', 1), (date '2024-01-02', 2)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	heap := filepath.Join(dir, "s.tbl")
	f, err := os.OpenFile(heap, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], 100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], 100); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestHealthEndpoints walks the full health lifecycle over the wire:
// live+ready on a healthy server, then a scrub finds corruption, the
// database degrades, /readyz drops while /livez stays up, /status reports
// the quarantined page, writes come back 503-degraded — and the client
// recognizes the degraded marker and does not retry.
func TestHealthEndpoints(t *testing.T) {
	dir := seedCorruptDir(t)
	ts := startServerAt(t, dir, nil, server.Config{})
	ctx := context.Background()
	c := client.New(ts.Base)

	if err := c.Alive(ctx); err != nil {
		t.Fatalf("Alive on healthy server: %v", err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready on healthy server: %v", err)
	}

	// The scrub walks the heap, trips the checksum, and degrades the DB.
	rep, err := ts.DB.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Corrupt) == 0 {
		t.Fatalf("scrub missed seeded corruption: %+v", rep)
	}

	if err := c.Alive(ctx); err != nil {
		t.Fatalf("Alive while degraded: %v", err)
	}
	err = c.Ready(ctx)
	se, ok := err.(*client.Error)
	if !ok || !se.IsUnavailable() || !se.IsDegraded() {
		t.Fatalf("Ready while degraded: got %v, want degraded 503", err)
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h := st.Health
	if h.Ready || !h.Degraded || h.DegradedErr == "" {
		t.Fatalf("health: %+v", h)
	}
	if len(h.CorruptPages) == 0 || h.CorruptPages[0].Table != "S" {
		t.Fatalf("corrupt pages: %+v", h.CorruptPages)
	}
	if h.LastScrub == nil || h.LastScrub.Clean || h.LastScrub.CorruptPages == 0 {
		t.Fatalf("last scrub: %+v", h.LastScrub)
	}

	// Writes are rejected with the degraded marker; the default client
	// must fail in one attempt — degraded is not transient, so retrying
	// would only hammer a database that needs an operator.
	errsBefore := st.Totals.Errors
	_, err = c.Exec(ctx, "insert into S values (date '2024-02-01', 3)")
	se, ok = err.(*client.Error)
	if !ok || !se.IsDegraded() {
		t.Fatalf("exec while degraded: got %v, want degraded 503", err)
	}
	st, err = c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Totals.Errors - errsBefore; got != 1 {
		t.Fatalf("degraded exec executed %d times, want 1 (no retries)", got)
	}
}

// TestReadyzDraining: once shutdown begins, /readyz reports 503 draining
// so load balancers stop routing, while /livez stays 200.
func TestReadyzDraining(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	ctx := context.Background()
	c := client.New(ts.Base)
	if err := c.Ready(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ts.Srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	err := c.Ready(ctx)
	se, ok := err.(*client.Error)
	if !ok || !se.IsUnavailable() || se.IsDegraded() {
		t.Fatalf("Ready while draining: got %v, want plain 503", err)
	}
	if !strings.Contains(se.Message, "draining") {
		t.Fatalf("Ready while draining: message %q", se.Message)
	}
	if err := c.Alive(ctx); err != nil {
		t.Fatalf("Alive while draining: %v", err)
	}
}

// TestDeadlinePropagation: deadline_ms is an absolute instant the server
// enforces; a deadline already in the past fails immediately, and a tight
// one aborts a slow scan partway.
func TestDeadlinePropagation(t *testing.T) {
	ts := slowServer(t, server.Config{})
	c := client.New(ts.Base)

	start := time.Now()
	_, err := drainQuery(c, "select count(*) as C from BIG",
		client.WithDeadline(time.Now().Add(-time.Second)))
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("past deadline: got %v, want deadline exceeded", err)
	}
	if since := time.Since(start); since > 2*time.Second {
		t.Fatalf("past deadline took %v, want immediate failure", since)
	}

	_, err = drainQuery(c, "select count(*) as C from BIG",
		client.WithDeadline(time.Now().Add(50*time.Millisecond)))
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("tight deadline: got %v, want deadline exceeded", err)
	}
}

// TestExecIdempotency: the same key executes once; the duplicate replays
// the recorded response — for successes and for errors alike.
func TestExecIdempotency(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	ctx := context.Background()
	c := client.New(ts.Base)
	mustExec(t, c, "create table S (D date, V float64)")

	ins := "insert into S values (date '2024-01-01', 1)"
	r1, err := c.Exec(ctx, ins, client.WithIdempotencyKey("pr9-ins"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Exec(ctx, ins, client.WithIdempotencyKey("pr9-ins"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.RowsAffected != 1 || r2.RowsAffected != 1 {
		t.Fatalf("rows affected %d / %d, want 1 / 1", r1.RowsAffected, r2.RowsAffected)
	}
	rows := collectQuery(t, c, "select count(*) as C from S")
	if fmt.Sprint(rows) != "[[1]]" {
		t.Fatalf("row count after duplicate insert: %v, want [[1]]", rows)
	}

	// Error outcomes replay too: the engine ran the statement once, its
	// failure is as settled as a success.
	_, err1 := c.Exec(ctx, "insert into NOPE values (1)", client.WithIdempotencyKey("pr9-err"))
	_, err2 := c.Exec(ctx, "insert into NOPE values (1)", client.WithIdempotencyKey("pr9-err"))
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("error replay mismatch: %v vs %v", err1, err2)
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Totals.IdempotentReplays != 2 {
		t.Fatalf("idempotent replays %d, want 2", st.Totals.IdempotentReplays)
	}
	if st.Totals.Errors != 1 {
		t.Fatalf("errors %d, want 1 (the failed insert executed once)", st.Totals.Errors)
	}
}

// TestExecIdempotencyConcurrent races duplicates of one key: exactly one
// executes, the rest wait on the leader and replay its response.
func TestExecIdempotencyConcurrent(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	ctx := context.Background()
	c := client.New(ts.Base)
	mustExec(t, c, "create table S (D date, V float64)")

	const dups = 8
	var wg sync.WaitGroup
	results := make([]*client.ExecResult, dups)
	errs := make([]error, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc := client.New(ts.Base)
			results[i], errs[i] = cc.Exec(ctx,
				"insert into S values (date '2024-01-01', 1)",
				client.WithIdempotencyKey("pr9-race"))
		}(i)
	}
	wg.Wait()
	for i := 0; i < dups; i++ {
		if errs[i] != nil {
			t.Fatalf("duplicate %d: %v", i, errs[i])
		}
		if results[i].RowsAffected != 1 {
			t.Fatalf("duplicate %d: rows affected %d, want 1", i, results[i].RowsAffected)
		}
	}
	rows := collectQuery(t, c, "select count(*) as C from S")
	if fmt.Sprint(rows) != "[[1]]" {
		t.Fatalf("row count after %d duplicates: %v, want [[1]]", dups, rows)
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Totals.IdempotentReplays != dups-1 {
		t.Fatalf("idempotent replays %d, want %d", st.Totals.IdempotentReplays, dups-1)
	}
}

// TestStatementDeadline: Config.StatementDeadline stops a statement that
// outlives it even though its client is still connected. Stopped before
// streaming, the statement answers 504; once its stream has begun, the
// stream ends with an in-band deadline frame. A keyed /exec answers 504 and
// a retry under the key replays that 504. watchdog_cancels counts each such
// statement exactly once, and not one that the request's own timeout_ms
// stopped first. After Shutdown no server goroutine remains.
func TestStatementDeadline(t *testing.T) {
	ts := slowServer(t, server.Config{StatementDeadline: 100 * time.Millisecond})
	c := client.New(ts.Base, client.WithRetries(1))
	ctx := context.Background()
	is504 := func(err error) bool {
		se, ok := err.(*client.Error)
		return ok && se.StatusCode == http.StatusGatewayTimeout
	}
	cases := []struct {
		name        string
		run         func(t *testing.T)
		wantCancels int64
		wantReplays int64
	}{
		{"query stopped before streaming answers 504", func(t *testing.T) {
			if _, err := drainQuery(c, "select count(*) as C from BIG"); !is504(err) {
				t.Fatalf("got %v, want 504", err)
			}
		}, 1, 0},
		{"query stopped mid-stream ends with a deadline frame", func(t *testing.T) {
			rows, err := c.Query(ctx, "select D, PAD from BIG")
			if err != nil {
				t.Fatalf("query failed before streaming: %v", err)
			}
			defer rows.Close()
			for rows.Next() {
			}
			if err := rows.Err(); err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
				t.Fatalf("stream ended with %v, want an in-band deadline error", err)
			}
		}, 1, 0},
		{"keyed exec answers 504 and its retry replays 504", func(t *testing.T) {
			del := "delete from BIG where D < date '2000-01-01'"
			for attempt := 1; attempt <= 2; attempt++ {
				if _, err := c.Exec(ctx, del, client.WithIdempotencyKey("deadline")); !is504(err) {
					t.Fatalf("attempt %d: got %v, want 504", attempt, err)
				}
			}
		}, 1, 1},
		{"own timeout_ms first is not the server's", func(t *testing.T) {
			_, err := drainQuery(c, "select count(*) as C from BIG", client.WithTimeout(20*time.Millisecond))
			if !is504(err) {
				t.Fatalf("got %v, want 504", err)
			}
		}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, err := c.Status(ctx)
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t)
			after, err := c.Status(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.Totals.WatchdogCancels - before.Totals.WatchdogCancels; got != tc.wantCancels {
				t.Fatalf("watchdog_cancels rose by %d, want %d", got, tc.wantCancels)
			}
			if got := after.Totals.IdempotentReplays - before.Totals.IdempotentReplays; got != tc.wantReplays {
				t.Fatalf("idempotent_replays rose by %d, want %d", got, tc.wantReplays)
			}
		})
	}

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := ts.Srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := ts.HTTP.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server goroutines to exit", func() bool { return !serverGoroutineLive() })
}

// serverGoroutineLive reports whether any live goroutine is running code
// of package server.
func serverGoroutineLive() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "sma/internal/server.")
}

// TestClientRetriesSheddingServer: a shed 503 is transient; the client's
// backoff loop rides it out and the query ultimately succeeds once the
// occupying statement releases the only slot.
func TestClientRetriesSheddingServer(t *testing.T) {
	ts := slowServer(t, server.Config{MaxConcurrent: 1, QueueTimeout: 50 * time.Millisecond})
	ctx := context.Background()
	c := client.New(ts.Base, client.WithRetries(10))

	done := make(chan error, 1)
	go func() {
		_, err := drainQuery(c, "select count(*) as C from BIG")
		done <- err
	}()
	waitFor(t, "slow query to occupy the slot", func() bool {
		st, err := c.Status(ctx)
		return err == nil && st.Admission.Active == 1
	})
	n, err := drainQuery(c, "select count(*) as C from BIG")
	if err != nil {
		t.Fatalf("retried query failed: %v", err)
	}
	if n != 1 {
		t.Fatalf("retried query streamed %d rows, want 1", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("occupying query failed: %v", err)
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Totals.AdmissionTimeouts < 1 {
		t.Fatalf("admission timeouts %d, want >= 1 (a shed must have happened)", st.Totals.AdmissionTimeouts)
	}
}

// TestStatusRacesClose hammers /status from several goroutines while the
// server shuts down and the database closes underneath it. Any response —
// success or error — is acceptable; a panic or a data race (under -race)
// is not.
func TestStatusRacesClose(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	c := client.New(ts.Base)
	mustExec(t, c, "create table S (D date, V float64)")
	mustExec(t, c, "insert into S values (date '2024-01-01', 1)")
	mustExec(t, c, "define sma m select min(D) from S")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.Base + "/status")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.Srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ts.DB.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let pollers hit the closed DB
	close(stop)
	wg.Wait()
}
