package server_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sma"
	"sma/client"
	"sma/internal/server"
)

// testServer is a live smaserverd-shaped server: a real TCP listener and
// http.Server around a Server, as cmd/smaserverd wires them.
type testServer struct {
	DB   *sma.DB
	Srv  *server.Server
	HTTP *http.Server
	Base string
}

// startServer opens a fresh database and serves it on a loopback port.
// Cleanup drains the server, closes the listener, and closes the DB.
func startServer(t *testing.T, dbOpts []sma.Option, cfg server.Config) *testServer {
	t.Helper()
	db, err := sma.Open(t.TempDir(), dbOpts...)
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

// waitFor polls cond until true or the deadline, failing the test after.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestQueryRoundTrip drives DDL, DML, and a streamed aggregate through
// the wire and requires the client's rendered rows to byte-match an
// in-process sma.Collect of the same query.
func TestQueryRoundTrip(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	ctx := context.Background()
	c := client.New(ts.Base)

	if _, err := c.Exec(ctx, "create table S (D date, K char(1), V float64)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(ctx, `insert into S values
		(date '2024-01-01', 'A', 1.5), (date '2024-01-02', 'B', 2),
		(date '2024-02-01', 'A', -3.25), (date '2024-02-02', 'B', 4)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 4 {
		t.Fatalf("insert affected %d rows, want 4", res.RowsAffected)
	}
	if sres, err := c.Exec(ctx, "define sma g select sum(V) from S group by K"); err != nil {
		t.Fatal(err)
	} else if sres.SMA == nil || sres.SMA.Name != "g" {
		t.Fatalf("define sma response missing SMA result: %+v", sres)
	}

	q := "select K, sum(V) as SV, count(*) as C from S group by K order by K"
	rows, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got, want := rows.Columns(), []string{"K", "SV", "C"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("columns %v, want %v", got, want)
	}
	if got, want := rows.Types(), []string{"char", "float64", "float64"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("types %v, want %v", got, want)
	}
	var wire [][]string
	for rows.Next() {
		wire = append(wire, append([]string(nil), rows.Row()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	n, _, stats, ok := rows.Trailer()
	if !ok || n != int64(len(wire)) {
		t.Fatalf("trailer row_count %d ok=%v, streamed %d", n, ok, len(wire))
	}
	if stats == nil {
		t.Fatal("trailer missing stats")
	}

	direct, err := ts.DB.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sma.Collect(direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != len(want.Rows) {
		t.Fatalf("wire %d rows, direct %d", len(wire), len(want.Rows))
	}
	for i := range wire {
		if fmt.Sprint(wire[i]) != fmt.Sprint(want.Rows[i]) {
			t.Fatalf("row %d: wire %v, direct %v", i, wire[i], want.Rows[i])
		}
	}
	if rows.Strategy() != want.Strategy {
		t.Fatalf("wire strategy %q, direct %q", rows.Strategy(), want.Strategy)
	}
}

// TestBadRequests maps malformed bodies and SQL to 400 with a JSON error.
func TestBadRequests(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	for _, body := range []string{
		``, `{`, `{"sql": ""}`, `{"sql": "select 1", "bogus": true}`,
		`{"sql": "select 1"} trailing`, `{"sql": "select 1", "dop": -1}`,
		`{"sql": "select 1", "timeout_ms": -5}`,
		`{"sql": "select 1", "batch_size": 16}`, // not a request field
		`{"sql": "select 1", "batch_size": -1}`,
	} {
		resp, err := http.Post(ts.Base+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Well-formed request, bad SQL: still 400, through the client.
	c := client.New(ts.Base)
	_, err := c.Query(context.Background(), "select from nowhere")
	se, ok := err.(*client.Error)
	if !ok || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL: got %v, want *client.Error with 400", err)
	}
	// Query-only knobs on Exec are rejected client-side, not dropped.
	if _, err := c.Exec(context.Background(), "delete from X", client.WithDOP(4)); err == nil ||
		!strings.Contains(err.Error(), "does not apply") {
		t.Fatalf("Exec with WithDOP: got %v, want rejection", err)
	}
}

// TestStatusAndMetrics checks the catalog/pool/session snapshot and the
// Prometheus exposition after known traffic.
func TestStatusAndMetrics(t *testing.T) {
	ts := startServer(t, nil, server.Config{MaxConcurrent: 3})
	ctx := context.Background()
	c := client.New(ts.Base)
	mustExec(t, c, "create table S (D date, V float64)")
	mustExec(t, c, "insert into S values (date '2024-01-01', 1), (date '2024-01-02', 2)")
	mustExec(t, c, "define sma m select min(D) from S")
	if _, err := drainQuery(c, "select count(*) as C from S"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "insert into NOPE values (1)"); err == nil {
		t.Fatal("exec on unknown table succeeded")
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tables) != 1 || st.Tables[0].Name != "S" {
		t.Fatalf("status tables: %+v", st.Tables)
	}
	tb := st.Tables[0]
	if tb.Rows != 2 || len(tb.Columns) != 2 || len(tb.SMAs) != 1 || tb.SMAs[0].Name != "m" {
		t.Fatalf("table status: %+v", tb)
	}
	if st.Admission.MaxConcurrent != 3 || st.Admission.Draining {
		t.Fatalf("admission status: %+v", st.Admission)
	}
	if st.Totals.Queries != 1 || st.Totals.Execs != 4 || st.Totals.Errors != 1 || st.Totals.RowsStreamed != 1 {
		t.Fatalf("totals: %+v", st.Totals)
	}
	if st.Pool.Hits+st.Pool.Misses == 0 {
		t.Fatalf("pool saw no traffic: %+v", st.Pool)
	}

	resp, err := http.Get(ts.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	text := string(buf[:n])
	for _, want := range []string{
		"# TYPE sma_queries_total counter", "sma_queries_total 1",
		"sma_execs_total 4", "sma_errors_total 1", "sma_rows_streamed_total 1",
		"# TYPE sma_sessions_active gauge", "sma_sessions_max 3",
		"sma_pool_hits_total", "sma_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// slowServer returns a server whose full scans take hundreds of
// milliseconds: simulated per-page read latency, prefetch off, and a
// table spanning a few hundred pages. The table is loaded through the
// database, not the server, so a StatementDeadline bounds only the
// statements the test sends — the 2 000-row insert alone can take 100 ms
// under -race.
func slowServer(t *testing.T, cfg server.Config) *testServer {
	t.Helper()
	ts := startServer(t, []sma.Option{
		sma.WithReadLatency(2 * time.Millisecond),
		sma.WithPrefetchWindow(-1),
		sma.WithPoolPages(8), // tiny pool: every scan re-reads from "disk"
	}, cfg)
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(date '2024-%02d-%02d', 'x')", i/168%12+1, i/6%28+1))
	}
	for _, sql := range []string{"create table BIG (D date, PAD char(400))", "insert into BIG values " + strings.Join(vals, ", ")} {
		if _, err := ts.DB.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql[:24], err)
		}
	}
	return ts
}

// TestAdmissionQueueTimeout saturates a MaxConcurrent=1 server with a
// slow scan and requires the next request to shed with 503 within the
// queue timeout, counted in admission metrics.
func TestAdmissionQueueTimeout(t *testing.T) {
	ts := slowServer(t, server.Config{MaxConcurrent: 1, QueueTimeout: 50 * time.Millisecond})
	// Retries off: this test asserts the raw shed, not the retry loop.
	c := client.New(ts.Base, client.WithRetries(1))
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := drainQuery(c, "select count(*) as C from BIG")
		done <- err
	}()
	waitFor(t, "slow query to occupy the slot", func() bool {
		st, err := c.Status(ctx)
		return err == nil && st.Admission.Active == 1
	})
	_, err := drainQuery(c, "select count(*) as C from BIG")
	se, ok := err.(*client.Error)
	if !ok || !se.IsUnavailable() {
		t.Fatalf("second query: got %v, want 503", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slow query failed: %v", err)
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Totals.AdmissionTimeouts != 1 {
		t.Fatalf("admission timeouts %d, want 1", st.Totals.AdmissionTimeouts)
	}
}

// TestGracefulShutdownDrains proves the drain contract: Shutdown lets the
// in-flight stream finish to its trailer, rejects new statements with
// 503, and returns only once the cursor is released.
func TestGracefulShutdownDrains(t *testing.T) {
	ts := slowServer(t, server.Config{MaxConcurrent: 2, QueueTimeout: time.Second})
	// Retries off: the drain 503 is the assertion, not something to ride out.
	c := client.New(ts.Base, client.WithRetries(1))
	ctx := context.Background()

	type qres struct {
		rows int64
		err  error
	}
	done := make(chan qres, 1)
	go func() {
		n, err := drainQuery(c, "select count(*) as C from BIG")
		done <- qres{n, err}
	}()
	waitFor(t, "query in flight", func() bool {
		st, err := c.Status(ctx)
		return err == nil && st.Admission.Active == 1
	})

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		shutdownDone <- ts.Srv.Shutdown(sctx)
	}()
	waitFor(t, "draining to be visible", func() bool {
		st, err := c.Status(ctx)
		return err == nil && st.Admission.Draining
	})

	// New work is rejected while the old query keeps streaming.
	if _, err := c.Exec(ctx, "insert into BIG values (date '2024-01-01', 'y')"); err == nil {
		t.Fatal("exec admitted during drain")
	} else if se, ok := err.(*client.Error); !ok || !se.IsUnavailable() {
		t.Fatalf("exec during drain: got %v, want 503", err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", r.err)
	}
	if r.rows != 1 {
		t.Fatalf("in-flight query streamed %d rows, want 1", r.rows)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The cursor is released: the write lock is immediately available.
	if _, err := ts.DB.Exec("delete from BIG"); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownForcedCancel proves the timeout path: when the drain budget
// is already spent, Shutdown cancels in-flight query contexts, the stream
// ends with an in-band error frame, and Shutdown still waits for the
// sessions to unwind.
func TestShutdownForcedCancel(t *testing.T) {
	ts := slowServer(t, server.Config{MaxConcurrent: 2, QueueTimeout: time.Second})
	c := client.New(ts.Base)
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := drainQuery(c, "select count(*) as C from BIG")
		done <- err
	}()
	waitFor(t, "query in flight", func() bool {
		st, err := c.Status(ctx)
		return err == nil && st.Admission.Active == 1
	})

	expired, cancel := context.WithCancel(ctx)
	cancel() // already-expired drain budget forces immediate cancellation
	if err := ts.Srv.Shutdown(expired); err != context.Canceled {
		t.Fatalf("Shutdown: %v, want context.Canceled", err)
	}
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancelled query returned %v, want in-band context canceled", err)
	}
	if _, err := ts.DB.Exec("delete from BIG"); err != nil {
		t.Fatal(err)
	}
}

// TestPerQueryKnobs exercises dop/timeout_ms through the wire: serial and
// parallel must return identical bytes, and a tiny deadline must abort the
// scan with an error.
func TestPerQueryKnobs(t *testing.T) {
	ts := startServer(t, []sma.Option{sma.WithParallelism(4)}, server.Config{})
	c := client.New(ts.Base)
	mustExec(t, c, "create table S (D date, K char(1), V float64)")
	var vals []string
	for i := 0; i < 3000; i++ {
		vals = append(vals, fmt.Sprintf("(date '2024-%02d-%02d', '%c', %d.5)",
			i/250+1, i/90%28+1, 'A'+i%5, i%100))
	}
	mustExec(t, c, "insert into S values "+strings.Join(vals, ", "))

	q := "select K, sum(V) as SV from S group by K order by K"
	base := collectQuery(t, c, q)
	for name, opts := range map[string][]client.QueryOption{
		"serial": {client.WithDOP(1)},
		"dop4":   {client.WithDOP(4)},
	} {
		if got := collectQuery(t, c, q, opts...); fmt.Sprint(got) != fmt.Sprint(base) {
			t.Errorf("%s: %v != base %v", name, got, base)
		}
	}

	// The deadline knob: a slow server-side scan must exceed 1ms.
	slow := slowServer(t, server.Config{})
	sc := client.New(slow.Base)
	_, err := drainQuery(sc, "select count(*) as C from BIG", client.WithTimeout(time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("timeout_ms query: got %v, want deadline exceeded", err)
	}
}

// TestConcurrentMixedLoad is the integration shape CI runs under -race:
// N concurrent wire clients interleaving DML and aggregate/projection
// queries against shared tables while /status polls, then a clean drain.
func TestConcurrentMixedLoad(t *testing.T) {
	clients := 32
	if testing.Short() {
		clients = 8
	}
	dop := runtime.NumCPU()
	if dop < 2 {
		dop = 2
	}
	ts := startServer(t, []sma.Option{sma.WithParallelism(dop)},
		server.Config{MaxConcurrent: 8, QueueTimeout: 30 * time.Second})
	c := client.New(ts.Base)
	mustExec(t, c, "create table S (D date, K char(1), V float64)")
	mustExec(t, c, "define sma g select sum(V) from S group by K")

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cc := client.New(ts.Base)
			for op := 0; op < 25; op++ {
				var err error
				switch (ci + op) % 4 {
				case 0:
					_, err = cc.Exec(context.Background(), fmt.Sprintf(
						"insert into S values (date '2024-%02d-01', '%c', %d.5)",
						op%12+1, 'A'+ci%5, ci))
				case 1:
					_, err = drainQuery(cc, "select K, sum(V) as SV from S group by K order by K")
				case 2:
					_, err = drainQuery(cc, "select count(*) as C from S where D <= date '2024-06-01'")
				default:
					_, err = drainQuery(cc, "select D, V from S limit 20")
				}
				if err != nil {
					errc <- fmt.Errorf("client %d op %d: %w", ci, op, err)
					return
				}
			}
		}(ci)
	}
	pollDone := make(chan struct{})
	go func() { // a monitoring poller riding along
		defer close(pollDone)
		for i := 0; i < 20; i++ {
			c.Status(context.Background())
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-pollDone
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantExecs := int64(2) // + the insert clients
	for ci := 0; ci < clients; ci++ {
		for op := 0; op < 25; op++ {
			if (ci+op)%4 == 0 {
				wantExecs++
			}
		}
	}
	if st.Totals.Execs != wantExecs || st.Totals.Errors != 0 {
		t.Fatalf("totals %+v, want %d execs, 0 errors", st.Totals, wantExecs)
	}
}

// --- helpers --------------------------------------------------------------

func mustExec(t *testing.T, c *client.Client, sql string) {
	t.Helper()
	if _, err := c.Exec(context.Background(), sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// drainQuery runs a query and consumes the stream, returning the row count.
func drainQuery(c *client.Client, sql string, opts ...client.QueryOption) (int64, error) {
	rows, err := c.Query(context.Background(), sql, opts...)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	var n int64
	for rows.Next() {
		n++
	}
	return n, rows.Err()
}

// collectQuery drains a query into rendered rows.
func collectQuery(t *testing.T, c *client.Client, sql string, opts ...client.QueryOption) [][]string {
	t.Helper()
	rows, err := c.Query(context.Background(), sql, opts...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	defer rows.Close()
	var out [][]string
	for rows.Next() {
		out = append(out, append([]string(nil), rows.Row()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return out
}
