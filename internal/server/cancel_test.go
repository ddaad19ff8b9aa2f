package server_test

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"sma/client"
	"sma/internal/chaos"
	"sma/internal/server"
)

// TestClientDisconnectCancelsQuery kills the connection in the middle of
// a slow result stream and asserts the serving contract: the underlying
// cursor's context is cancelled (the server counts the abort), the
// session unregisters, the database read lock is released (a write can
// run immediately), and no goroutine leaks (goleak-style count).
func TestClientDisconnectCancelsQuery(t *testing.T) {
	ts := slowServer(t, server.Config{MaxConcurrent: 2, QueueTimeout: time.Second})
	monitor := client.New(ts.Base)

	// Warm the HTTP paths on both sides so the goroutine baseline below
	// includes the keep-alive machinery.
	if _, err := drainQuery(monitor, "select count(*) as C from BIG"); err != nil {
		t.Fatal(err)
	}
	if _, err := monitor.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	base := runtime.NumGoroutine()

	// A dedicated transport so closing its idle connections tears down
	// exactly this query's client side.
	tr := &http.Transport{}
	qc := client.New(ts.Base, client.WithHTTPClient(&http.Client{Transport: tr}))
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := qc.Query(ctx, "select D, PAD from BIG")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d rows: %v", i, rows.Err())
		}
	}
	cancel() // disconnect: the request context aborts and the conn closes
	rows.Close()
	tr.CloseIdleConnections()

	// The server observed the cancellation mid-batch and unwound the
	// session; cancelled queries are counted, not errors.
	waitFor(t, "server to observe the cancellation", func() bool {
		st, err := monitor.Status(context.Background())
		return err == nil && st.Totals.Cancelled >= 1 && len(st.Sessions) == 0 &&
			st.Admission.Active == 0 && st.Totals.Errors == 0
	})

	// The cursor's read lock is gone: a write-locking statement runs
	// immediately instead of deadlocking behind a leaked cursor.
	if _, err := ts.DB.Exec("insert into BIG values (date '2024-06-01', 'y')"); err != nil {
		t.Fatal(err)
	}

	// Goroutine count returns to the pre-query baseline.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after disconnect: %d -> %d\n%s",
			base, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestClientReusesItsConnection: a query read to its trailer and closed
// hands its connection back to the client's pool, so 200 sequential
// queries with one idle connection allowed open exactly one. Closing
// before the trailer disconnects instead (TestClientDisconnectCancelsQuery).
func TestClientReusesItsConnection(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	ctx := context.Background()
	setup := client.New(ts.Base)
	for _, sql := range []string{
		"create table S (K int, V float64)",
		"insert into S values (1, 1.5), (2, 2.5), (3, 3.5), (1, 4.5)",
	} {
		if _, err := setup.Exec(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	proxy, err := chaos.NewProxy(strings.TrimPrefix(ts.Base, "http://"), 1, chaos.ProxyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := client.New("http://"+proxy.Addr(), client.WithHTTPClient(&http.Client{Transport: tr}))
	for i := 0; i < 200; i++ {
		sql := "select K, sum(V) as S from S group by K"
		if i%2 == 1 {
			sql = "select K, V from S where V > 2"
		}
		if _, err := drainQuery(c, sql); err != nil {
			t.Fatal(err)
		}
	}
	if n := proxy.Accepted(); n != 1 {
		t.Errorf("200 sequential queries opened %d connections, want 1", n)
	}
}
