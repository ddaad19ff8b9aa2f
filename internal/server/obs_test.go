package server_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"sma/client"
	"sma/internal/server"
	"sma/internal/testutil"
)

// seedSmall creates a tiny table through the wire.
func seedSmall(t *testing.T, c *client.Client) {
	t.Helper()
	ctx := context.Background()
	if _, err := c.Exec(ctx, "create table S (D date, K char(1), V float64)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `insert into S values
		(date '2024-01-01', 'A', 1.5), (date '2024-01-02', 'B', 2),
		(date '2024-02-01', 'A', -3.25), (date '2024-02-02', 'B', 4)`); err != nil {
		t.Fatal(err)
	}
}

// TestQueryTraceFrame requests a traced query over the wire and checks
// the span tree arrives before the trailer, consistent with the
// trailer's scan stats.
func TestQueryTraceFrame(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	c := client.New(ts.Base)
	seedSmall(t, c)

	rows, err := c.Query(context.Background(),
		"select K, sum(V) as SV from S group by K order by K", client.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var n int
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if rows.QueryID() == "" {
		t.Error("header carries no query id")
	}
	node := rows.Trace()
	if node == nil {
		t.Fatal("traced query streamed no trace frame")
	}
	if node.Name != "query" {
		t.Fatalf("trace root = %q, want query", node.Name)
	}
	var find func(*client.TraceNode, string) *client.TraceNode
	find = func(tn *client.TraceNode, name string) *client.TraceNode {
		if tn.Name == name {
			return tn
		}
		for _, ch := range tn.Children {
			if hit := find(ch, name); hit != nil {
				return hit
			}
		}
		return nil
	}
	scan := find(node, "scan")
	if scan == nil {
		t.Fatal("trace has no scan span")
	}
	stats, ok := rows.Stats()
	if !ok {
		t.Fatal("trailer carries no stats")
	}
	if int(scan.PagesRead) != stats.PagesRead {
		t.Errorf("trace pages=%d, trailer pages=%d", scan.PagesRead, stats.PagesRead)
	}

	// An untraced query must not stream a trace frame.
	rows2, err := c.Query(context.Background(), "select count(*) from S")
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	for rows2.Next() {
	}
	if rows2.Err() != nil {
		t.Fatal(rows2.Err())
	}
	if rows2.Trace() != nil {
		t.Error("untraced query streamed a trace frame")
	}
}

// fetchMetrics GETs /metrics and returns the body.
func fetchMetrics(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMetricsExposition requires the full /metrics body — server
// registry plus engine registry — to pass the strict exposition parser,
// and the expected families from every layer to be present.
func TestMetricsExposition(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	c := client.New(ts.Base)
	seedSmall(t, c)
	rows, err := c.Query(context.Background(), "select K, sum(V) from S group by K")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()

	body := fetchMetrics(t, ts.Base)
	if err := testutil.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics is not a valid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		// server registry
		"sma_queries_total 1", "sma_server_request_seconds_bucket{route=\"query\",",
		"sma_sessions_max", "sma_uptime_seconds",
		// engine registry, concatenated after
		"sma_engine_queries_total{strategy=", "sma_storage_read_seconds_bucket",
		"sma_pool_hits_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
