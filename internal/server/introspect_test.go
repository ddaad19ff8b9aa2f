package server_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"sma/client"
	"sma/internal/parser"
	"sma/internal/server"
	"sma/internal/testutil"
)

// TestIntrospectionOverWire: the introspection catalog streams through the
// ordinary wire protocol — header, live rows, trailer — like any SELECT.
func TestIntrospectionOverWire(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	ctx := context.Background()
	c := client.New(ts.Base)
	seedSmall(t, c)
	workload := "select K, sum(V) from S group by K"
	for i := 0; i < 2; i++ {
		rows, err := c.Query(ctx, workload)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
	}

	rows, err := c.Query(ctx, "select * from sma_stat_statements order by total_ms")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols := rows.Columns()
	if len(cols) == 0 || cols[0] != "FINGERPRINT" {
		t.Fatalf("columns = %v", cols)
	}
	if got := rows.Strategy(); got != "MemScan" {
		t.Errorf("strategy = %q", got)
	}
	callsIdx, queryIdx, totalIdx := -1, -1, -1
	for i, c := range cols {
		switch c {
		case "CALLS":
			callsIdx = i
		case "QUERY":
			queryIdx = i
		case "TOTAL_MS":
			totalIdx = i
		}
	}
	if callsIdx < 0 || queryIdx < 0 || totalIdx < 0 {
		t.Fatalf("missing catalog columns in %v", cols)
	}
	var n int64
	found := false
	prev := -1.0
	for rows.Next() {
		row := rows.Row()
		n++
		total, err := strconv.ParseFloat(row[totalIdx], 64)
		if err != nil {
			t.Fatalf("total_ms %q: %v", row[totalIdx], err)
		}
		if total < prev {
			t.Errorf("total_ms out of order: %v after %v", total, prev)
		}
		prev = total
		if strings.Contains(row[queryIdx], "sum ( v ) from s") {
			found = true
			if row[callsIdx] != "2" {
				t.Errorf("workload calls = %q, want 2", row[callsIdx])
			}
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 || !found {
		t.Fatalf("no live workload row among %d statements", n)
	}
	if count, _, _, ok := rows.Trailer(); !ok || count != n {
		t.Errorf("trailer count = %d ok=%v, want %d", count, ok, n)
	}
}

// TestEverySurfaceAgreesOverWire is the wire half of the engine's
// TestEverySurfaceAgrees: what the NDJSON trailers reported, statement by
// statement, is what the trace frames, sma_stat_statements and the
// /metrics families show — to the row, page and bucket, failed statements
// included. Every text sent, loads, an UPDATE, an EXPLAIN sent to /exec and
// texts that do not parse among them, is found in sma_stat_statements
// under parser.Fingerprint of the text (the trailer carries no
// fingerprint).
func TestEverySurfaceAgreesOverWire(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	ctx := context.Background()
	c := client.New(ts.Base)
	seedSmall(t, c)
	inserts := int64(1)
	// Enough pages that selective predicates prune and two workers split a
	// scan: 20 statements of 300 rows, dates ascending.
	var load string
	for s := 0; s < 20; s++ {
		var b strings.Builder
		b.WriteString("insert into S values ")
		for r := 0; r < 300; r++ {
			i := s*300 + r
			if r > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(date '2024-%02d-%02d', '%c', %d)", 3+i/2000, 1+i/80%25, "AB"[i%2], i%7)
		}
		if load = b.String(); s == 0 {
			load += ";"
		}
		if _, err := c.Exec(ctx, load); err != nil {
			t.Fatal(err)
		}
		inserts++
	}
	ddl := []string{"define sma dmin select min(D) from S", "define sma dmax select max(D) from S",
		"define sma vsum select sum(V) from S group by K"}
	for _, d := range ddl {
		if _, err := c.Exec(ctx, d); err != nil {
			t.Fatal(err)
		}
	}

	type totals struct{ calls, rows, pages, q, d, a int64 }
	var all totals
	per := map[string]*totals{}
	strategies := map[string]int64{}
	// run streams sql to its trailer, holds a trace frame to the trailer,
	// and tallies what the trailer said.
	run := func(sql string, opts ...client.QueryOption) *client.Rows {
		t.Helper()
		rows, err := c.Query(ctx, sql, opts...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		defer rows.Close()
		var out [][]string
		for rows.Next() {
			out = append(out, append([]string(nil), rows.Row()...))
		}
		count, _, st, ok := rows.Trailer()
		if err := rows.Err(); err != nil || !ok || st == nil || count != int64(len(out)) {
			t.Fatalf("%s: err=%v trailer ok=%v stats=%v count=%d of %d rows", sql, err, ok, st, count, len(out))
		}
		if node := rows.Trace(); node != nil {
			checkTraceFrame(t, node, *st, count, rows.Parallelism())
		}
		if per[sql] == nil {
			per[sql] = &totals{}
		}
		for _, tot := range []*totals{&all, per[sql]} {
			tot.calls++
			tot.rows += count
			tot.pages += int64(st.PagesRead)
			tot.q += int64(st.QualifyingBuckets)
			tot.d += int64(st.DisqualifyingBuckets)
			tot.a += int64(st.AmbivalentBuckets)
		}
		strategies[rows.Strategy()]++
		return rows
	}
	const (
		grouped = "select K, sum(V) from S group by K"
		ranged  = "select max(V) from S where D <= date '2024-03-03'"
		full    = "select max(V) from S where V >= 3"
		proj    = "select D, V from S where D >= date '2024-05-24'"
		mem     = "select CALLS, count(*) from sma_stat_statements group by CALLS"
		par     = "select min(V) from S where V >= 1"
		noTable = "select count(*) from NOPE"
		badIns  = "insert into S values (1)"
	)
	for _, tc := range []struct {
		sql, strategy string
		dop           int
	}{
		{grouped, "SMA_GAggr", 1}, {ranged, "SMA_Scan+GAggr", 1}, {full, "FullScan+GAggr", 1},
		{proj, "SMA_Scan", 1}, {mem, "MemScan", 1}, {par, "FullScan+GAggr", 2},
	} {
		for _, opts := range [][]client.QueryOption{nil, {client.WithTrace()}} {
			rows := run(tc.sql, append(opts, client.WithDOP(tc.dop))...)
			if rows.Strategy() != tc.strategy || rows.Parallelism() != tc.dop {
				t.Fatalf("%s: strategy %s at dop %d, want %s at dop %d", tc.sql, rows.Strategy(), rows.Parallelism(), tc.strategy, tc.dop)
			}
		}
	}
	if _, err := c.Query(ctx, noTable); err == nil {
		t.Fatal("query over an unknown table accepted")
	}
	strategies["none"]++
	if _, err := c.Exec(ctx, badIns); err == nil {
		t.Fatal("short insert accepted")
	}
	inserts++
	// Texts the engine fingerprints from their parse, or, when they do not
	// parse, with parser.Fingerprint: each is found under the latter.
	const (
		update   = "Update S set V = V + 1 where D >= DATE '2024-05-20' -- a write"
		explain  = "explain select count(*) from S"
		badParse = "select K from S where"
	)
	if _, err := c.Exec(ctx, update); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{explain, badParse} {
		if _, err := c.Exec(ctx, sql); err == nil {
			t.Fatalf("%s: ran through /exec", sql)
		}
	}
	if _, err := c.Query(ctx, badParse); err == nil {
		t.Fatalf("%s: ran through /query", badParse)
	}
	strategies["none"]++
	history := []string{grouped, ranged, full, proj, mem, par}
	var stmts [][]string
	rows, err := c.Query(ctx, "select fingerprint, calls, errors, rows, pages_read, qualify, disqualify, ambivalent from sma_stat_statements")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		stmts = append(stmts, append([]string(nil), rows.Row()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	strategies["MemScan"]++
	all.rows += int64(len(stmts))

	// rowFor finds a statement's row by fingerprint: calls, errors, rows,
	// pages_read, qualify, disqualify, ambivalent.
	rowFor := func(sql string) string {
		t.Helper()
		fp, _ := parser.Fingerprint(sql)
		for _, row := range stmts {
			if row[0] == fmt.Sprintf("%016x", fp) {
				return strings.Join(row[1:], " ")
			}
		}
		t.Errorf("%s: no sma_stat_statements row", sql)
		return ""
	}
	for _, sql := range history {
		want := per[sql]
		if got, exp := rowFor(sql), fmt.Sprint(want.calls, 0, want.rows, want.pages, want.q, want.d, want.a); got != exp {
			t.Errorf("%s: sma_stat_statements [%s], trailers reported [%s]", sql, got, exp)
		}
	}
	for _, sql := range []string{noTable, badIns, explain} {
		if got := rowFor(sql); got != "1 1 0 0 0 0 0" {
			t.Errorf("%s: sma_stat_statements [%s], want one call, one error", sql, got)
		}
	}
	if got := rowFor(badParse); got != "2 2 0 0 0 0 0" {
		t.Errorf("%s: sma_stat_statements [%s], want two calls, two errors", badParse, got)
	}
	if got := rowFor(load); got != fmt.Sprint(inserts-1, " 0 0 0 0 0 0") { // all but badIns share one
		t.Errorf("the inserts: sma_stat_statements [%s], want %d calls", got, inserts-1)
	}
	if got := rowFor(update); !strings.HasPrefix(got, "1 0 ") {
		t.Errorf("%s: sma_stat_statements [%s], want one call", update, got)
	}

	expo := fetchMetrics(t, ts.Base)
	want := map[string]int64{
		"sma_engine_rows_total":                          all.rows,
		"sma_engine_pages_read_total":                    all.pages,
		`sma_engine_buckets_total{outcome="qualify"}`:    all.q,
		`sma_engine_buckets_total{outcome="disqualify"}`: all.d,
		`sma_engine_buckets_total{outcome="ambivalent"}`: all.a,
		`sma_engine_execs_total{kind="create table"}`:    1,
		`sma_engine_execs_total{kind="define sma"}`:      int64(len(ddl)),
		`sma_engine_execs_total{kind="insert"}`:          inserts, // the failed one included
	}
	for strategy, n := range strategies {
		want[fmt.Sprintf("sma_engine_queries_total{strategy=%q}", strategy)] = n
	}
	for series, n := range want {
		if got := testutil.Metric(t, expo, series); got != n {
			t.Errorf("%s = %d, trailers reported %d", series, got, n)
		}
	}
}

// checkTraceFrame holds a trace frame to the trailer of its stream: the
// phase carrying the scan's counters — scan, or merge at dop > 1 — equals
// the trailer's stats, the worker rows sum to merge's, stream carries the
// rows streamed, and the phases take no negative time and sum to at most
// the statement's duration.
func checkTraceFrame(t *testing.T, node *client.TraceNode, st client.Stats, count int64, dop int) {
	t.Helper()
	counters := func(n *client.TraceNode) client.Stats {
		return client.Stats{QualifyingBuckets: int(n.Qualify), DisqualifyingBuckets: int(n.Disqualify),
			AmbivalentBuckets: int(n.Ambivalent), PagesRead: int(n.PagesRead), Batches: int(n.Batches),
			PagesPrefetched: int(n.PagesPrefetched), PrefetchHits: int(n.PrefetchHits)}
	}
	phase := map[string]*client.TraceNode{}
	var sum int64
	for _, ph := range node.Children {
		phase[ph.Name] = ph
		if ph.DurMicros < 0 {
			t.Errorf("%s: phase %s took %dµs", node.Note, ph.Name, ph.DurMicros)
		}
		sum += ph.DurMicros
	}
	if sum > node.DurMicros {
		t.Errorf("%s: phases sum to %dµs, the statement took %dµs", node.Note, sum, node.DurMicros)
	}
	counted := phase["scan"]
	if dop > 1 {
		counted = phase["merge"]
		var workers client.Stats
		for _, w := range counted.Children {
			c := counters(w)
			workers.QualifyingBuckets += c.QualifyingBuckets
			workers.DisqualifyingBuckets += c.DisqualifyingBuckets
			workers.AmbivalentBuckets += c.AmbivalentBuckets
			workers.PagesRead += c.PagesRead
			workers.Batches += c.Batches
			workers.PagesPrefetched += c.PagesPrefetched
			workers.PrefetchHits += c.PrefetchHits
		}
		if len(counted.Children) != dop || workers != counters(counted) {
			t.Errorf("%s: %d worker rows summing to %+v, merge %+v", node.Note, len(counted.Children), workers, counters(counted))
		}
	}
	if counted == nil || counters(counted) != st {
		t.Errorf("%s: trace counters disagree with the trailer's %+v", node.Note, st)
	}
	if stream := phase["stream"]; stream == nil || stream.Rows != count {
		t.Errorf("%s: stream phase does not carry the %d rows streamed", node.Note, count)
	}
}

// TestExecWALCountersOverWire: DML responses carry the WAL deltas end to
// end, and `reset stats` executes through the wire like any statement.
func TestExecWALCountersOverWire(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	ctx := context.Background()
	c := client.New(ts.Base)
	seedSmall(t, c)
	res, err := c.Exec(ctx, "insert into S values (date '2024-03-01', 'C', 9)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 || res.WALBytes <= 0 || res.WALSyncs <= 0 {
		t.Errorf("exec result = %+v", res)
	}

	if _, err := c.Exec(ctx, "reset stats"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, "select * from sma_stat_tables")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
		t.Errorf("sma_stat_tables after reset: %v", rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsExpositionWhileDegraded: a degraded (corrupt, read-only)
// database keeps /metrics serving a strictly valid exposition.
func TestMetricsExpositionWhileDegraded(t *testing.T) {
	dir := seedCorruptDir(t)
	ts := startServerAt(t, dir, nil, server.Config{})
	ctx := context.Background()

	rep, err := ts.DB.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("scrub missed seeded corruption")
	}
	c := client.New(ts.Base)
	err = c.Ready(ctx)
	if se, ok := err.(*client.Error); !ok || !se.IsDegraded() {
		t.Fatalf("Ready = %v, want degraded", err)
	}

	body := fetchMetrics(t, ts.Base)
	if err := testutil.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics invalid while degraded: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "sma_uptime_seconds") {
		t.Errorf("degraded /metrics missing server families:\n%s", body)
	}
}

// TestMetricsExpositionWhileDraining: a draining server (shutdown begun,
// /readyz 503) still serves a valid exposition for the final scrape.
func TestMetricsExpositionWhileDraining(t *testing.T) {
	ts := startServer(t, nil, server.Config{})
	ctx := context.Background()
	c := client.New(ts.Base)
	seedSmall(t, c)
	if err := ts.Srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	err := c.Ready(ctx)
	if se, ok := err.(*client.Error); !ok || !strings.Contains(se.Message, "draining") {
		t.Fatalf("Ready = %v, want draining 503", err)
	}

	body := fetchMetrics(t, ts.Base)
	if err := testutil.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics invalid while draining: %v\n%s", err, body)
	}
}
