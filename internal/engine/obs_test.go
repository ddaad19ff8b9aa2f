package engine_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"sma/internal/engine"
	"sma/internal/obs"
)

// drainCursor pulls a cursor to the end, returning the rows and the
// terminal error (nil at a clean end of stream).
func drainCursor(t *testing.T, cur *engine.Cursor) ([][]any, error) {
	t.Helper()
	var rows [][]any
	for {
		vals, ok, err := cur.Next()
		if err != nil {
			return rows, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(rows, append([]any(nil), vals...))
	}
}

// TestQueryTrace runs a traced aggregation and checks the trace shape —
// query over the phases parse, plan, grade, scan, fold and stream — and
// the scan phase's counters agreeing with the cursor's scan stats.
func TestQueryTrace(t *testing.T) {
	db, _ := openSales(t, t.TempDir())
	defer db.Close()
	for _, ddl := range []string{
		"define sma dmin select min(SALE_DATE) from SALES",
		"define sma dmax select max(SALE_DATE) from SALES",
	} {
		if _, err := db.DefineSMA(ddl); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := db.QueryContext(context.Background(),
		`select REGION, sum(AMOUNT) from SALES where SALE_DATE <= date '2021-03-31' group by REGION`,
		engine.WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainCursor(t, cur); err != nil {
		t.Fatal(err)
	}
	stats, ok := cur.Stats()
	if !ok {
		t.Fatal("plan tracks no stats")
	}
	node := cur.TraceNode()
	if node == nil {
		t.Fatal("traced query returned no trace")
	}
	if node.Name != "query" {
		t.Fatalf("root span = %q, want query", node.Name)
	}
	var phases []string
	for _, c := range node.Children {
		phases = append(phases, c.Name)
	}
	if got := strings.Join(phases, " "); got != "parse plan grade scan fold stream" {
		t.Errorf("trace phases %q:\n%s", got, node.Render())
	}
	scan := node.Find("scan")
	if scan == nil {
		t.Fatalf("no scan span:\n%s", node.Render())
	}
	if int(scan.PagesRead) != stats.PagesRead {
		t.Errorf("scan span pages=%d, cursor stats pages=%d", scan.PagesRead, stats.PagesRead)
	}
	if q, d, a := int(scan.Qualify), int(scan.Disqualify), int(scan.Ambivalent); q != stats.Qualifying || d != stats.Disqualifying || a != stats.Ambivalent {
		t.Errorf("scan span buckets %d/%d/%d, cursor stats %d/%d/%d",
			q, d, a, stats.Qualifying, stats.Disqualifying, stats.Ambivalent)
	}
	if cur.Close() != nil {
		t.Fatal("close failed")
	}
}

// TestExplainAnalyze routes "explain analyze" through the streaming
// query path and requires the rendered tree to agree with the inner
// query's own stats: the pages and bucket grades printed in the tree
// are the ones a plain run of the query reports.
func TestExplainAnalyze(t *testing.T) {
	db, _ := openSales(t, t.TempDir())
	defer db.Close()
	for _, ddl := range []string{
		"define sma dmin select min(SALE_DATE) from SALES",
		"define sma dmax select max(SALE_DATE) from SALES",
	} {
		if _, err := db.DefineSMA(ddl); err != nil {
			t.Fatal(err)
		}
	}
	const q = `select REGION, sum(AMOUNT) from SALES where SALE_DATE <= date '2021-03-31' group by REGION`

	cur, err := db.QueryContext(context.Background(), "explain analyze "+q)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := drainCursor(t, cur)
	if err != nil {
		t.Fatal(err)
	}
	if cols := cur.Columns(); len(cols) != 1 || cols[0].Name != "QUERY PLAN" {
		t.Fatalf("explain columns = %v", cols)
	}
	var text bytes.Buffer
	for _, l := range lines {
		text.WriteString(l[0].(string))
		text.WriteByte('\n')
	}
	node := cur.TraceNode()
	if node == nil {
		t.Fatal("explain analyze carries no trace node")
	}
	stats, ok := cur.Stats()
	if !ok {
		t.Fatal("explain analyze cursor lost the inner plan's stats")
	}
	// The rendered text is plan.Explain + blank + the trace.
	for _, want := range []string{"on SALES", "fold", "scan"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("explain analyze output missing %q:\n%s", want, text.String())
		}
	}
	scan := node.Find("scan")
	if scan == nil {
		t.Fatalf("no scan span:\n%s", node.Render())
	}
	if int(scan.PagesRead) != stats.PagesRead {
		t.Errorf("rendered pages=%d, stats pages=%d", scan.PagesRead, stats.PagesRead)
	}

	// Plain EXPLAIN streams the plan only, holds no trace, and the text
	// matches the head of the ANALYZE output.
	cur2, err := db.QueryContext(context.Background(), "explain "+q)
	if err != nil {
		t.Fatal(err)
	}
	plainLines, err := drainCursor(t, cur2)
	if err != nil {
		t.Fatal(err)
	}
	if cur2.TraceNode() != nil {
		t.Error("plain explain must not execute the query")
	}
	if len(plainLines) == 0 || !strings.HasPrefix(text.String(), plainLines[0][0].(string)) {
		t.Errorf("explain text diverges from explain analyze header")
	}
}

// TestTraceParallel checks the parallel trace: a merge phase noted with
// the dop and one worker row per partition, the workers' page counts
// summing to the merge phase's.
func TestTraceParallel(t *testing.T) {
	db, _ := openSales(t, t.TempDir())
	defer db.Close()
	cur, err := db.QueryContext(context.Background(),
		`select REGION, sum(AMOUNT) from SALES group by REGION`,
		engine.WithTrace(true), engine.WithDOP(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainCursor(t, cur); err != nil {
		t.Fatal(err)
	}
	node := cur.TraceNode()
	merge := node.Find("merge")
	if merge == nil {
		t.Fatalf("parallel trace missing merge span:\n%s", node.Render())
	}
	if !strings.Contains(merge.Note, "dop=2") {
		t.Errorf("merge note = %q, want dop=2", merge.Note)
	}
	var workers, workerPages int64
	for _, c := range merge.Children {
		if c.Name == "worker" {
			workers++
			workerPages += c.PagesRead
		}
	}
	if workers != 2 {
		t.Fatalf("merge has %d worker spans, want 2:\n%s", workers, node.Render())
	}
	if workerPages != merge.PagesRead {
		t.Errorf("worker pages sum %d, merge span pages %d", workerPages, merge.PagesRead)
	}
}

// TestTraceCancellation cancels a traced query mid-scan and requires a
// well-formed partial trace and no leaked goroutines — the invariants that
// make tracing safe to leave on in a server that aborts queries routinely.
func TestTraceCancellation(t *testing.T) {
	db, _ := openSales(t, t.TempDir())
	defer db.Close()
	baseline := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := db.QueryContext(ctx,
			`select REGION, sum(AMOUNT) from SALES group by REGION`,
			engine.WithTrace(true), engine.WithDOP(2))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel() // the scan notices at the next bucket/page boundary
		_, err = drainCursor(t, cur)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("drain after cancel: %v", err)
		}
		node := cur.TraceNode()
		if node == nil {
			t.Fatal("cancelled traced query lost its trace")
		}
		if node.Name != "query" || node.Find("merge") == nil {
			t.Fatalf("partial trace malformed:\n%s", node.Render())
		}
		if cur.Close() != nil {
			t.Fatal("close failed")
		}
	}

	// Workers unwind asynchronously after cancellation; give them a beat.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked: %d now, %d at baseline", n, baseline)
	}
}

// TestObserverMetrics runs queries against an observed database and
// checks the engine families accumulate and render as a valid
// exposition.
func TestObserverMetrics(t *testing.T) {
	dir := t.TempDir()
	o := obs.NewObserver(obs.Config{})
	db, err := engine.Open(dir, engine.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecContext(context.Background(),
		"create table T (D date, V float64)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(context.Background(),
		"insert into T values (date '2024-01-01', 1), (date '2024-01-02', 2)"); err != nil {
		t.Fatal(err)
	}
	cur, err := db.QueryContext(context.Background(), "select count(*) from T")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drainCursor(t, cur); err != nil {
		t.Fatal(err)
	}
	if cur.QueryID() == "" {
		t.Error("observed query has no query id")
	}
	var buf bytes.Buffer
	if err := db.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("engine exposition invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"sma_engine_queries_total{strategy=", "sma_engine_execs_total{kind=\"insert\"} 1",
		"sma_engine_rows_total 1", "sma_pool_hits_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}
