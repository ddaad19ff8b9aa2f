package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sma/internal/chaos"
	"sma/internal/engine"
	"sma/internal/obs"
	"sma/internal/parser"
	"sma/internal/storage"
	"sma/internal/testutil"
)

// Columns of sma_stat_statements, sma_stat_tables and sma_stat_smas the
// tests below read by position.
const (
	stCalls, stErrors, stRows, stRowsAffected = 1, 2, 8, 9
	stPagesRead, stQualify, stDisqualify      = 10, 12, 13
	stAmbivalent, stStrategy, stQuery         = 14, 15, 19

	tbScans, tbRowsRead, tbPagesRead              = 1, 2, 3
	tbInserts, tbUpdates, tbDeletes, tbRowsAffect = 5, 6, 7, 8

	smName, smConsulted, smMaintOps = 1, 4, 7
)

func exposition(t *testing.T, db *engine.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFailedStatementsAreRecorded: a statement that registered an activity
// is recorded exactly once however it ends — rejected by the parser or the
// planner, cancelled before it started, timed out inside the aggregation
// its Open runs, or a DML statement that fails.
func TestFailedStatementsAreRecorded(t *testing.T) {
	dir := t.TempDir()
	openObsSales(t, dir).Close()
	// Reopen so the heap is cold: the deadline case below needs Open to
	// reach the disk.
	db, err := engine.Open(dir, engine.Options{Obs: obs.NewObserver(obs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bg := context.Background()

	const (
		unparsable = "select nonsense"
		noTable    = "select count(*) from NOPE"
		cancelled  = "select count(*) from SALES"
		timedOut   = "select sum(AMOUNT) from SALES"
		badInsert  = "insert into SALES values (1)"
		badExec    = "frobnicate SALES"
	)
	for _, sql := range []string{unparsable, noTable} {
		if _, err := db.QueryContext(bg, sql); err == nil {
			t.Fatalf("%s: accepted", sql)
		}
	}
	dead, cancel := context.WithCancel(bg)
	cancel()
	if _, err := db.QueryContext(dead, cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query: %v", err)
	}

	// Every page read stalls until the deadline has passed, so the scan's
	// next context check — inside the aggregation that Open runs — fails.
	tbl, err := db.Table("SALES")
	if err != nil {
		t.Fatal(err)
	}
	late, cancelLate := context.WithTimeout(bg, 100*time.Millisecond)
	defer cancelLate()
	tbl.Disk().SetFault(func(op string, _ storage.PageID) error {
		if op == "read" {
			<-late.Done()
		}
		return nil
	})
	_, err = db.QueryContext(late, timedOut)
	tbl.Disk().SetFault(nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query under an expiring deadline: %v", err)
	}

	for _, sql := range []string{badInsert, badExec} {
		if _, err := db.ExecContext(bg, sql); err == nil {
			t.Fatalf("%s: accepted", sql)
		}
	}

	expo := exposition(t, db)
	for series, want := range map[string]int64{
		`sma_engine_queries_total{strategy="none"}`:           3,
		`sma_engine_queries_total{strategy="FullScan+GAggr"}`: 1,
		`sma_engine_execs_total{kind="insert"}`:               1,
		`sma_engine_execs_total{kind="invalid"}`:              1,
		`sma_engine_exec_seconds_count{kind="insert"}`:        1,
	} {
		if got := testutil.Metric(t, expo, series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
	for sql, strategy := range map[string]string{
		unparsable: "none", noTable: "none", cancelled: "none", timedOut: "FullScan+GAggr",
		badInsert: "insert", badExec: "invalid",
	} {
		row := statementRow(t, db, sql)
		if row == nil {
			t.Errorf("%s: no sma_stat_statements row", sql)
			continue
		}
		if row[stCalls].(int64) != 1 || row[stErrors].(int64) != 1 {
			t.Errorf("%s: calls=%v errors=%v, want 1 and 1", sql, row[stCalls], row[stErrors])
		}
		if got := strings.TrimSpace(row[stStrategy].(string)); got != strategy {
			t.Errorf("%s: strategy = %q, want %q", sql, got, strategy)
		}
	}
	// Nothing is left in flight but the query looking.
	if acts := mustQuery(t, db, "select * from sma_stat_activity"); len(acts) != 1 {
		t.Errorf("sma_stat_activity = %v", acts)
	}

	// reset stats still does not repopulate what it cleared.
	if _, err := db.ExecContext(bg, "reset stats"); err != nil {
		t.Fatal(err)
	}
	if rows := mustQuery(t, db, "select * from sma_stat_statements"); len(rows) != 0 {
		t.Errorf("sma_stat_statements after reset = %v", rows)
	}
}

// history runs statements and keeps, from what each cursor and result
// itself reported, the totals every observability surface must show.
type history struct {
	t  *testing.T
	db *engine.DB

	queries, execs       map[string]int64 // by strategy, by kind
	rows, pages, q, d, a int64
	perSQL               map[string]*sqlTotals
	consulted            map[string]int64 // by SMA name
	scans                int64            // statements that planned over SALES
	dml                  map[string]int64 // insert/update/delete counts
	affected             int64
	dmlPages             int64 // pages the qualifying scans of UPDATE and DELETE read
}

type sqlTotals struct{ calls, errors, rows, affected, pages, q, d, a int64 }

func (h *history) totals(sql string) *sqlTotals {
	if h.perSQL[sql] == nil {
		h.perSQL[sql] = &sqlTotals{}
	}
	return h.perSQL[sql]
}

// query runs sql (recorded under the statement inner when sql wraps it in
// EXPLAIN ANALYZE, whose innerRows are the rows the inner query streams)
// and tallies what the cursor reported.
func (h *history) query(sql, inner string, innerRows int64, opts ...engine.QueryOption) *engine.Cursor {
	h.t.Helper()
	cur, err := h.db.QueryContext(context.Background(), sql, opts...)
	if err != nil {
		h.t.Fatalf("%s: %v", sql, err)
	}
	rows, err := drainCursor(h.t, cur)
	if err != nil {
		h.t.Fatalf("%s: %v", sql, err)
	}
	n := int64(len(rows))
	if inner == "" {
		inner = sql
	} else {
		n = innerRows
	}
	st, _ := cur.Stats()
	if cur.TraceNode() != nil {
		checkTrace(h.t, cur, n)
	}
	plan := cur.Plan()
	h.queries[plan.StrategyName()]++
	h.rows += n
	h.pages += int64(st.PagesRead)
	h.q += int64(st.Qualifying)
	h.d += int64(st.Disqualifying)
	h.a += int64(st.Ambivalent)
	tot := h.totals(inner)
	tot.calls++
	tot.rows += n
	tot.pages += int64(st.PagesRead)
	tot.q += int64(st.Qualifying)
	tot.d += int64(st.Disqualifying)
	tot.a += int64(st.Ambivalent)
	if plan.Mem == nil {
		h.scans++
		if plan.Query.Where != nil {
			for _, s := range plan.SelSMAs {
				h.consulted[s.Def.Name]++
			}
		}
	}
	return cur
}

// checkTrace holds a traced cursor's trace to the record it renders: the
// phase carrying the scan's counters — scan, or merge for a parallel plan —
// equals Cursor.Stats, the worker rows sum to merge's, stream carries the
// rows streamed, and the phases, exclusive by construction, take no negative
// time and sum to at most the statement's duration.
func checkTrace(t *testing.T, cur *engine.Cursor, rows int64) {
	t.Helper()
	node := cur.TraceNode()
	st, _ := cur.Stats()
	counters := func(n *obs.TraceNode) [7]int64 {
		return [7]int64{n.Qualify, n.Disqualify, n.Ambivalent, n.PagesRead, n.Batches, n.PagesPrefetched, n.PrefetchHits}
	}
	want := [7]int64{int64(st.Qualifying), int64(st.Disqualifying), int64(st.Ambivalent),
		int64(st.PagesRead), int64(st.Batches), int64(st.PagesPrefetched), int64(st.PrefetchHits)}
	var sum int64
	for _, ph := range node.Children {
		if ph.DurMicros < 0 {
			t.Errorf("%s: phase %s took %dµs:\n%s", node.Note, ph.Name, ph.DurMicros, node.Render())
		}
		sum += ph.DurMicros
	}
	if sum > node.DurMicros {
		t.Errorf("%s: phases sum to %dµs, the statement took %dµs:\n%s", node.Note, sum, node.DurMicros, node.Render())
	}
	counted := node.Find("scan")
	if cur.Plan().DOP > 1 {
		counted = node.Find("merge")
		var workers [7]int64
		for _, w := range counted.Children {
			for i, v := range counters(w) {
				workers[i] += v
			}
		}
		if workers != counters(counted) {
			t.Errorf("%s: worker rows sum to %v, merge %v", node.Note, workers, counters(counted))
		}
	}
	if counted == nil || counters(counted) != want {
		t.Errorf("%s: trace counters disagree with cursor stats %+v:\n%s", node.Note, st, node.Render())
	}
	if stream := node.Find("stream"); stream == nil || stream.Rows != rows {
		t.Errorf("%s: stream phase does not carry the %d rows streamed:\n%s", node.Note, rows, node.Render())
	}
}

// sameRecord holds a query's second run, from the statement cache, to its
// first: the same plan, the same scan counters, and — traced — the same
// phases with the same counters, the grade phase's §3.1 counts included;
// only the times may differ.
func sameRecord(t *testing.T, sql string, first, second *engine.Cursor) {
	t.Helper()
	a, _ := first.Stats()
	b, _ := second.Stats()
	if a.Qualifying != b.Qualifying || a.Disqualifying != b.Disqualifying || a.Ambivalent != b.Ambivalent || a.PagesRead != b.PagesRead {
		t.Errorf("%s: cached run's stats %+v, first run's %+v", sql, b, a)
	}
	p, q := first.Plan(), second.Plan()
	if p.StrategyName() != q.StrategyName() || p.DOP != q.DOP || p.Grades != q.Grades || p.CostSMA != q.CostSMA {
		t.Errorf("%s: cached plan %s (dop %d, %+v), first %s (dop %d, %+v)", sql,
			q.StrategyName(), q.DOP, q.Grades, p.StrategyName(), p.DOP, p.Grades)
	}
	x, y := first.TraceNode(), second.TraceNode()
	if x == nil || y == nil {
		return
	}
	shape := func(n *obs.TraceNode) string {
		var b strings.Builder
		for _, ph := range n.Children {
			c := ph.Counters
			if ph.Name != "stream" && ph.Name != "merge" && ph.Name != "scan" {
				c.Rows = 0 // rows a virtual table's fold groups may differ
			}
			fmt.Fprintf(&b, "%s %+v\n", ph.Name, c)
		}
		return b.String()
	}
	if shape(x) != shape(y) {
		t.Errorf("%s: cached run's trace\n%s\nfirst run's\n%s", sql, y.Render(), x.Render())
	}
}

func (h *history) exec(sql string) {
	h.t.Helper()
	h.execWhere(sql, "", "")
}

// execWhere runs a DML statement; for an UPDATE or DELETE of table whose
// predicate is where, it first plans the same predicate as a query and
// tallies its §3.1 grades and the pages of the buckets they keep — what the
// statement's qualifying scan must report.
func (h *history) execWhere(sql, table, where string) {
	h.t.Helper()
	tot := h.totals(sql)
	if where != "" {
		plan, err := h.db.Plan("select count(*) from " + table + " where " + where)
		if err != nil {
			h.t.Fatal(err)
		}
		g := plan.Grades
		pages := int64(g.Qualifying+g.Ambivalent) * int64(plan.Heap.BucketPages)
		tot.q += int64(g.Qualifying)
		tot.d += int64(g.Disqualifying)
		tot.a += int64(g.Ambivalent)
		tot.pages += pages
		h.dmlPages += pages
	}
	res, err := h.db.ExecContext(context.Background(), sql)
	if err != nil {
		h.t.Fatalf("%s: %v", sql, err)
	}
	h.execs[res.Kind]++
	h.dml[res.Kind]++
	h.affected += res.RowsAffected
	tot.calls++
	tot.affected += res.RowsAffected
}

// find returns the first row whose column col, trimmed, equals want.
func find(rows [][]any, col int, want string) []any {
	for _, r := range rows {
		if strings.TrimSpace(r[col].(string)) == want {
			return r
		}
	}
	return nil
}

// TestEverySurfaceAgrees runs a short mixed history and requires that what
// each cursor reported, its trace, the sma_stat_* tables and the /metrics
// families agree to the row, page and bucket: they are all projections of
// the one statement record.
func TestEverySurfaceAgrees(t *testing.T) {
	db := openObsSales(t, t.TempDir())
	defer db.Close()
	h := &history{t: t, db: db,
		queries: map[string]int64{}, execs: map[string]int64{}, perSQL: map[string]*sqlTotals{},
		consulted: map[string]int64{}, dml: map[string]int64{}}
	for _, ddl := range []string{
		"define sma dmin select min(SALE_DATE) from SALES",
		"define sma dmax select max(SALE_DATE) from SALES",
		"define sma amt select sum(AMOUNT) from SALES group by REGION",
		"define sma cnt select count(*) from SALES group by REGION",
	} {
		h.exec(ddl)
	}
	const (
		gaggr   = "select REGION, sum(AMOUNT) from SALES where SALE_DATE <= date '2021-03-31' group by REGION"
		smaScan = "select max(AMOUNT) from SALES where SALE_DATE <= date '2021-01-20'"
		full    = "select sum(AMOUNT) from SALES where AMOUNT >= 5"
		proj    = "select SALE_DATE, AMOUNT from SALES where SALE_DATE <= date '2021-01-05'"
		mem     = "select CALLS, count(*) from sma_stat_statements group by CALLS"
		par     = "select max(AMOUNT) from SALES where AMOUNT >= 2"
		noTable = "select count(*) from NOPE"
		badIns  = "insert into SALES values (1)"
	)
	// Every shape runs untraced and traced, twice each: parsed and planned,
	// then from the statement cache. history.query holds each trace to its
	// cursor's stats, sameRecord holds the second run to the first, and the
	// cursors' totals are held to sma_stat_statements below.
	for _, c := range []struct {
		sql, strategy string
		dop           int
	}{
		{gaggr, "SMA_GAggr", 1}, {smaScan, "SMA_Scan+GAggr", 1}, {full, "FullScan+GAggr", 1},
		{proj, "SMA_Scan", 1}, {mem, "MemScan", 1}, {par, "FullScan+GAggr", 2},
	} {
		for _, traced := range []bool{false, true} {
			db.ForgetStatements()
			miss := h.query(c.sql, "", 0, engine.WithDOP(c.dop), engine.WithTrace(traced))
			hit := h.query(c.sql, "", 0, engine.WithDOP(c.dop), engine.WithTrace(traced))
			if miss.Cached() || !hit.Cached() {
				t.Fatalf("%s: parse skipped %v, then %v; want false, then true", c.sql, miss.Cached(), hit.Cached())
			}
			sameRecord(t, c.sql, miss, hit)
			plan := hit.Plan()
			if plan.StrategyName() != c.strategy || plan.DOP != c.dop {
				t.Fatalf("%s: strategy %s at dop %d, want %s at dop %d", c.sql, plan.StrategyName(), plan.DOP, c.strategy, c.dop)
			}
		}
	}
	// EXPLAIN ANALYZE is the inner query's record under another renderer,
	// the §3.1 grades of a cached plan included.
	explained := h.query("explain analyze "+gaggr, gaggr, 2)
	if g := explained.TraceNode().Find("grade"); g == nil || g.Qualify+g.Disqualify+g.Ambivalent == 0 {
		t.Errorf("explain analyze of a cached plan shows no grades:\n%s", explained.TraceNode().Render())
	}

	h.exec("insert into SALES values (date '2022-01-01', 'N', 1.5), (date '2022-01-02', 'S', 2.5)")
	h.execWhere("update SALES set AMOUNT = AMOUNT + 1 where SALE_DATE >= date '2022-01-01'",
		"SALES", "SALE_DATE >= date '2022-01-01'")
	h.execWhere("delete from SALES where SALE_DATE = date '2022-01-02'",
		"SALES", "SALE_DATE = date '2022-01-02'")
	hooked := h.affected // every DML row counts once per SMA

	if _, err := db.QueryContext(context.Background(), noTable); err == nil {
		t.Fatal("query over an unknown table accepted")
	}
	h.queries["none"]++
	h.totals(noTable).calls++
	h.totals(noTable).errors++
	if _, err := db.ExecContext(context.Background(), badIns); err == nil {
		t.Fatal("short insert accepted")
	}
	h.execs["insert"]++
	h.totals(badIns).calls++
	h.totals(badIns).errors++

	// The introspection reads are statements too, tallied like the rest.
	var stmts, tabs, smas [][]any
	for name, dst := range map[string]*[][]any{
		"sma_stat_statements": &stmts, "sma_stat_tables": &tabs, "sma_stat_smas": &smas} {
		c, err := db.QueryContext(context.Background(), "select * from "+name)
		if err != nil {
			t.Fatal(err)
		}
		if *dst, err = drainCursor(t, c); err != nil {
			t.Fatal(err)
		}
		h.queries["MemScan"]++
		h.rows += int64(len(*dst))
	}

	for sql, want := range h.perSQL {
		_, norm := parser.Fingerprint(sql)
		row := find(stmts, stQuery, norm[:min(len(norm), 96)])
		if row == nil {
			t.Errorf("%s: no sma_stat_statements row", sql)
			continue
		}
		got := sqlTotals{row[stCalls].(int64), row[stErrors].(int64), row[stRows].(int64),
			row[stRowsAffected].(int64), row[stPagesRead].(int64),
			row[stQualify].(int64), row[stDisqualify].(int64), row[stAmbivalent].(int64)}
		if got != *want {
			t.Errorf("%s: sma_stat_statements %+v, cursors reported %+v", sql, got, *want)
		}
	}

	sales := find(tabs, 0, "SALES")
	if sales == nil {
		t.Fatalf("sma_stat_tables = %v", tabs)
	}
	var heapRows int64
	for _, sql := range []string{gaggr, smaScan, full, proj, par} {
		heapRows += h.perSQL[sql].rows
	}
	for col, want := range map[int]int64{
		tbScans: h.scans, tbRowsRead: heapRows, tbPagesRead: h.pages + h.dmlPages,
		tbInserts: h.dml["insert"], tbUpdates: h.dml["update"], tbDeletes: h.dml["delete"],
		tbRowsAffect: h.affected,
	} {
		if got := sales[col].(int64); got != want {
			t.Errorf("sma_stat_tables column %d = %d, want %d", col, got, want)
		}
	}
	for _, name := range []string{"dmin", "dmax", "amt", "cnt"} {
		row := find(smas, smName, name)
		if row == nil {
			t.Errorf("sma_stat_smas has no row for %s", name)
			continue
		}
		if got := row[smConsulted].(int64); got != h.consulted[name] {
			t.Errorf("%s consulted = %d, plans consulted it %d times", name, got, h.consulted[name])
		}
		if got := row[smMaintOps].(int64); got != hooked {
			t.Errorf("%s maint_ops = %d, DML touched %d rows", name, got, hooked)
		}
	}

	expo := exposition(t, db)
	want := map[string]int64{
		"sma_engine_rows_total":                          h.rows,
		"sma_engine_pages_read_total":                    h.pages,
		`sma_engine_buckets_total{outcome="qualify"}`:    h.q,
		`sma_engine_buckets_total{outcome="disqualify"}`: h.d,
		`sma_engine_buckets_total{outcome="ambivalent"}`: h.a,
	}
	for strategy, n := range h.queries {
		want[fmt.Sprintf("sma_engine_queries_total{strategy=%q}", strategy)] = n
	}
	for kind, n := range h.execs {
		want[fmt.Sprintf("sma_engine_execs_total{kind=%q}", kind)] = n
	}
	for series, n := range want {
		if got := testutil.Metric(t, expo, series); got != n {
			t.Errorf("%s = %d, statements reported %d", series, got, n)
		}
	}
}

// TestEverySurfaceFingerprints: the fingerprint a statement's parse writes
// is the one parser.Fingerprint gives its text, on every surface that shows
// one — sma_stat_statements, the statement's sma_stat_activity row once it
// is parsed, and the slow log — for a load statement, an UPDATE, reads the
// statement cache misses, EXPLAIN through either entrypoint, and texts that
// do not parse (or lex), which are recorded under Fingerprint's normal form.
func TestEverySurfaceFingerprints(t *testing.T) {
	var logBuf bytes.Buffer
	o := obs.NewObserver(obs.Config{
		Logger:    slog.New(slog.NewJSONHandler(&logBuf, nil)),
		SlowQuery: time.Nanosecond, // every statement is logged with its text
	})
	db, err := engine.Open(t.TempDir(), engine.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, "create table SALES (SALE_DATE date, REGION char(1), AMOUNT float64)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO Sales VALUES ")
	for r := 0; r < 100; r++ {
		if r > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(DATE '2022-01-%02d', '%c', -%d.%d)", 1+r%28, "NS"[r%2], r, r%10)
	}
	b.WriteString("; -- a load statement")
	var (
		load     = b.String()
		update   = "Update SALES set AMOUNT = AMOUNT + 1 where SALE_DATE >= date '2022-01-15'"
		sel      = "select REGION, sum(AMOUNT) from SALES where SALE_DATE <= DATE '2022-01-20' group by REGION;"
		activity = "select KIND, FINGERPRINT, SQL_TEXT from sma_stat_activity"
		explain  = "explain select count(*) from SALES"
		badParse = "select REGION from SALES where"
		badLex   = "update SALES set REGION = 'unterminated"
	)

	// Each write waits out a stalled fsync, parsed, while its activity row
	// is read.
	db.SetWALFault(chaos.Stall("sync", 20*time.Millisecond))
	for _, sql := range []string{load, update} {
		done := make(chan error, 1)
		go func() {
			_, err := db.ExecContext(ctx, sql)
			done <- err
		}()
		fp, _ := parser.Fingerprint(sql)
		var got string // the statement's activity row's fingerprint, once parsed
		for got == "" {
			for _, row := range mustQuery(t, db, activity) {
				if row[0].(string) == "exec" && row[1].(string) != fmt.Sprintf("%016x", 0) {
					got = row[1].(string)
				}
			}
			if got == "" {
				select {
				case err := <-done:
					t.Fatalf("%.40s...: ended (%v), never in sma_stat_activity with a fingerprint", sql, err)
				default:
				}
			}
		}
		if got != fmt.Sprintf("%016x", fp) {
			t.Errorf("%.40s...: sma_stat_activity fingerprint %s, parser.Fingerprint %016x", sql, got, fp)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	db.SetWALFault(nil)

	// A read the statement cache misses finds itself in the activity
	// snapshot it plans from, parsed.
	db.ForgetStatements()
	own, _ := parser.Fingerprint(activity)
	if row := find(mustQuery(t, db, activity), 0, "query"); row == nil || row[1].(string) != fmt.Sprintf("%016x", own) {
		t.Errorf("a cache-missing read's own activity row is %v, want fingerprint %016x", row, own)
	}
	mustQuery(t, db, sel)
	mustQuery(t, db, "explain analyze "+sel) // recorded as sel, now from the cache
	if _, err := db.ExecContext(ctx, explain); err == nil {
		t.Fatal("EXPLAIN through ExecContext accepted")
	}
	if _, err := db.ExecContext(ctx, badParse); err == nil {
		t.Fatal("a text that does not parse ran")
	}
	if _, err := db.QueryContext(ctx, badParse); err == nil {
		t.Fatal("a text that does not parse ran")
	}
	if _, err := db.ExecContext(ctx, badLex); err == nil {
		t.Fatal("a text that does not lex ran")
	}

	stmts := mustQuery(t, db, "select FINGERPRINT, CALLS, ERRORS, QUERY from sma_stat_statements")
	// calls and errors of each text; the activity read ran as often as
	// the writes took to show up.
	for sql, want := range map[string]string{
		load: "1 0", update: "1 0", activity: "", sel: "2 0",
		explain: "1 1", badParse: "2 2", badLex: "1 1",
	} {
		fp, norm := parser.Fingerprint(sql)
		row := find(stmts, 0, fmt.Sprintf("%016x", fp))
		if row == nil {
			t.Errorf("%.40s: no sma_stat_statements row under %016x", sql, fp)
			continue
		}
		got := fmt.Sprint(row[1], " ", row[2])
		if strings.TrimSpace(row[3].(string)) != norm[:min(len(norm), 96)] || want != "" && got != want {
			t.Errorf("%.40s: sma_stat_statements row %v, want calls and errors %q, normal form %q", sql, row, want, norm)
		}
	}

	// The slow log names each statement's text and fingerprint.
	logged := 0
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec struct{ Msg, SQL, Fingerprint string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		if !strings.HasPrefix(rec.Msg, "slow ") {
			continue
		}
		logged++
		if fp, _ := parser.Fingerprint(rec.SQL); rec.Fingerprint != fmt.Sprintf("%016x", fp) {
			t.Errorf("slow log: %.40s under %s, parser.Fingerprint %016x", rec.SQL, rec.Fingerprint, fp)
		}
	}
	if logged == 0 {
		t.Fatalf("no slow-log lines:\n%s", logBuf.String())
	}
}

// TestStatementWALTrafficIsItsOwn: a DML statement is charged the bytes of
// its own commit frame and the fsync it led, so over concurrent writers the
// statements' WAL_BYTES and WAL_SYNCS — summed over sma_stat_statements, and
// over the ExecResults — are exactly the log's Bytes and Syncs deltas. A
// stalled fsync keeps every barrier in flight while other writers commit
// and wait; checkpoints, whose page images are no statement's, are kept out
// of the way.
func TestStatementWALTrafficIsItsOwn(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.Options{Obs: obs.NewObserver(obs.Config{}), CheckpointBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	for _, sql := range []string{"create table W (K int64, V float64)", "reset stats"} {
		if _, err := db.ExecContext(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	db.SetWALFault(chaos.Stall("sync", time.Millisecond))
	before := db.WALStats()
	const writers, each = 8, 25
	var bytes, syncs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				res, err := db.ExecContext(ctx, fmt.Sprintf("insert into W values (%d, %d.5)", w, i))
				if err != nil {
					t.Error(err)
					return
				}
				bytes.Add(res.WALBytes)
				syncs.Add(res.WALSyncs)
			}
		}(w)
	}
	wg.Wait()
	after := db.WALStats()
	db.SetWALFault(nil)
	if after.GroupedWaits == before.GroupedWaits {
		t.Fatal("no statement waited on another's fsync: the writers never overlapped")
	}
	wantBytes, wantSyncs := int64(after.Bytes-before.Bytes), int64(after.Syncs-before.Syncs)
	if bytes.Load() != wantBytes || syncs.Load() != wantSyncs {
		t.Errorf("ExecResults sum to %d WAL bytes and %d fsyncs, the log took %d and %d",
			bytes.Load(), syncs.Load(), wantBytes, wantSyncs)
	}
	var rowBytes, rowSyncs int64
	for _, row := range mustQuery(t, db, "select WAL_BYTES, WAL_SYNCS from sma_stat_statements") {
		rowBytes += row[0].(int64)
		rowSyncs += row[1].(int64)
	}
	if rowBytes != wantBytes || rowSyncs != wantSyncs {
		t.Errorf("sma_stat_statements sums to %d WAL bytes and %d fsyncs, the log took %d and %d",
			rowBytes, rowSyncs, wantBytes, wantSyncs)
	}
}

// TestObserverAllocBudget is the enforced overhead budget of the
// observability subsystem: the whole statement record — query id,
// activity, fingerprint lookup, collector fold, metric families — may
// cost a warm SMA-answered aggregate at most this many allocations over
// the same statement with no observer. (Timing a ~40 µs statement on a
// shared runner cannot resolve a sub-microsecond budget; allocation
// counts repeat exactly.) Each side counts the least of many single
// statements, taken in turns: a pooled object the runtime dropped — the
// race detector drops a quarter of them at random, a collection all — is
// re-allocated by the statement that meets it, on either side, and is not
// the observer's. An average over many statements would charge those
// drops to the side that pools more.
func TestObserverAllocBudget(t *testing.T) {
	const budget = 6
	const q = "select REGION, sum(AMOUNT) from SALES where SALE_DATE <= date '2021-03-31' group by REGION"
	prepare := func(db *engine.DB) func() {
		t.Cleanup(func() { db.Close() })
		for _, ddl := range []string{
			"define sma dmin select min(SALE_DATE) from SALES",
			"define sma dmax select max(SALE_DATE) from SALES",
			"define sma amt select sum(AMOUNT) from SALES group by REGION",
			"define sma cnt select count(*) from SALES group by REGION",
		} {
			if _, err := db.DefineSMA(ddl); err != nil {
				t.Fatal(err)
			}
		}
		run := func() {
			cur, err := db.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := drainCursor(t, cur); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: the statement cache, metric label series
		return run
	}
	off, _ := openSales(t, t.TempDir())
	runOff, runOn := prepare(off), prepare(openObsSales(t, t.TempDir()))
	a, b := math.Inf(1), math.Inf(1)
	for round := 0; round < 50; round++ {
		a = min(a, testing.AllocsPerRun(1, runOff))
		b = min(b, testing.AllocsPerRun(1, runOn))
	}
	t.Logf("allocations per warm SMA_GAggr statement: observer off %.0f, on %.0f", a, b)
	if b-a > budget {
		t.Errorf("the observer costs %.0f allocations per statement (off %.0f, on %.0f), budget %d", b-a, a, b, budget)
	}
}

// TestTraceAllocBudget is the enforced allocation ceiling of tracing: what a
// warm traced query allocates beyond the same query untraced, observer on,
// for an SMA-answered and a scanning aggregate, serial and at dop 2. The
// clock runs on every query, so the difference is the tree end renders
// from the record: the root and its note, one node per phase, and under
// merge one node per worker. (When a pooled span tree was kept beside the
// record it cost 27 and 31 for SMA_GAggr, 28 and 32 for FullScan+GAggr.)
func TestTraceAllocBudget(t *testing.T) {
	db := openObsSales(t, t.TempDir())
	defer db.Close()
	for _, ddl := range []string{
		"define sma dmin select min(SALE_DATE) from SALES",
		"define sma dmax select max(SALE_DATE) from SALES",
		"define sma amt select sum(AMOUNT) from SALES group by REGION",
		"define sma cnt select count(*) from SALES group by REGION",
	} {
		if _, err := db.DefineSMA(ddl); err != nil {
			t.Fatal(err)
		}
	}
	slack := 0.0
	if raceEnabled {
		// The race detector drops pooled batches at random, and a dropped
		// batch is re-allocated with its vectors on either side of the
		// difference: 13–18 at dop 2 over 20 runs where the exact count is
		// 14 or 15.
		slack = 4
	}
	for _, q := range []struct {
		sql, strategy string
		ceiling       [2]float64 // at dop 1 and dop 2
	}{
		{"select REGION, sum(AMOUNT) from SALES where SALE_DATE <= date '2021-03-31' group by REGION", "SMA_GAggr", [2]float64{10, 14}},
		{"select sum(AMOUNT) from SALES where AMOUNT >= 5", "FullScan+GAggr", [2]float64{9, 15}},
	} {
		for i, dop := range []int{1, 2} {
			allocs := func(opts ...engine.QueryOption) float64 {
				run := func() {
					cur, err := db.QueryContext(context.Background(), q.sql, append(opts, engine.WithDOP(dop))...)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := drainCursor(t, cur); err != nil {
						t.Fatal(err)
					}
					if got := cur.Plan().StrategyName(); got != q.strategy {
						t.Fatalf("%s: strategy %s, want %s", q.sql, got, q.strategy)
					}
				}
				run() // warm: caches, metric label series, pooled batches
				return testing.AllocsPerRun(100, run)
			}
			off, on := allocs(), allocs(engine.WithTrace(true))
			t.Logf("%s dop %d: %.0f allocations untraced, %.0f traced", q.strategy, dop, off, on)
			if on-off > q.ceiling[i]+slack {
				t.Errorf("%s dop %d: tracing costs %.0f allocations (untraced %.0f, traced %.0f), ceiling %.0f",
					q.strategy, dop, on-off, off, on, q.ceiling[i])
			}
		}
	}
}

// TestInsertAllocBudget is the enforced allocation budget of the write
// path: a 100-row, 16-column INSERT into LINEITEM under the paper's eight
// SMAs, text never seen before (a load repeats no statement, so nothing a
// cache could keep may count), through ExecContext with the observer on.
// The count repeats exactly; the ceiling is that count. What is left is one
// allocation each for the literal vector and the packed-record buffer, the
// statement's records and results, and the journal and its closures per
// page run — no longer a token slice, a literal slice per row, a tuple per
// row, a log record body per row and a group key per row per SMA (7 585 at
// the commit before the write path took runs, 2 324 of them in the parser).
func TestInsertAllocBudget(t *testing.T) {
	const ceiling = 28
	db, err := engine.Open(t.TempDir(), engine.Options{Obs: obs.NewObserver(obs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	for _, ddl := range []string{
		`create table LINEITEM (L_ORDERKEY int64, L_PARTKEY int32, L_SUPPKEY int32, L_LINENUMBER int32,
			L_QUANTITY float64, L_EXTENDEDPRICE float64, L_DISCOUNT float64, L_TAX float64,
			L_RETURNFLAG char(1), L_LINESTATUS char(1), L_SHIPDATE date, L_COMMITDATE date, L_RECEIPTDATE date,
			L_SHIPINSTRUCT char(25), L_SHIPMODE char(10), L_COMMENT char(27))`,
		"define sma min select min(L_SHIPDATE) from LINEITEM",
		"define sma max select max(L_SHIPDATE) from LINEITEM",
		"define sma count select count(*) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma dis select sum(L_DISCOUNT) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma ext select sum(L_EXTENDEDPRICE) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma extdis select sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma extdistax select sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT) * (1 + L_TAX)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	} {
		if _, err := db.ExecContext(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 50
	stmts := make([]string, 0, runs+2) // AllocsPerRun warms up with one extra call
	for s := 0; s < cap(stmts); s++ {
		var b strings.Builder
		b.WriteString("INSERT INTO LINEITEM VALUES ")
		for r := 0; r < 100; r++ {
			if r > 0 {
				b.WriteString(", ")
			}
			i := s*100 + r
			fmt.Fprintf(&b, "(%d, %d, %d, %d, %d, %d.%02d, 0.%02d, 0.%02d, '%c', '%c', DATE '199%d-0%d-%02d', DATE '1995-03-%02d', '1996-11-%02d', 'DELIVER IN PERSON', 'TRUCK', 'row %d')",
				i, i%2000, i%100, i%7+1, i%50+1, 900+i, i%100, i%11, i%9, "ANR"[i%3], "FO"[i%2],
				2+i%7, 1+i%9, 1+i%28, 1+i%28, 1+i%28, i)
		}
		stmts = append(stmts, b.String())
	}
	next := 0
	run := func() {
		if _, err := db.ExecContext(ctx, stmts[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	run() // the first statement creates the groups' SMA-files and sizes the scratch
	got := testing.AllocsPerRun(runs, run)
	t.Logf("allocations per 100-row INSERT with eight SMAs: %.0f", got)
	if got > ceiling {
		t.Errorf("a 100-row INSERT allocates %.0f times, ceiling %d", got, ceiling)
	}
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.SMAs() {
		if err := tbl.VerifySMA(s.Def.Name); err != nil {
			t.Fatal(err)
		}
	}
}
