package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

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

func (h *history) exec(sql string) {
	h.t.Helper()
	res, err := h.db.ExecContext(context.Background(), sql)
	if err != nil {
		h.t.Fatalf("%s: %v", sql, err)
	}
	h.execs[res.Kind]++
	h.dml[res.Kind]++
	h.affected += res.RowsAffected
	tot := h.totals(sql)
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
// each cursor reported, the trace's scan span, the sma_stat_* tables and
// the /metrics families agree to the row, page and bucket: they are all
// projections of the one statement record.
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
		noTable = "select count(*) from NOPE"
		badIns  = "insert into SALES values (1)"
	)
	for sql, want := range map[string]string{gaggr: "SMA_GAggr", smaScan: "SMA_Scan+GAggr",
		full: "FullScan+GAggr", proj: "SMA_Scan"} {
		if got := h.query(sql, "", 0).Plan().StrategyName(); got != want {
			t.Fatalf("%s: strategy %s, want %s", sql, got, want)
		}
	}

	// A traced run: the scan span carries the cursor's own counters.
	cur := h.query(smaScan, "", 0, engine.WithTrace(true))
	st, _ := cur.Stats()
	scan := cur.TraceNode().Find("scan")
	if scan == nil {
		t.Fatalf("no scan span:\n%s", cur.TraceNode().Render())
	}
	if scan.PagesRead != int64(st.PagesRead) || scan.Qualify != int64(st.Qualifying) ||
		scan.Disqualify != int64(st.Disqualifying) || scan.Ambivalent != int64(st.Ambivalent) {
		t.Errorf("scan span pages=%d buckets=%d/%d/%d, cursor stats %+v",
			scan.PagesRead, scan.Qualify, scan.Disqualify, scan.Ambivalent, st)
	}
	// EXPLAIN ANALYZE is the inner query's record under another renderer.
	// (SMA_GAggr grades and reads in its fold operator.)
	cur = h.query("explain analyze "+gaggr, gaggr, 2)
	st, _ = cur.Stats()
	if fold := cur.TraceNode().Find("fold"); fold == nil || fold.PagesRead != int64(st.PagesRead) ||
		fold.Qualify != int64(st.Qualifying) || fold.Disqualify != int64(st.Disqualifying) {
		t.Errorf("explain analyze footer disagrees with its stats %+v:\n%s", st, cur.TraceNode().Render())
	}

	h.exec("insert into SALES values (date '2022-01-01', 'N', 1.5), (date '2022-01-02', 'S', 2.5)")
	h.exec("update SALES set AMOUNT = AMOUNT + 1 where SALE_DATE >= date '2022-01-01'")
	h.exec("delete from SALES where SALE_DATE = date '2022-01-02'")
	hooked := h.affected // every DML row runs each SMA's hook once

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
	for _, sql := range []string{gaggr, smaScan, full, proj} {
		heapRows += h.perSQL[sql].rows
	}
	for col, want := range map[int]int64{
		tbScans: h.scans, tbRowsRead: heapRows, tbPagesRead: h.pages,
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

// TestObserverAllocBudget is the enforced overhead budget of the
// observability subsystem: the whole statement record — query id,
// activity, fingerprint lookup, collector fold, metric families — may
// cost a warm SMA-answered aggregate at most this many allocations over
// the same statement with no observer. (Timing a ~40 µs statement on a
// shared runner cannot resolve a sub-microsecond budget; allocation
// counts repeat exactly.)
func TestObserverAllocBudget(t *testing.T) {
	const budget = 6
	const q = "select REGION, sum(AMOUNT) from SALES where SALE_DATE <= date '2021-03-31' group by REGION"
	allocs := func(db *engine.DB) float64 {
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
		run := func() {
			cur, err := db.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := drainCursor(t, cur); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: fingerprint and attribution caches, metric label series
		return testing.AllocsPerRun(200, run)
	}
	off, _ := openSales(t, t.TempDir())
	on := openObsSales(t, t.TempDir())
	a, b := allocs(off), allocs(on)
	t.Logf("allocations per warm SMA_GAggr statement: observer off %.0f, on %.0f", a, b)
	if b-a > budget {
		t.Errorf("the observer costs %.0f allocations per statement (off %.0f, on %.0f), budget %d", b-a, a, b, budget)
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
