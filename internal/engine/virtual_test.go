package engine_test

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"sma/internal/engine"
	"sma/internal/obs"
	"sma/internal/parser"
	"sma/internal/tuple"
)

// openObsSales is openSales with the observability subsystem (and thus the
// stats collector) enabled.
func openObsSales(t testing.TB, dir string) *engine.DB {
	t.Helper()
	db, err := engine.Open(dir, engine.Options{Obs: obs.NewObserver(obs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("SALES", []tuple.Column{
		{Name: "SALE_DATE", Type: tuple.TDate},
		{Name: "REGION", Type: tuple.TChar, Len: 1},
		{Name: "AMOUNT", Type: tuple.TFloat64},
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := tuple.NewTuple(tbl.Schema)
	for day := 0; day < 365; day++ {
		for i := 0; i < 10; i++ {
			tp.SetInt32(0, tuple.DateFromYMD(2021, 1, 1)+int32(day))
			tp.SetChar(1, []string{"N", "S"}[i%2])
			tp.SetFloat64(2, float64(day+i))
			if _, err := tbl.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func mustQuery(t *testing.T, db *engine.DB, sql string) [][]any {
	t.Helper()
	cur, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	rows, err := drainCursor(t, cur)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows
}

// statementRow finds the sma_stat_statements row whose QUERY column equals
// the normalized form of sql, returning nil when absent.
func statementRow(t *testing.T, db *engine.DB, sql string) []any {
	t.Helper()
	_, norm := parser.Fingerprint(sql)
	if len(norm) > 96 {
		norm = norm[:96]
	}
	for _, row := range mustQuery(t, db, "select * from sma_stat_statements") {
		if row[19].(string) == norm {
			return row
		}
	}
	return nil
}

// TestVirtualTablesLiveRows: after a workload, every introspection table
// returns live rows through the ordinary query path.
func TestVirtualTablesLiveRows(t *testing.T) {
	db := openObsSales(t, t.TempDir())
	defer db.Close()
	if _, err := db.DefineSMA("define sma dmin select min(SALE_DATE) from SALES"); err != nil {
		t.Fatal(err)
	}
	q := "select sum(AMOUNT) from SALES where SALE_DATE <= date '2021-03-31'"
	mustQuery(t, db, q)

	row := statementRow(t, db, q)
	if row == nil {
		t.Fatal("no sma_stat_statements row for the workload query")
	}
	if row[1].(int64) != 1 { // CALLS
		t.Errorf("calls = %v", row[1])
	}
	if row[3].(float64) <= 0 { // TOTAL_MS
		t.Errorf("total_ms = %v", row[3])
	}
	if row[10].(int64) <= 0 { // PAGES_READ
		t.Errorf("pages_read = %v", row[10])
	}

	smas := mustQuery(t, db, "select * from sma_stat_smas")
	if len(smas) != 1 || strings.TrimSpace(smas[0][1].(string)) != "dmin" {
		t.Fatalf("sma_stat_smas = %v", smas)
	}
	if smas[0][4].(int64) != 1 { // CONSULTED
		t.Errorf("consulted = %v", smas[0][4])
	}

	tabs := mustQuery(t, db, "select * from sma_stat_tables")
	if len(tabs) != 1 || tabs[0][0].(string) != "SALES" || tabs[0][1].(int64) != 1 {
		t.Fatalf("sma_stat_tables = %v", tabs)
	}

	// The activity table always shows at least the introspection query
	// itself, which is in flight while its snapshot materializes.
	acts := mustQuery(t, db, "select * from sma_stat_activity")
	if len(acts) != 1 || !strings.Contains(acts[0][4].(string), "sma_stat_activity") {
		t.Fatalf("sma_stat_activity = %v", acts)
	}
}

// TestVirtualTableOrderByAndProjection: the introspection tables support
// projections, predicates, ORDER BY (including DESC), and LIMIT.
func TestVirtualTableOrderByAndProjection(t *testing.T) {
	db := openObsSales(t, t.TempDir())
	defer db.Close()
	mustQuery(t, db, "select sum(AMOUNT) from SALES")
	mustQuery(t, db, "select sum(AMOUNT) from SALES where SALE_DATE <= date '2021-02-28'")

	rows := mustQuery(t, db, "select * from sma_stat_statements order by total_ms")
	if len(rows) < 2 {
		t.Fatalf("rows = %d, want >= 2", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][3].(float64) > rows[i][3].(float64) {
			t.Errorf("total_ms out of order at %d: %v then %v", i, rows[i-1][3], rows[i][3])
		}
	}

	rows = mustQuery(t, db, "select calls, query from sma_stat_statements order by calls desc limit 1")
	if len(rows) != 1 || len(rows[0]) != 2 {
		t.Fatalf("projection rows = %v", rows)
	}

	rows = mustQuery(t, db, "select query from sma_stat_statements where calls >= 1")
	if len(rows) < 2 {
		t.Errorf("predicate rows = %v", rows)
	}

	if _, err := db.QueryContext(context.Background(),
		"select nope from sma_stat_statements"); err == nil {
		t.Error("unknown projection column accepted")
	}
	if _, err := db.QueryContext(context.Background(),
		"select * from sma_stat_statements order by nope"); err == nil {
		t.Error("unknown ORDER BY column accepted")
	}
}

// TestResetStats zeroes the accumulators through the SQL surface.
func TestResetStats(t *testing.T) {
	db := openObsSales(t, t.TempDir())
	defer db.Close()
	mustQuery(t, db, "select sum(AMOUNT) from SALES")
	if rows := mustQuery(t, db, "select * from sma_stat_statements"); len(rows) == 0 {
		t.Fatal("no stats before reset")
	}
	res, err := db.ExecContext(context.Background(), "reset stats")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "reset stats" {
		t.Errorf("kind = %q", res.Kind)
	}
	// Only the introspection query that reads the post-reset snapshot may
	// appear; the workload query must be gone.
	for _, row := range mustQuery(t, db, "select * from sma_stat_statements") {
		if strings.Contains(row[19].(string), "sum ( amount )") {
			t.Errorf("workload statement survived reset: %v", row[19])
		}
	}
}

// TestExecStatsDML: DML statements land in the statement and table
// accumulators with rows_affected, WAL deltas, and maintenance counts.
func TestExecStatsDML(t *testing.T) {
	db := openObsSales(t, t.TempDir())
	defer db.Close()
	if _, err := db.DefineSMA("define sma dmin select min(SALE_DATE) from SALES"); err != nil {
		t.Fatal(err)
	}
	ins := "insert into SALES values (date '2022-01-01', 'N', 1.5)"
	res, err := db.ExecContext(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 || res.WALBytes <= 0 {
		t.Errorf("insert result = %+v", res)
	}
	del := "delete from SALES where SALE_DATE >= date '2022-01-01'"
	if _, err := db.ExecContext(context.Background(), del); err != nil {
		t.Fatal(err)
	}

	row := statementRow(t, db, ins)
	if row == nil {
		t.Fatal("no statement row for the insert")
	}
	if row[9].(int64) != 1 { // ROWS_AFFECTED
		t.Errorf("rows_affected = %v", row[9])
	}
	if row[17].(int64) <= 0 { // WAL_BYTES
		t.Errorf("wal_bytes = %v", row[17])
	}
	if got := strings.TrimSpace(row[15].(string)); got != "insert" {
		t.Errorf("strategy = %q", got)
	}

	tabs := mustQuery(t, db, "select * from sma_stat_tables")
	if len(tabs) != 1 {
		t.Fatalf("tables = %v", tabs)
	}
	if tabs[0][5].(int64) != 1 || tabs[0][7].(int64) != 1 { // INSERTS, DELETES
		t.Errorf("inserts=%v deletes=%v", tabs[0][5], tabs[0][7])
	}

	smas := mustQuery(t, db, "select * from sma_stat_smas")
	if len(smas) != 1 || smas[0][7].(int64) != 2 { // MAINT_OPS: one append, one delete
		t.Errorf("sma maintenance = %v", smas)
	}

	// A multi-row statement is recorded once, with its row count.
	multi := "insert into SALES values (date '2022-01-02', 'N', 1), (date '2022-01-03', 'N', 2), (date '2022-01-04', 'R', 3)"
	if _, err := db.ExecContext(context.Background(), multi); err != nil {
		t.Fatal(err)
	}
	smas = mustQuery(t, db, "select * from sma_stat_smas")
	if len(smas) != 1 || smas[0][7].(int64) != 5 {
		t.Errorf("sma maintenance after a 3-row insert = %v, want 5 ops", smas)
	}
	// One logical INSERT, one fingerprint: the 3-row statement joined the
	// 1-row statement's row of sma_stat_statements.
	row = statementRow(t, db, multi)
	if row == nil || row[1].(int64) != 2 || row[9].(int64) != 4 { // CALLS, ROWS_AFFECTED
		t.Errorf("1-row and 3-row inserts do not share a statement row: %v", row)
	}
}

// TestAdvisorRecommendsAndSMAHelps is the acceptance scenario: the advisor
// recommends an SMA for a repeatedly filtered, never-pruned column; applying
// its suggestion verbatim measurably reduces pages read per call for the
// motivating fingerprint.
func TestAdvisorRecommendsAndSMAHelps(t *testing.T) {
	db := openObsSales(t, t.TempDir())
	defer db.Close()
	q := "select sum(AMOUNT) from SALES where SALE_DATE <= date '2021-01-31'"
	for i := 0; i < 2; i++ { // advisor wants repeated filters
		mustQuery(t, db, q)
	}
	pre := statementRow(t, db, q)
	if pre == nil {
		t.Fatal("no statement row for workload query")
	}
	prePages, preCalls := pre[10].(int64), pre[1].(int64)
	if prePages <= 0 {
		t.Fatalf("pre pages_read = %d", prePages)
	}
	if got := strings.TrimSpace(pre[15].(string)); !strings.HasPrefix(got, "FullScan") {
		t.Fatalf("pre strategy = %q, want FullScan*", got)
	}

	advice := mustQuery(t, db, "select * from sma_advisor")
	var suggestion string
	for _, row := range advice {
		if strings.TrimSpace(row[0].(string)) == "add" &&
			strings.TrimSpace(row[2].(string)) == "SALE_DATE" {
			suggestion = strings.TrimSpace(row[7].(string))
			if row[4].(int64) <= 0 {
				t.Errorf("est_pages_saved = %v", row[4])
			}
		}
	}
	if suggestion == "" {
		t.Fatalf("no add advice for SALE_DATE in %v", advice)
	}

	// Apply the suggestion exactly as printed, then measure again.
	if _, err := db.ExecContext(context.Background(), suggestion); err != nil {
		t.Fatalf("suggestion %q: %v", suggestion, err)
	}
	if _, err := db.ExecContext(context.Background(), "reset stats"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		mustQuery(t, db, q)
	}
	post := statementRow(t, db, q)
	if post == nil {
		t.Fatal("no post-SMA statement row")
	}
	postPages, postCalls := post[10].(int64), post[1].(int64)
	if postPages*preCalls >= prePages*postCalls { // per-call comparison
		t.Errorf("pages per call did not drop: pre %d/%d, post %d/%d",
			prePages, preCalls, postPages, postCalls)
	}
	if post[11].(int64) <= 0 { // PAGES_PRUNED
		t.Errorf("post pages_pruned = %v", post[11])
	}

	// The recommendation disappears once the column's queries prune pages,
	// now that the new SMA covers SALE_DATE.
	for _, row := range mustQuery(t, db, "select * from sma_advisor") {
		if strings.TrimSpace(row[0].(string)) == "add" &&
			strings.TrimSpace(row[2].(string)) == "SALE_DATE" {
			t.Errorf("stale add advice after SMA creation: %v", row)
		}
	}
}

// TestAdvisorDropRecommendation: an SMA that plans consult but that never
// disqualifies a bucket earns a drop suggestion.
func TestAdvisorDropRecommendation(t *testing.T) {
	db := openObsSales(t, t.TempDir())
	defer db.Close()
	// AMOUNT repeats every bucket (values 0..374 overlap everywhere), so a
	// min-SMA on it never disqualifies anything for this predicate.
	if _, err := db.DefineSMA("define sma amin select min(AMOUNT) from SALES"); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, "select sum(AMOUNT) from SALES where AMOUNT >= 5")

	var drop []any
	for _, row := range mustQuery(t, db, "select * from sma_advisor") {
		if strings.TrimSpace(row[0].(string)) == "drop" {
			drop = row
		}
	}
	if drop == nil {
		t.Fatal("no drop advice for the useless SMA")
	}
	if got := strings.TrimSpace(drop[2].(string)); got != "sma amin" {
		t.Errorf("drop target = %q", got)
	}
	sug := strings.TrimSpace(drop[7].(string))
	if sug != "drop sma amin on SALES" {
		t.Fatalf("drop suggestion = %q", sug)
	}
	if _, err := db.ExecContext(context.Background(), sug); err != nil {
		t.Fatalf("applying %q: %v", sug, err)
	}
	// Dropped SMAs vanish from the catalog-driven sma_stat_smas view.
	if rows := mustQuery(t, db, "select * from sma_stat_smas"); len(rows) != 0 {
		t.Errorf("sma_stat_smas after drop = %v", rows)
	}
}

// TestVirtualTablesWithoutObs: with observability disabled the tables still
// plan and stream — zero rows, no errors.
func TestVirtualTablesWithoutObs(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, name := range []string{"sma_stat_statements", "sma_stat_smas",
		"sma_stat_tables", "sma_stat_activity", "sma_advisor"} {
		if rows := mustQuery(t, db, "select * from "+name); len(rows) != 0 {
			t.Errorf("%s returned %d rows with obs disabled", name, len(rows))
		}
	}
}

// TestSlowExecLog: the slow-statement path covers DML too — a slow exec
// logs at Warn with rows_affected, the pages and bucket grades of an
// UPDATE's or DELETE's qualifying scan and WAL counters, bumps the
// slow-exec counter, and times into the exec histogram.
func TestSlowExecLog(t *testing.T) {
	var buf bytes.Buffer
	o := obs.NewObserver(obs.Config{
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
		SlowQuery: time.Nanosecond, // every statement is "slow"
	})
	db, err := engine.Open(t.TempDir(), engine.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, "create table T (D date, V float64)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, "insert into T values (date '2024-01-01', 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, "update T set V = 2 where D >= date '2024-01-01'"); err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	if !strings.Contains(log, "slow exec") {
		t.Fatalf("no slow-exec log:\n%s", log)
	}
	for _, want := range []string{"kind=insert", "rows_affected=1", "wal_bytes=", "wal_syncs=",
		"kind=update", "pages_read=1", "buckets=0/0/1"} {
		if !strings.Contains(log, want) {
			t.Errorf("slow-exec log missing %q:\n%s", want, log)
		}
	}
	var expo bytes.Buffer
	if err := db.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sma_engine_slow_execs_total 3", "sma_engine_exec_seconds_count{kind=\"insert\"} 1"} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, expo.String())
		}
	}
}

// TestVirtualTableExplain: EXPLAIN over a virtual table names the MemScan
// strategy rather than a heap strategy.
func TestVirtualTableExplain(t *testing.T) {
	db := openObsSales(t, t.TempDir())
	defer db.Close()
	cur, err := db.QueryContext(context.Background(), "explain select * from sma_stat_statements")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drainCursor(t, cur)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range rows {
		text.WriteString(r[0].(string))
		text.WriteByte('\n')
	}
	if !strings.Contains(text.String(), "MemScan") {
		t.Errorf("explain output:\n%s", text.String())
	}
}
