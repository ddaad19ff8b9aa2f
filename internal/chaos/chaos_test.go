package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sma/internal/chaos"
	"sma/internal/engine"
	"sma/internal/oracle"
	"sma/internal/planner"
	"sma/internal/storage"
	"sma/internal/tuple"
)

var errInjected = errors.New("chaos: injected disk fault")

// verifyQueries probe the full table state after every recovery.
var verifyQueries = []string{
	"select D, K, V, N from W",
	"select K, sum(V) as SV from W group by K",
	"select K, count(*) as C from W group by K",
}

func collectEngine(db *engine.DB, sql string) ([][]string, error) {
	rows, _, err := collectPlanned(db, sql)
	return rows, err
}

// collectPlanned is collectEngine with query options, also returning the
// plan the query ran.
func collectPlanned(db *engine.DB, sql string, opts ...engine.QueryOption) ([][]string, *planner.Plan, error) {
	cur, err := db.QueryContext(context.Background(), sql, opts...)
	if err != nil {
		return nil, nil, err
	}
	defer cur.Close()
	infos := cur.Columns()
	var rows [][]string
	for {
		vals, ok, err := cur.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return rows, cur.Plan(), nil
		}
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = oracle.RenderValue(v, infos[i].IsAgg)
		}
		rows = append(rows, out)
	}
}

func compare(t *testing.T, db *engine.DB, o *oracle.Oracle, sql string) {
	t.Helper()
	got, err := collectEngine(db, sql)
	if err != nil {
		t.Fatalf("engine: %s: %v", sql, err)
	}
	want, err := o.Query(sql)
	if err != nil {
		t.Fatalf("oracle: %s: %v", sql, err)
	}
	if len(got) != len(want.Rows) {
		t.Fatalf("%s: engine %d rows, oracle %d\nengine: %v\noracle: %v",
			sql, len(got), len(want.Rows), got, want.Rows)
	}
	for r := range got {
		for c := range got[r] {
			if got[r][c] != want.Rows[r][c] {
				t.Fatalf("%s: row %d col %d: engine %q, oracle %q",
					sql, r, c, got[r][c], want.Rows[r][c])
			}
		}
	}
}

// checkNoGoroutineLeak fails the test when the goroutine count does not
// settle back to (near) its starting point — a wedged co-fetcher, an
// unstopped scrubber, or a leaked worker would hold it up.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// schedule builds the round's fault plan: round 0 is a countdown (faults
// start firing at a precise operation), round 1 probabilistic (faults
// scattered through the workload), round 2 a slow-then-broken disk.
func schedule(round int, seed int64, rnd *rand.Rand) storage.FaultFn {
	switch round % 3 {
	case 0:
		return chaos.Countdown(int64(rnd.Intn(30)), "write", errInjected)
	case 1:
		return chaos.Probability(seed^int64(round), 0.04, "write", errInjected)
	default:
		return chaos.Chain(
			chaos.Stall("sync", time.Millisecond),
			chaos.Countdown(int64(rnd.Intn(20)), "write", errInjected),
		)
	}
}

// runChaosDiff drives a seeded workload through engine and oracle in
// lockstep, then unleashes a fault schedule until a statement dies,
// crashes the engine without shutdown, and reopens it. The oracle holds
// exactly the committed prefix, so after every recovery both sides must
// agree on every probe — no wrong answers, ever — and recovery itself
// must be bounded.
func runChaosDiff(t *testing.T, seed int64, dop int) {
	goroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	open := func() *engine.DB {
		start := time.Now()
		db, err := engine.Open(dir, engine.Options{
			BucketPages:      1,
			PoolPages:        8, // tiny pool: statements evict mid-flight, so faults bite
			Parallelism:      dop,
			AllowUnsafeCrash: true,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Fatalf("recovery took %v, want bounded", d)
		}
		return db
	}
	db := open()
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	o := oracle.New()
	g := oracle.NewGen(seed)
	for _, setup := range g.Setup() {
		if _, err := db.ExecContext(nil, setup); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Exec(setup); err != nil {
			t.Fatal(err)
		}
	}
	rnd := rand.New(rand.NewSource(seed ^ 0xc4a05))

	const rounds = 3
	for round := 0; round < rounds; round++ {
		// Mirrored phase: both sides apply the stream in lockstep.
		for i, steps := 0, 20+rnd.Intn(20); i < steps; i++ {
			op := g.Next()
			if op.IsQuery {
				compare(t, db, o, op.SQL)
				continue
			}
			res, err := db.ExecContext(nil, op.SQL)
			if err != nil {
				t.Fatalf("round %d step %d: engine: %s: %v", round, i, op.SQL, err)
			}
			want, err := o.Exec(op.SQL)
			if err != nil {
				t.Fatalf("round %d step %d: oracle: %s: %v", round, i, op.SQL, err)
			}
			if res.RowsAffected != want {
				t.Fatalf("round %d step %d: %s: engine affected %d, oracle %d",
					round, i, op.SQL, res.RowsAffected, want)
			}
		}

		// Fault phase under this round's schedule: statements keep
		// committing until one dies; the oracle mirrors only commits.
		tbl, err := db.Table(oracle.Table)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Disk().SetFault(schedule(round, seed, rnd))
		var failedDDL string
		for i := 0; i < 60; i++ {
			op := g.Next()
			if op.IsQuery {
				continue // reads are not faulted; keep the phase write-only
			}
			res, err := db.ExecContext(nil, op.SQL)
			if err != nil {
				// A failed DML statement vanishes, but the generator
				// assumes its DDL succeeded and will reference the SMA
				// later — re-drive it after recovery.
				if strings.HasPrefix(op.SQL, "define sma") || strings.HasPrefix(op.SQL, "drop sma") {
					failedDDL = op.SQL
				}
				break
			}
			want, err := o.Exec(op.SQL)
			if err != nil {
				t.Fatalf("round %d fault phase: oracle: %s: %v", round, op.SQL, err)
			}
			if res.RowsAffected != want {
				t.Fatalf("round %d fault phase: %s: engine affected %d, oracle %d",
					round, op.SQL, res.RowsAffected, want)
			}
		}
		tbl.Disk().SetFault(nil)

		// Kill and recover.
		if err := db.Crash(); err != nil {
			t.Logf("round %d: crash: %v", round, err) // injected-fault residue
		}
		db = open()
		if !db.RecoveryStats().Performed {
			t.Fatalf("round %d: reopen after crash skipped recovery", round)
		}
		for _, q := range verifyQueries {
			compare(t, db, o, q)
		}
		if failedDDL != "" {
			if _, err := db.ExecContext(nil, failedDDL); err != nil {
				t.Fatalf("round %d: replaying DDL after recovery: %s: %v", round, failedDDL, err)
			}
			if _, err := o.Exec(failedDDL); err != nil {
				t.Fatalf("round %d: oracle: %s: %v", round, failedDDL, err)
			}
		}
	}

	// A clean shutdown must round-trip, and nothing may leak.
	if err := db.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	db = open()
	for _, q := range verifyQueries {
		compare(t, db, o, q)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = nil
	checkNoGoroutineLeak(t, goroutines)
}

// TestChaosDifferential is the acceptance gate: seeded fault schedules
// (countdown, probabilistic, slow-then-broken) against the differential
// oracle at dop 1 and dop NumCPU. Run under -race in CI.
func TestChaosDifferential(t *testing.T) {
	parallel := runtime.NumCPU()
	if parallel < 2 {
		parallel = 2
	}
	for _, dop := range []int{1, parallel} {
		dop := dop
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			for _, seed := range []int64{7, 1998} {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					runChaosDiff(t, seed, dop)
				})
			}
		})
	}
}

// TestTornWALTail: garbage appended past the last durable record — the
// residue of a torn write at crash — must be recognized and ignored by
// recovery, preserving exactly the committed prefix.
func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	open := func() *engine.DB {
		db, err := engine.Open(dir, engine.Options{BucketPages: 1, AllowUnsafeCrash: true})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	if _, err := db.ExecContext(nil, "create table W (D date, V float64)"); err != nil {
		t.Fatal(err)
	}
	const committed = 17
	for i := 0; i < committed; i++ {
		sql := fmt.Sprintf("insert into W values (date '2024-01-%02d', %d)", i%27+1, i)
		if _, err := db.ExecContext(nil, sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := chaos.AppendGarbage(filepath.Join(dir, engine.WALFileName), 42, 97); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	if !db.RecoveryStats().Performed {
		t.Fatal("reopen after crash skipped recovery")
	}
	rows, err := collectEngine(db, "select count(*) as C from W")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows) != fmt.Sprintf("[[%d]]", committed) {
		t.Fatalf("after torn tail: %v, want [[%d]]", rows, committed)
	}
	// The database is fully writable again after the tail was discarded.
	if _, err := db.ExecContext(nil, "insert into W values (date '2024-02-01', 99)"); err != nil {
		t.Fatal(err)
	}
}

// TestBitFlipReadsAroundCorruption: one byte flipped in one bucket's page
// of a multi-bucket table with min/max SMAs. Every plan shape — the full
// scan, SMA scan and SMA_GAggr aggregates at dop 1 and 2, and an SMA scan
// projection — answers exactly what it answered before the flip when its
// grades let it skip the page, and fails with a corrupt-page error when it
// must read the page: never with fewer rows. The flip is found by a Scrub
// right after Open or, without one, by the statement under test, which
// may find it through one of its prefetch readers. A healthy table answers
// throughout. An UPDATE and a DELETE whose qualifying scan must read the
// page fail with the corrupt-page error and write nothing: with the byte
// flipped back, the table reads as before and every SMA verifies.
func TestBitFlipReadsAroundCorruption(t *testing.T) {
	const pages, bad = 40, 20
	dir := t.TempDir()
	db, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(sql string) {
		t.Helper()
		if _, err := db.ExecContext(nil, sql); err != nil {
			t.Fatalf("%.50s: %v", sql, err)
		}
	}
	exec("create table T (D date, K char(1), V float64)")
	exec("create table GOOD (D date, V float64)")
	exec("insert into GOOD values (date '2024-03-01', 10), (date '2024-03-02', 20)")
	tbl, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	// One row a day, in date order: page p holds rows [p*per, (p+1)*per).
	per := tbl.Heap.RecordsPerPage()
	day := func(row int) string { return tuple.FormatDate(tuple.MustParseDate("1980-01-01") + int32(row)) }
	for lo := 0; lo < pages*per; lo += 1000 {
		var b strings.Builder
		b.WriteString("insert into T values ")
		for r := lo; r < min(lo+1000, pages*per); r++ {
			if r > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(date '%s', '%c', %d.25)", day(r), 'A'+r%3, r%997)
		}
		exec(b.String())
	}
	exec("define sma dmin select min(D) from T")
	exec("define sma dmax select max(D) from T")
	exec("define sma sv select sum(V) from T group by K")
	exec("define sma cnt select count(*) from T group by K")

	// From the middle of page first to the middle of page last: the end
	// buckets ambivalent, those between qualifying, the rest disqualified.
	pagesWhere := func(first, last int) string {
		return fmt.Sprintf("D >= date '%s' and D <= date '%s'", day(first*per+per/2), day(last*per+per/2))
	}
	upTo := func(page int) string { return fmt.Sprintf("D <= date '%s'", day(page*per+per/2)) }
	shapes := []struct {
		strategy        string
		dops            []int
		around, through string // around skips the bad page; a full scan has none
	}{
		{"FullScan+GAggr", []int{1, 2}, "", "select K, max(V) as M from T group by K"},
		{"SMA_Scan+GAggr", []int{1, 2},
			"select K, max(V) as M, count(*) as C from T where " + pagesWhere(2, 5) + " group by K",
			"select K, max(V) as M, count(*) as C from T where " + pagesWhere(bad-1, bad+2) + " group by K"},
		{"SMA_GAggr", []int{1, 2},
			"select K, sum(V) as S, count(*) as C from T where " + upTo(5) + " group by K",
			"select K, sum(V) as S, count(*) as C from T where " + upTo(bad) + " group by K"},
		{"SMA_Scan", []int{1}, "select D, K, V from T where " + pagesWhere(2, 3), "select D, K, V from T where " + pagesWhere(bad-1, bad)},
	}
	want := make(map[string][][]string) // by dop and SQL, before the flip
	for _, s := range shapes {
		for _, dop := range s.dops {
			for _, sql := range []string{s.around, s.through} {
				if sql == "" {
					continue
				}
				rows, plan, err := collectPlanned(db, sql, engine.WithDOP(dop))
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				if plan.StrategyName() != s.strategy || plan.DOP != dop || len(rows) == 0 {
					t.Fatalf("%s: %s at dop %d with %d rows, want %s at dop %d", sql, plan.StrategyName(), plan.DOP, len(rows), s.strategy, dop)
				}
				want[fmt.Sprint(dop, sql)] = rows
			}
		}
	}
	const content = "select K, count(*) as C, sum(V) as S, max(V) as M from T where V >= 0 group by K"
	wantContent, err := collectEngine(db, content)
	if err != nil {
		t.Fatal(err)
	}
	heap := tbl.Disk().Path()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	flip := func() {
		if err := chaos.FlipByte(heap, bad*storage.PageSize+100, 0x20); err != nil {
			t.Fatal(err)
		}
	}
	flip()

	for _, verify := range []bool{true, false} {
		for _, s := range shapes {
			for _, dop := range s.dops {
				t.Run(fmt.Sprintf("verify=%v/%s/dop=%d", verify, s.strategy, dop), func(t *testing.T) {
					db, err := engine.Open(dir, engine.Options{BucketPages: 1})
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					if verify {
						if _, err := db.Scrub(context.Background()); err != nil {
							t.Fatal(err)
						}
					}
					if (db.Degraded() != nil) != verify {
						t.Fatalf("degraded after open: %v, want %v", db.Degraded(), verify)
					}
					if rows, _, err := collectPlanned(db, s.through, engine.WithDOP(dop)); !storage.IsCorrupt(err) {
						t.Fatalf("%s: %d rows and error %v, want a corrupt-page error", s.through, len(rows), err)
					}
					if db.Degraded() == nil {
						t.Fatal("reading the flipped page left the database healthy")
					}
					if s.around != "" {
						rows, _, err := collectPlanned(db, s.around, engine.WithDOP(dop))
						if err != nil || fmt.Sprint(rows) != fmt.Sprint(want[fmt.Sprint(dop, s.around)]) {
							t.Fatalf("%s: %v (error %v), want the %d rows from before the flip", s.around, rows, err, len(want[fmt.Sprint(dop, s.around)]))
						}
					}
					if rows, err := collectEngine(db, "select sum(V) as S from GOOD"); err != nil || fmt.Sprint(rows) != "[[30]]" {
						t.Fatalf("healthy table while degraded: %v (error %v), want [[30]]", rows, err)
					}
				})
			}
		}
	}

	for _, verify := range []bool{true, false} {
		for _, sql := range []string{"update T set V = V + 1 where " + pagesWhere(bad-1, bad+1), "delete from T where " + pagesWhere(bad-1, bad+1)} {
			t.Run(fmt.Sprintf("verify=%v/%.6s", verify, sql), func(t *testing.T) {
				db, err := engine.Open(dir, engine.Options{BucketPages: 1})
				if err != nil {
					t.Fatal(err)
				}
				if verify {
					if _, err := db.Scrub(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := db.ExecContext(context.Background(), sql); !storage.IsCorrupt(err) {
					t.Fatalf("%.50s: error %v, want a corrupt-page error", sql, err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				flip()
				defer flip()
				db, err = engine.Open(dir, engine.Options{BucketPages: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if rows, err := collectEngine(db, content); err != nil || fmt.Sprint(rows) != fmt.Sprint(wantContent) {
					t.Fatalf("after the failed statement: %v (error %v), want %v", rows, err, wantContent)
				}
				tbl, err := db.Table("T")
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range tbl.SMAs() {
					if err := tbl.VerifySMA(s.Def.Name); err != nil {
						t.Errorf("VerifySMA(%s): %v", s.Def.Name, err)
					}
				}
			})
		}
	}

	// A flip in a page's delete marks: the first half of page marked is
	// deleted, and flipping the mark of its first slot would bring that row
	// back.
	// The page checksum covers the marks, so a statement that reads the
	// page fails with the corrupt-page error and one that skips it answers
	// as before the flip: none answers with the row.
	const marked = 30
	flip() // page bad heals
	if db, err = engine.Open(dir, engine.Options{BucketPages: 1}); err != nil {
		t.Fatal(err)
	}
	exec(fmt.Sprintf("delete from T where D >= date '%s' and D <= date '%s'", day(marked*per), day(marked*per+per/2)))
	markedSQL := []string{
		"select K, max(V) as M, count(*) as C from T where " + pagesWhere(marked-1, marked+1) + " group by K",
		"select K, max(V) as M from T group by K",
		"select K, sum(V) as S, count(*) as C from T where " + upTo(5) + " group by K",
	}
	wantMarked := make(map[string][][]string)
	for _, sql := range markedSQL {
		if wantMarked[sql], err = collectEngine(db, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := chaos.FlipByte(heap, int64((marked+1)*storage.PageSize-(per+7)/8), 0x01); err != nil {
		t.Fatal(err)
	}
	for _, verify := range []bool{true, false} {
		t.Run(fmt.Sprintf("verify=%v/marks", verify), func(t *testing.T) {
			db, err := engine.Open(dir, engine.Options{BucketPages: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if verify {
				if _, err := db.Scrub(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if (db.Degraded() != nil) != verify {
				t.Fatalf("degraded after open: %v, want %v", db.Degraded(), verify)
			}
			for i, sql := range markedSQL {
				rows, err := collectEngine(db, sql)
				switch {
				case err != nil && !storage.IsCorrupt(err):
					t.Fatalf("%s: %v, want the rows from before the flip or a corrupt-page error", sql, err)
				case err == nil && fmt.Sprint(rows) != fmt.Sprint(wantMarked[sql]):
					t.Fatalf("%s: %v, want %v from before the flip", sql, rows, wantMarked[sql])
				case (err == nil) != (i == 2):
					t.Fatalf("%s: error %v; only the query that skips page %d may answer", sql, err, marked)
				}
			}
		})
	}
}

// TestStalledSyncIsSlowNotStuck: a disk whose fsyncs stall must make the
// engine slow, never wedged — Close (which checkpoints and syncs) still
// completes, within the stall budget.
func TestStalledSyncIsSlowNotStuck(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(nil, "create table W (D date, V float64)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(nil, "insert into W values (date '2024-01-01', 1)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("W")
	if err != nil {
		t.Fatal(err)
	}
	tbl.Disk().SetFault(chaos.Stall("sync", 50*time.Millisecond))
	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close under stalled sync: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("close wedged under stalled sync")
	}
}
