package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sma/internal/obs"
	"sma/internal/oracle"
	"sma/internal/tuple"
)

// cachedRun is one drained query: its rendered rows, its strategy and
// whether the statement cache spared it the parse.
type cachedRun struct {
	rows     string
	strategy string
	cached   bool
}

func runCached(t *testing.T, db *DB, sql string) cachedRun {
	t.Helper()
	cur, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	defer cur.Close()
	var rows []string
	for {
		vals, ok, err := cur.Next()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !ok {
			break
		}
		rows = append(rows, fmt.Sprint(vals...))
	}
	return cachedRun{rows: strings.Join(rows, "\n"), strategy: cur.Plan().StrategyName(), cached: cur.Cached()}
}

// TestStatementCacheFollowsEveryChange sends one text before and after
// every kind of change that can make a plan stale — an INSERT that opens a
// bucket, an INSERT of a new group key (a new SMA-file in every grouped
// SMA, which the template's binding does not name), an UPDATE that moves a
// bucket's minimum, an UPDATE that moves a row between groups, a DELETE
// that empties a bucket, an INSERT rolled back after SMA maintenance ran
// (its SMAs rebuilt), DROP SMA and DEFINE SMA — and requires, each time,
// that the text is planned again from its cached parse, that its template
// is reused while nothing changes, and that both answer as a cache that
// never saw the text does, strategy included. A statistics read sent twice
// sees the first one counted.
func TestStatementCacheFollowsEveryChange(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BucketPages: 1, Obs: obs.NewObserver(obs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	exec := func(sql string) {
		t.Helper()
		if _, err := db.ExecContext(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	day := func(d int) string { return tuple.FormatDate(tuple.DateFromYMD(2024, 1, 1) + int32(d)) }
	rows := func(n int, at func(i int) int) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("(date '%s', '%c', %d.5, 'x')", day(at(i)), 'A'+i%3, i)
		}
		return strings.Join(vals, ", ")
	}
	// Nine rows fill a page and a bucket: 270 rows, three a day, are 30
	// full buckets in date order.
	exec("create table T (D date, K char(1), V float64, PAD char(400))")
	exec("insert into T values " + rows(270, func(i int) int { return i / 3 }))
	for _, ddl := range []string{
		"define sma dmin select min(D) from T",
		"define sma dmax select max(D) from T",
		"define sma cnt select count(*) from T group by K",
		"define sma sv select sum(V) from T group by K",
	} {
		exec(ddl)
	}
	tbl, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if per := tbl.Heap.RecordsPerPage(); per != 9 {
		t.Fatalf("%d records a page; the buckets below assume 9", per)
	}

	const q = "select K, count(*), sum(V) from T where D <= date '2024-01-31' group by K order by K"
	var last string
	// check runs q three times: planned again after the change from its
	// cached parse, from the template that run left, and after the cache is
	// emptied; the three must agree, and with the strategy named.
	check := func(change, strategy string, changed bool) {
		t.Helper()
		replanned, template := runCached(t, db, q), runCached(t, db, q)
		db.ForgetStatements()
		fresh := runCached(t, db, q)
		if !replanned.cached || !template.cached || fresh.cached {
			t.Fatalf("after %s: cached %v, %v, %v; want true, true, false", change, replanned.cached, template.cached, fresh.cached)
		}
		for _, r := range []cachedRun{replanned, template} {
			if r.rows != fresh.rows || r.strategy != fresh.strategy {
				t.Fatalf("after %s: a cached plan answered\n%s (%s)\nan empty cache\n%s (%s)",
					change, r.rows, r.strategy, fresh.rows, fresh.strategy)
			}
		}
		if fresh.strategy != strategy {
			t.Fatalf("after %s: strategy %s, want %s", change, fresh.strategy, strategy)
		}
		if (fresh.rows != last) != changed {
			t.Fatalf("after %s: answer %q, before %q; want changed=%v", change, fresh.rows, last, changed)
		}
		last = fresh.rows
	}
	last = runCached(t, db, q).rows
	check("nothing", "SMA_GAggr", false)

	exec("insert into T values " + rows(10, func(int) int { return 4 }))
	if n := tbl.Heap.NumBuckets(); n != 32 {
		t.Fatalf("%d buckets after the insert, want 32", n)
	}
	check("an INSERT that opens a bucket", "SMA_GAggr", true)

	files := func() (n int) {
		for _, name := range []string{"cnt", "sv"} {
			n += tbl.smas[name].NumFiles()
		}
		return n
	}
	before := files()
	exec("insert into T values (date '2024-01-05', 'D', 0.25, 'x')")
	if after := files(); after != before+2 {
		t.Fatalf("%d SMA-files after a new group's INSERT, %d before; want one more in each grouped SMA", after, before)
	}
	check("an INSERT of a new group key", "SMA_GAggr", true)
	if !strings.Contains("\n"+last, "\nD1 0.25") {
		t.Fatalf("after an INSERT of a new group key: no row of group D in\n%s", last)
	}

	exec("update T set D = date '2024-01-02' where D = date '" + day(80) + "'")
	check("an UPDATE that moves a bucket's minimum", "SMA_GAggr", true)

	exec("update T set K = 'B' where D = date '" + day(10) + "' and K = 'A'")
	check("an UPDATE that moves a row between groups", "SMA_GAggr", true)

	exec("delete from T where D >= date '2024-01-07' and D <= date '2024-01-09'")
	check("a DELETE that empties a bucket", "SMA_GAggr", true)

	boom := errors.New("maintenance fault")
	calls := 0
	tbl.maintFault = func() error {
		if calls++; calls > 1 {
			return boom
		}
		return nil
	}
	_, err = db.ExecContext(ctx, "insert into T values "+rows(12, func(int) int { return 2 }))
	tbl.maintFault = nil
	if !errors.Is(err, boom) {
		t.Fatalf("insert under a maintenance fault: %v", err)
	}
	check("an INSERT rolled back after maintenance", "SMA_GAggr", false)

	exec("drop sma dmin on T")
	check("DROP SMA", "FullScan+GAggr", false)

	exec("define sma dmin select min(D) from T")
	check("DEFINE SMA", "SMA_GAggr", false)

	// A virtual table's plan is never kept: the second read sees the
	// first counted.
	const stat = "select count(*), sum(CALLS) from sma_stat_statements"
	calls0 := runCached(t, db, stat)
	calls1 := runCached(t, db, stat)
	if !calls1.cached {
		t.Errorf("%s: parsed again", stat)
	}
	var n0, s0, n1, s1 float64
	fmt.Sscan(calls0.rows, &n0, &s0)
	fmt.Sscan(calls1.rows, &n1, &s1)
	if s1 != s0+1 {
		t.Errorf("%s: sum(CALLS) %v, then %v; want the first read counted", stat, s0, s1)
	}
}

// TestStatementCacheConcurrentReadersAndWriter: readers send one text,
// answered from one cache entry, while a writer's inserts move the epoch
// under them. Every answer counts at least the rows committed before the
// read began and at most those sent when it ended: a template kept past a
// write would grade the buckets the write added away.
func TestStatementCacheConcurrentReadersAndWriter(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BucketPages: 1, Obs: obs.NewObserver(obs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	for _, sql := range []string{
		"create table T (D date, V float64, PAD char(400))",
		"define sma dmin select min(D) from T",
		"define sma dmax select max(D) from T",
		"define sma c select count(*) from T",
		"define sma sv select sum(V) from T",
		// 30 full buckets: enough for the SMAs to beat a scan.
		"insert into T values " + strings.Repeat("(date '2024-01-01', 1, 'x'), ", 269) + "(date '2024-01-01', 1, 'x')",
	} {
		if _, err := db.ExecContext(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	const q = "select count(*), sum(V) from T where D <= date '2024-12-31'"
	var sent, committed atomic.Int64
	sent.Store(270)
	committed.Store(270)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 60; i++ {
			sql := fmt.Sprintf("insert into T values (date '2024-02-%02d', 1, 'x'), (date '2024-03-%02d', 1, 'y'), (date '2024-04-%02d', 1, 'z')",
				i%28+1, i%28+1, i%28+1)
			sent.Add(3)
			if _, err := db.ExecContext(ctx, sql); err != nil {
				errs <- err
				return
			}
			committed.Add(3)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(dop int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lo := committed.Load()
				cur, err := db.QueryContext(ctx, q, WithDOP(dop))
				if err != nil {
					errs <- err
					return
				}
				vals, ok, err := cur.Next()
				if err != nil || !ok {
					errs <- fmt.Errorf("no row (err %v)", err)
					return
				}
				n, sum := vals[0].(float64), vals[1].(float64)
				_ = cur.Close()
				if s := cur.Plan().StrategyName(); s != "SMA_GAggr" {
					errs <- fmt.Errorf("%s planned as %s", q, s)
					return
				}
				if hi := sent.Load(); n < float64(lo) || n > float64(hi) || sum != n {
					errs <- fmt.Errorf("count %v, sum %v: %d rows were committed before the read, %d sent after", n, sum, lo, hi)
					return
				}
			}
		}(1 + r%2)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStatementCacheSharedBindingUnderWriters: readers at dop 1 and dop 2
// send one grouped SMA_GAggr text — every read between two writes planned
// from one template, its binding shared by the readers and by both workers
// of a dop-2 read — while a writer's inserts each add a group, a new
// SMA-file in every grouped SMA. Every answer must be the oracle's after
// some number of the writes between those committed when the read began
// and those sent when it ended: a binding kept past a write would miss the
// new group's SMA-file, and one shared unsafely would mix groups.
func TestStatementCacheSharedBindingUnderWriters(t *testing.T) {
	db, err := Open(t.TempDir(), Options{BucketPages: 1, Obs: obs.NewObserver(obs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	o := oracle.New()
	apply := func(sql string) {
		t.Helper()
		if _, err := db.ExecContext(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if _, err := o.Exec(sql); err != nil {
			t.Fatalf("oracle: %s: %v", sql, err)
		}
	}
	day := func(d int) string { return tuple.FormatDate(tuple.DateFromYMD(2024, 1, 1) + int32(d)) }
	// 100 buckets of nine rows, four a day: up to the cutoff day they
	// qualify, the one holding it is ambivalent, the rest disqualify.
	vals := make([]string, 900)
	for i := range vals {
		vals[i] = fmt.Sprintf("(date '%s', 'K%02d', %d.5, 'x')", day(i/4), i%3, i%8)
	}
	for _, sql := range []string{
		"create table T (D date, K char(3), V float64, PAD char(400))",
		"insert into T values " + strings.Join(vals, ", "),
		"define sma dmin select min(D) from T",
		"define sma dmax select max(D) from T",
		"define sma cnt select count(*) from T group by K",
		"define sma sv select sum(V) from T group by K",
	} {
		apply(sql)
	}
	const q = "select K, count(*), sum(V), avg(V) from T where D <= date '2024-06-30' group by K order by K"
	// Each write adds a group with rows inside the range; every fourth
	// also adds a row past it, which makes its bucket ambivalent.
	const writes = 24
	inserts := make([]string, writes)
	answers := make([]string, writes+1) // answers[k]: after k writes
	answer := func() string {
		t.Helper()
		res, err := o.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	answers[0] = answer()
	for w := range inserts {
		rows := fmt.Sprintf("(date '%s', 'N%02d', %d.25, 'y'), (date '%s', 'N%02d', 2, 'y'), (date '%s', 'K01', 1, 'y')",
			day(30+w), w, w, day(60+w), w, day(90+w))
		if w%4 == 3 {
			rows += fmt.Sprintf(", (date '%s', 'N%02d', 3, 'y')", day(200+w), w)
		}
		inserts[w] = "insert into T values " + rows
		if _, err := o.Exec(inserts[w]); err != nil {
			t.Fatal(err)
		}
		answers[w+1] = answer()
	}

	var sent, committed atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, sql := range inserts {
			sent.Add(1)
			if _, err := db.ExecContext(ctx, sql); err != nil {
				errs <- err
				return
			}
			committed.Add(1)
		}
	}()
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(dop int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lo := committed.Load()
				res, err := Collect(db, q, WithDOP(dop))
				if err != nil {
					errs <- err
					return
				}
				if s := res.Plan.StrategyName(); s != "SMA_GAggr" {
					errs <- fmt.Errorf("%s planned as %s", q, s)
					return
				}
				got, hi := fmt.Sprint(res.Rows), sent.Load()
				ok := false
				for k := lo; k <= hi && !ok; k++ {
					ok = got == answers[k]
				}
				if !ok {
					errs <- fmt.Errorf("dop %d read\n%s\nwhich is no oracle answer after %d to %d writes (after %d: %s)",
						dop, got, lo, hi, lo, answers[lo])
					return
				}
				reads.Add(1)
			}
		}(1 + r%2)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d reads beside %d writes", reads.Load(), writes)
	if reads.Load() == 0 {
		t.Error("no read finished beside the writer")
	}
}

// TestStatementCacheDifferential drives the oracle's seeded workloads —
// which send the last query texts again after every run of writes and DDL
// — through the engine with the default cache and with a cache of one
// entry, requiring the oracle's answers; it counts the reads a template
// answered and those a cached parse was planned again for, and requires
// both to have happened.
func TestStatementCacheDifferential(t *testing.T) {
	for _, size := range []int{stmtCacheMax, 1} {
		for _, dop := range []int{1, 2} {
			for _, seed := range []int64{1, 42} {
				t.Run(fmt.Sprintf("size=%d/dop=%d/seed=%d", size, dop, seed), func(t *testing.T) {
					templates, replans := cacheDiff(t, seed, dop, size, 240)
					t.Logf("%d reads from a template, %d planned again from a cached parse", templates, replans)
					if templates == 0 || size > 1 && replans == 0 {
						t.Errorf("the cache answered %d reads from a template and planned %d again", templates, replans)
					}
				})
			}
		}
	}
}

func cacheDiff(t *testing.T, seed int64, dop, size, nOps int) (templates, replans int) {
	db, err := Open(t.TempDir(), Options{BucketPages: 1, Parallelism: dop, Obs: obs.NewObserver(obs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.stmts.max = size
	ctx := context.Background()
	o, g := oracle.New(), oracle.NewGen(seed)
	for _, sql := range g.Setup() {
		if _, err := db.ExecContext(ctx, sql); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nOps; i++ {
		op := g.Next()
		if !op.IsQuery {
			res, err := db.ExecContext(ctx, op.SQL)
			if err != nil {
				t.Fatalf("step %d: engine: %s: %v", i, op.SQL, err)
			}
			if want, err := o.Exec(op.SQL); err != nil || res.RowsAffected != want {
				t.Fatalf("step %d: %s: engine affected %d rows, oracle %d (%v)", i, op.SQL, res.RowsAffected, want, err)
			}
			continue
		}
		e := db.stmts.get(op.SQL)
		cur, err := db.QueryContext(ctx, op.SQL)
		if err != nil {
			t.Fatalf("step %d: engine: %s: %v", i, op.SQL, err)
		}
		var got [][]string
		for {
			vals, ok, err := cur.Next()
			if err != nil {
				t.Fatalf("step %d: engine: %s: %v", i, op.SQL, err)
			}
			if !ok {
				break
			}
			row := make([]string, len(vals))
			for c, v := range vals {
				row[c] = oracle.RenderValue(v, cur.Columns()[c].IsAgg)
			}
			got = append(got, row)
		}
		switch {
		case (e != nil) != cur.Cached():
			t.Fatalf("step %d: %s: cache entry %v, parse skipped %v", i, op.SQL, e != nil, cur.Cached())
		case e != nil && e.epoch == db.epoch:
			templates++
		case e != nil:
			replans++
		}
		want, err := o.Query(op.SQL)
		if err != nil {
			t.Fatalf("step %d: oracle: %s: %v", i, op.SQL, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want.Rows) && !(len(got) == 0 && len(want.Rows) == 0) {
			t.Fatalf("step %d: %s (plan %s):\nengine %v\noracle %v", i, op.SQL, cur.Plan().StrategyName(), got, want.Rows)
		}
	}
	return templates, replans
}

// TestStatementCacheKeepsLiteralVariantsApart runs FuzzNormalize's seed
// corpus (internal/parser) through the cache: the two instantiations of a
// template that differ only in a literal share a fingerprint but never an
// entry, an exec text is never stored, and a text that fails is not either.
func TestStatementCacheKeepsLiteralVariantsApart(t *testing.T) {
	db, err := Open(t.TempDir(), Options{Obs: obs.NewObserver(obs.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	for _, sql := range []string{
		"create table SALES (AMOUNT int64, Y int64)",
		"create table T (X int64, A int64, B int64, K int64)",
		"insert into SALES values (7, 1999), (1999, 7), (5, 3)",
		"insert into T values (1, 0, 3, 42), (2, 3, 0, 7)",
	} {
		if _, err := db.ExecContext(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if db.stmts.get(sql) != nil {
			t.Errorf("%s: an exec text was stored", sql)
		}
	}
	type seed struct {
		a, b     int64
		template string
	}
	// FuzzNormalize's f.Add seeds, then its checked-in corpus.
	seeds := []seed{
		{7, 1999, "select * from sales where amount > %d and y = %d"},
		{0, -3, "select sum(x) from t where a = %d or b < %d"},
		{42, 42, "select count(*) from t where k >= %d limit %d"},
		{3, 5, "insert into t values (%d, 'x', %d)"},
	}
	files, err := filepath.Glob(filepath.Join("..", "parser", "testdata", "fuzz", "FuzzNormalize", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzNormalize corpus (%v)", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var s seed
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 4 {
			t.Fatalf("%s: not a (int64, int64, string) corpus entry", f)
		}
		a, errA := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(lines[1], "int64("), ")"), 10, 64)
		bb, errB := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(lines[2], "int64("), ")"), 10, 64)
		tmpl, errT := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[3], "string("), ")"))
		if errA != nil || errB != nil || errT != nil {
			t.Fatalf("%s: %v %v %v", f, errA, errB, errT)
		}
		s.a, s.b, s.template = a, bb, tmpl
		seeds = append(seeds, s)
	}
	// fill instantiates a template as FuzzNormalize does: spaced literals,
	// negatives spelled positive (the lexer has no unary minus).
	fill := func(template string, a, b int64) string {
		abs := func(v int64) string {
			if v < 0 {
				v = -v
			}
			return " " + strconv.FormatInt(v, 10) + " "
		}
		return strings.Replace(strings.Replace(template, "%d", abs(a), 1), "%d", abs(b), 1)
	}
	stored := 0
	for _, s := range seeds {
		if strings.Count(s.template, "%d") != 2 {
			continue
		}
		s1, s2 := fill(s.template, s.a, s.b), fill(s.template, s.b, s.a)
		exec := strings.HasPrefix(s.template, "insert")
		for _, sql := range []string{s1, s2} {
			var err error
			if exec {
				_, err = db.ExecContext(ctx, sql) // fails too: T has four columns
			} else if cur, qerr := db.QueryContext(ctx, sql); qerr == nil {
				cur.Close()
			} else {
				err = qerr
			}
			if (exec || err != nil) && db.stmts.get(sql) != nil {
				t.Errorf("%s (error %v) was stored", sql, err)
			}
		}
		e1, e2 := db.stmts.get(s1), db.stmts.get(s2)
		if e1 == nil || e2 == nil {
			continue
		}
		stored++
		if e1.fp != e2.fp {
			t.Errorf("literal variants fingerprint apart: %q %x, %q %x", s1, e1.fp, s2, e2.fp)
		}
		if s1 != s2 && (e1 == e2 || e1.query == e2.query || e1.plan == e2.plan) {
			t.Errorf("literal variants share an entry: %q, %q", s1, s2)
		}
	}
	if stored < 3 {
		t.Errorf("%d of the seed templates were stored, want the 3 queries", stored)
	}
}
