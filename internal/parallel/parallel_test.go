package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sma/internal/core"
	"sma/internal/engine"
	"sma/internal/obs"
	"sma/internal/parallel"
	"sma/internal/testutil"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// query1 is the paper's TPC-D Query 1 (Fig. 3, delta = 90).
const query1 = `
SELECT L_RETURNFLAG, L_LINESTATUS,
       SUM(L_QUANTITY) AS SUM_QTY,
       SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
       AVG(L_QUANTITY) AS AVG_QTY,
       AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
       AVG(L_DISCOUNT) AS AVG_DISC,
       COUNT(*) AS COUNT_ORDER
FROM LINEITEM
WHERE L_SHIPDATE <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY L_RETURNFLAG, L_LINESTATUS
ORDER BY L_RETURNFLAG, L_LINESTATUS`

// q1SMADDL is the paper's Fig. 4: the eight Query-1 SMA definitions.
var q1SMADDL = []string{
	"define sma count select count(*) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma max select max(L_SHIPDATE) from LINEITEM",
	"define sma min select min(L_SHIPDATE) from LINEITEM",
	"define sma qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma dis select sum(L_DISCOUNT) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma ext select sum(L_EXTENDEDPRICE) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma extdis select sum(L_EXTENDEDPRICE*(1-L_DISCOUNT)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma extdistax select sum(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
}

// newLineItemDB loads a LINEITEM table in the given physical order and
// defines the named subset of the Query-1 SMAs ("all" defines every one).
func newLineItemDB(t *testing.T, sf float64, order tpcd.Order, smas []string, opts engine.Options) *engine.DB {
	t.Helper()
	db, err := engine.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("LINEITEM", tpcd.LineItemSchema().Columns())
	if err != nil {
		t.Fatal(err)
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: sf, Seed: 1998, Order: order})
	buf := tuple.NewTuple(tbl.Schema)
	for i := range items {
		items[i].FillTuple(buf)
		if _, err := tbl.Append(buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range smas {
		if _, err := db.ExecContext(context.Background(), ddl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// runQuery drains a query at the given degree of parallelism into value
// rows, also returning the plan's strategy name.
func runQuery(t *testing.T, db *engine.DB, sql string, dop int) ([][]any, string) {
	t.Helper()
	cur, err := db.QueryContext(context.Background(), sql, engine.WithDOP(dop))
	if err != nil {
		t.Fatalf("dop=%d: %v", dop, err)
	}
	defer cur.Close()
	var rows [][]any
	for {
		vals, ok, err := cur.Next()
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		if !ok {
			break
		}
		rows = append(rows, append([]any(nil), vals...))
	}
	return rows, cur.Plan().StrategyName()
}

// sameRows compares result sets cell by cell, with a relative tolerance on
// floats: parallel merging regroups floating-point summation across
// partition boundaries, so sums may differ in the last ulps.
func sameRows(t *testing.T, serial, par [][]any, label string) {
	t.Helper()
	if len(serial) != len(par) {
		t.Fatalf("%s: %d rows serial vs %d parallel", label, len(serial), len(par))
	}
	for i := range serial {
		if len(serial[i]) != len(par[i]) {
			t.Fatalf("%s row %d: %d cols vs %d", label, i, len(serial[i]), len(par[i]))
		}
		for j := range serial[i] {
			a, b := serial[i][j], par[i][j]
			fa, aok := a.(float64)
			fb, bok := b.(float64)
			if aok && bok {
				if diff := math.Abs(fa - fb); diff > 1e-9*math.Max(1, math.Max(math.Abs(fa), math.Abs(fb))) {
					t.Errorf("%s row %d col %d: %v vs %v", label, i, j, fa, fb)
				}
				continue
			}
			if a != b {
				t.Errorf("%s row %d col %d: %v vs %v", label, i, j, a, b)
			}
		}
	}
}

// query1Selective is Query 1's shape with a selective cutoff: few buckets
// qualify, so the planner picks SMA_Scan+GAggr when the aggregates are not
// covered by SMAs.
const query1Selective = `
SELECT L_RETURNFLAG, L_LINESTATUS,
       SUM(L_QUANTITY) AS SUM_QTY,
       AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
       COUNT(*) AS COUNT_ORDER
FROM LINEITEM
WHERE L_SHIPDATE <= DATE '1992-06-01'
GROUP BY L_RETURNFLAG, L_LINESTATUS
ORDER BY L_RETURNFLAG, L_LINESTATUS`

// TestParallelEquivalenceQ1 runs TPC-D Query 1 serially and at several
// degrees of parallelism under all four strategies — SMA_GAggr (all SMAs),
// SMA_Scan+GAggr (selection SMAs only, selective cutoff), FullScan+GAggr
// (no SMAs) and MemScan (a virtual table, which stays one unit at any
// requested dop) — and requires identical rows and identical bucket and
// page counts: the serial run is the parallel pipeline over one unit.
func TestParallelEquivalenceQ1(t *testing.T) {
	cases := []struct {
		name     string
		query    string
		smas     []string
		strategy string
	}{
		{"SMA_GAggr", query1, q1SMADDL, "SMA_GAggr"},
		{"SMA_Scan", query1Selective, q1SMADDL[1:3], "SMA_Scan+GAggr"},
		{"FullScan", query1, nil, "FullScan+GAggr"},
		// Only the statement run below has read pages, so the snapshot's
		// filtered content does not move between the runs compared.
		{"MemScan", `select CALLS, count(*) as N from sma_stat_statements
			where PAGES_READ >= 1 group by CALLS`, nil, "MemScan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newLineItemDB(t, 0.001, tpcd.OrderSorted, tc.smas,
				engine.Options{Obs: obs.NewObserver(obs.Config{})})
			runQuery(t, db, "select count(*) from LINEITEM", 1)
			serial, strat := runQuery(t, db, tc.query, 1)
			if strat != tc.strategy {
				t.Fatalf("strategy = %s, want %s", strat, tc.strategy)
			}
			if len(serial) == 0 {
				t.Fatal("no result rows")
			}
			serialStats := queryStats(t, db, tc.query, 1)
			for _, dop := range []int{2, 3, 8} {
				par, _ := runQuery(t, db, tc.query, dop)
				sameRows(t, serial, par, fmt.Sprintf("%s dop=%d", tc.name, dop))
				if ps := queryStats(t, db, tc.query, dop); ps != serialStats {
					t.Errorf("%s dop=%d stats = %+v, want %+v", tc.name, dop, ps, serialStats)
				}
			}
		})
	}
}

// TestSerialAggregateRunsInline: a dop-1 aggregate is the one pipeline run
// on the caller — no merge stage, no worker — and pays for no partitioner,
// predicate or spec clone, or merge map: the warm Query 1 statement
// allocates no more than it did when the serial plan was assembled by
// hand (226 allocations, measured at the commit before the pipelines were
// merged).
func TestSerialAggregateRunsInline(t *testing.T) {
	db := newLineItemDB(t, 0.001, tpcd.OrderSorted, q1SMADDL, engine.Options{})
	spans := func(dop int) map[string]int {
		cur, err := db.QueryContext(context.Background(), query1, engine.WithDOP(dop), engine.WithTrace(true))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok, err := cur.Next(); err != nil {
				t.Fatal(err)
			} else if !ok {
				break
			}
		}
		cur.Close()
		seen := map[string]int{}
		var walk func(n *obs.TraceNode)
		walk = func(n *obs.TraceNode) {
			seen[n.Name]++
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(cur.TraceNode())
		return seen
	}
	if s := spans(1); s["fold"] != 1 || s["merge"] != 0 || s["worker"] != 0 {
		t.Errorf("dop 1 spans = %v, want one fold and no merge or worker", s)
	}
	if s := spans(2); s["merge"] != 1 || s["worker"] != 2 || s["fold"] != 0 {
		t.Errorf("dop 2 spans = %v, want one merge over two workers and no fold", s)
	}
	if raceEnabled {
		return
	}
	runQuery(t, db, query1, 1) // warm
	if a := testing.AllocsPerRun(50, func() { runQuery(t, db, query1, 1) }); a > 226 {
		t.Errorf("warm serial Query 1 allocates %.0f times, want <= 226", a)
	}
}

// TestParallelAmbivalentHeavy uses diagonally clustered data, where the
// shipdate cutoff falls inside a wide band of ambivalent buckets that must
// be inspected tuple by tuple, and checks serial/parallel equivalence plus
// the per-query stats invariant (same bucket grading, same pages read, any
// dop).
func TestParallelAmbivalentHeavy(t *testing.T) {
	db := newLineItemDB(t, 0.001, tpcd.OrderDiagonal, q1SMADDL, engine.Options{})
	queries := []string{
		// Covered aggregates: SMA_GAggr with ambivalent buckets inspected.
		`select L_RETURNFLAG, count(*) as N, sum(L_QUANTITY) as Q
		 from LINEITEM where L_SHIPDATE <= date '1992-09-01' group by L_RETURNFLAG
		 order by L_RETURNFLAG`,
		// Uncovered min aggregate: SMA_Scan feeding a hash aggregation.
		`select L_RETURNFLAG, count(*) as N, min(L_EXTENDEDPRICE) as M
		 from LINEITEM where L_SHIPDATE <= date '1992-09-01' group by L_RETURNFLAG
		 order by L_RETURNFLAG`,
	}
	for qi, q := range queries {
		serialRows, strat := runQuery(t, db, q, 1)
		serialStats := queryStats(t, db, q, 1)
		if serialStats.Ambivalent == 0 {
			t.Fatalf("query %d (%s): expected ambivalent buckets on diagonal data, got %+v",
				qi, strat, serialStats)
		}
		for _, dop := range []int{2, 5} {
			parRows, _ := runQuery(t, db, q, dop)
			sameRows(t, serialRows, parRows, fmt.Sprintf("query %d dop=%d", qi, dop))
			if ps := queryStats(t, db, q, dop); ps != serialStats {
				t.Errorf("query %d dop=%d stats = %+v, want %+v", qi, dop, ps, serialStats)
			}
		}
	}
}

// TestParallelTinyBufferPool: the planner must cap the degree of
// parallelism by the pool capacity — more workers than frames would
// exhaust the pool (every worker pins a page) instead of helping.
func TestParallelTinyBufferPool(t *testing.T) {
	db := newLineItemDB(t, 0.001, tpcd.OrderSorted, nil,
		engine.Options{PoolPages: 4, Parallelism: 16})
	serial, _ := runQuery(t, db, query1, 1)
	par, _ := runQuery(t, db, query1, 16) // would fail without the cap
	sameRows(t, serial, par, "dop=16 pool=4")
}

// TestParallelAllDisqualified: when every bucket disqualifies, no
// partition is dispatched at all, and a global aggregate must still emit
// its single zero row — identically to a serial run.
func TestParallelAllDisqualified(t *testing.T) {
	db := newLineItemDB(t, 0.0005, tpcd.OrderSorted, q1SMADDL, engine.Options{})
	q := `select count(*) as N, sum(L_QUANTITY) as Q from LINEITEM
	      where L_SHIPDATE <= date '1990-01-01'`
	serial, _ := runQuery(t, db, q, 1)
	for _, dop := range []int{2, 4} {
		par, _ := runQuery(t, db, q, dop)
		sameRows(t, serial, par, fmt.Sprintf("dop=%d", dop))
	}
	if len(serial) != 1 {
		t.Fatalf("global aggregate rows = %d, want 1", len(serial))
	}
	if n := serial[0][0].(float64); n != 0 {
		t.Errorf("count = %v, want 0", n)
	}
	st := queryStats(t, db, q, 4)
	if st.Disqualifying == 0 || st.PagesRead != 0 {
		t.Errorf("stats = %+v, want all-disqualifying and zero pages read", st)
	}
}

// queryStats runs the query and returns the merged scan statistics.
func queryStats(t *testing.T, db *engine.DB, sql string, dop int) (out struct {
	Qualifying, Disqualifying, Ambivalent, PagesRead int
}) {
	t.Helper()
	cur, err := db.QueryContext(context.Background(), sql, engine.WithDOP(dop))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	s, ok := cur.Stats()
	if !ok {
		t.Fatal("plan reports no stats")
	}
	out.Qualifying, out.Disqualifying = s.Qualifying, s.Disqualifying
	out.Ambivalent, out.PagesRead = s.Ambivalent, s.PagesRead
	return out
}

// TestParallelCancellation cancels a context mid-scan under dop > 1 and
// requires the query to fail with context.Canceled well before an
// uncancelled run would finish: the cancel must stop every worker at its
// next page boundary, not run the scan to completion.
func TestParallelCancellation(t *testing.T) {
	db := newLineItemDB(t, 0.002, tpcd.OrderSorted, nil,
		engine.Options{ReadLatency: time.Millisecond})
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate: a full parallel cold run.
	if err := tbl.Heap.Pool().DropAll(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, strat := runQuery(t, db, query1, 4); strat != "FullScan+GAggr" {
		t.Fatalf("strategy = %s", strat)
	}
	full := time.Since(start)

	if err := tbl.Heap.Pool().DropAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	_, err = db.QueryContext(ctx, query1, engine.WithDOP(4))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > full/2 {
		t.Errorf("cancelled run took %v, full run %v: siblings not stopped promptly", elapsed, full)
	}
}

// TestRunFirstErrorCancelsSiblings checks the worker pool contract: the
// first task error cancels the shared context, unblocking every sibling.
func TestRunFirstErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	var canceled [4]bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := parallel.Run(context.Background(), 4, func(ctx context.Context, i int) error {
			if i == 0 {
				time.Sleep(5 * time.Millisecond)
				return boom
			}
			<-ctx.Done() // would block forever without sibling cancellation
			canceled[i] = true
			return ctx.Err()
		})
		if !errors.Is(err, boom) {
			t.Errorf("Run err = %v, want boom", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: siblings were not cancelled")
	}
	for i := 1; i < 4; i++ {
		if !canceled[i] {
			t.Errorf("worker %d never observed cancellation", i)
		}
	}
}

// TestPartitionBuckets checks that disqualifying buckets are dropped, the
// surviving buckets are covered exactly once in ascending order, at most
// dop partitions come back, and the page weights are balanced.
func TestPartitionBuckets(t *testing.T) {
	db := newLineItemDB(t, 0.0005, tpcd.OrderSorted, nil, engine.Options{})
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	h := tbl.Heap
	nb := h.NumBuckets()
	if nb < 10 {
		t.Fatalf("need >= 10 buckets, have %d", nb)
	}
	grades := make([]core.Grade, nb)
	for b := range grades {
		switch {
		case b%3 == 0:
			grades[b] = core.Disqualifies
		case b%3 == 1:
			grades[b] = core.Qualifies
		default:
			grades[b] = core.Ambivalent
		}
	}
	for _, dop := range []int{1, 2, 4, nb, nb * 2} {
		parts := parallel.PartitionBuckets(h, grades, dop, false)
		if len(parts) > dop {
			t.Fatalf("dop=%d: %d partitions", dop, len(parts))
		}
		var seen []int
		var minPages, maxPages int64 = math.MaxInt64, 0
		for _, p := range parts {
			if len(p.Buckets) != len(p.Grades) {
				t.Fatalf("dop=%d: buckets/grades length mismatch", dop)
			}
			for i, b := range p.Buckets {
				if grades[b] == core.Disqualifies {
					t.Fatalf("dop=%d: disqualified bucket %d dispatched", dop, b)
				}
				if p.Grades[i] != grades[b] {
					t.Fatalf("dop=%d: bucket %d grade mismatch", dop, b)
				}
				seen = append(seen, b)
			}
			if p.Pages < minPages {
				minPages = p.Pages
			}
			if p.Pages > maxPages {
				maxPages = p.Pages
			}
		}
		want := 0
		for b, g := range grades {
			if g == core.Disqualifies {
				continue
			}
			if want >= len(seen) || seen[want] != b {
				t.Fatalf("dop=%d: survivor %d missing or out of order", dop, b)
			}
			want++
		}
		if want != len(seen) {
			t.Fatalf("dop=%d: covered %d buckets, want %d", dop, len(seen), want)
		}
		// With single-page buckets the split should be near-even.
		if len(parts) > 1 && maxPages > minPages+2 {
			t.Errorf("dop=%d: unbalanced partitions: min %d max %d pages", dop, minPages, maxPages)
		}
	}
	if parts := parallel.PartitionBuckets(h, make([]core.Grade, 0), 4, false); parts != nil {
		t.Errorf("empty grades should partition to nil, got %v", parts)
	}

	// SMA-answered mode: qualifying buckets cost no page I/O, so with the
	// first half qualifying and the second half ambivalent, a page-weighted
	// split would give one worker all the real work. The weighted split
	// must spread the ambivalent buckets across partitions instead.
	skew := make([]core.Grade, nb)
	for b := range skew {
		if b < nb/2 {
			skew[b] = core.Qualifies
		} else {
			skew[b] = core.Ambivalent
		}
	}
	parts := parallel.PartitionBuckets(h, skew, 4, true)
	if len(parts) != 4 {
		t.Fatalf("smaAnswered split: %d partitions, want 4", len(parts))
	}
	ambPerPart := make([]int, len(parts))
	for i, p := range parts {
		for j, b := range p.Buckets {
			if p.Grades[j] != skew[b] {
				t.Fatalf("smaAnswered split: bucket %d grade mismatch", b)
			}
			if skew[b] == core.Ambivalent {
				ambPerPart[i]++
			}
		}
	}
	totalAmb := nb - nb/2
	for i, n := range ambPerPart {
		if n > totalAmb/2 {
			t.Errorf("smaAnswered split: partition %d holds %d of %d ambivalent buckets (page I/O not spread)",
				i, n, totalAmb)
		}
	}
}

// TestPartitionRunsCutsWhereBucketsDo checks PartitionRuns against the
// bucket-at-a-time split below, which weighs and cuts after every surviving
// bucket: over random grade patterns, degrees and both weightings, on a
// heap of three-page buckets whose last bucket is short, both give the same
// buckets with the same grades, partition by partition, and the same pages.
func TestPartitionRunsCutsWhereBucketsDo(t *testing.T) {
	schema := testutil.PaddedFloatSchema(t, 4)
	h := testutil.NewHeap(t, schema, 3, 256)
	tp := tuple.NewTuple(schema)
	for i := 0; i < 4*(3*40+2); i++ { // 40 whole buckets and one of two pages
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	nb := h.NumBuckets()
	type part struct {
		buckets []int
		grades  []core.Grade
		pages   int64
	}
	bucketAtATime := func(grades []core.Grade, dop int, smaAnswered bool) []part {
		var total int64
		survivors := 0
		weight := func(b int) (pages, w int64) {
			first, last := h.BucketRange(b)
			pages = int64(last-first) + 1
			if smaAnswered && grades[b] == core.Qualifies {
				return pages, 1
			}
			return pages, 64 * pages
		}
		for b, g := range grades {
			if g != core.Disqualifies {
				_, w := weight(b)
				total += w
				survivors++
			}
		}
		dop = min(dop, survivors)
		var parts []part
		var cur part
		var cum int64
		for b, g := range grades {
			if g == core.Disqualifies {
				continue
			}
			pages, w := weight(b)
			cur.buckets, cur.grades, cur.pages = append(cur.buckets, b), append(cur.grades, g), cur.pages+pages
			if cum += w; len(parts) < dop-1 && cum*int64(dop) >= total*int64(len(parts)+1) {
				parts, cur = append(parts, cur), part{}
			}
		}
		if len(cur.buckets) > 0 {
			parts = append(parts, cur)
		}
		return parts
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		grades := make([]core.Grade, 0, nb)
		for len(grades) < nb {
			g := core.Grade(rng.Intn(3))
			for n := 1 + rng.Intn([]int{2, 8, 30}[rng.Intn(3)]); n > 0 && len(grades) < nb; n-- {
				grades = append(grades, g)
			}
		}
		dop, smaAnswered := 1+rng.Intn(6), rng.Intn(2) == 0
		want := bucketAtATime(grades, dop, smaAnswered)
		var got []part
		for _, p := range parallel.PartitionRuns(h, core.RunsOf(nil, grades), dop, smaAnswered) {
			q := part{pages: p.Pages}
			for _, r := range p.Runs {
				for b := int(r.Lo); b < int(r.Hi); b++ {
					q.buckets, q.grades = append(q.buckets, b), append(q.grades, r.Grade)
				}
			}
			got = append(got, q)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (dop %d, smaAnswered %v): %d partitions, want %d", trial, dop, smaAnswered, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i].buckets, want[i].buckets) || !slices.Equal(got[i].grades, want[i].grades) || got[i].pages != want[i].pages {
				t.Fatalf("trial %d (dop %d, smaAnswered %v): partition %d is %+v, want %+v", trial, dop, smaAnswered, i, got[i], want[i])
			}
		}
	}
}

// TestPartitionPages checks the page-range split used by parallel full
// scans: exact coverage, no overlap, at most dop ranges.
func TestPartitionPages(t *testing.T) {
	for _, tc := range []struct {
		pages int64
		dop   int
	}{
		{0, 4}, {1, 4}, {7, 3}, {100, 4}, {5, 5}, {5, 50},
	} {
		ranges := parallel.PartitionPages(tc.pages, tc.dop)
		if tc.pages == 0 {
			if ranges != nil {
				t.Errorf("pages=0: got %v", ranges)
			}
			continue
		}
		if int64(len(ranges)) > tc.pages || len(ranges) > tc.dop {
			t.Errorf("pages=%d dop=%d: %d ranges", tc.pages, tc.dop, len(ranges))
		}
		var next int64
		for _, r := range ranges {
			if int64(r.First) != next || r.Last <= r.First {
				t.Fatalf("pages=%d dop=%d: bad range %+v at %d", tc.pages, tc.dop, r, next)
			}
			next = int64(r.Last)
		}
		if next != tc.pages {
			t.Errorf("pages=%d dop=%d: covered %d", tc.pages, tc.dop, next)
		}
	}
}
