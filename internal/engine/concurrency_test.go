package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"sma/internal/engine"
	"sma/internal/planner"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// TestConcurrentQueriesAndAppends hammers a table with parallel readers and
// writers; run with -race to check the locking discipline. Every query must
// see a consistent count (monotonically related to the appends completed).
func TestConcurrentQueriesAndAppends(t *testing.T) {
	db, tbl := openSales(t, t.TempDir())
	defer db.Close()
	for _, ddl := range []string{
		"define sma dmin select min(SALE_DATE) from SALES",
		"define sma dmax select max(SALE_DATE) from SALES",
		"define sma cnt select count(*) from SALES group by REGION",
	} {
		if _, err := db.DefineSMA(ddl); err != nil {
			t.Fatal(err)
		}
	}

	const writers, readers, perWriter = 4, 4, 100
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tp := tuple.NewTuple(tbl.Schema)
			for i := 0; i < perWriter; i++ {
				tp.SetInt32(0, tuple.DateFromYMD(2022, 1, 1)+int32(i))
				tp.SetChar(1, "N")
				tp.SetFloat64(2, float64(w*1000+i))
				if _, err := tbl.Append(tp); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := engine.Collect(db, "select count(*) as N from SALES where SALE_DATE >= date '2022-01-01'")
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if len(res.Rows) != 1 {
					errCh <- fmt.Errorf("reader %d: %d rows", r, len(res.Rows))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Final state is fully consistent.
	res, err := engine.Collect(db, "select count(*) as N from SALES where SALE_DATE >= date '2022-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d", writers*perWriter)
	if res.Rows[0][0] != want {
		t.Errorf("final count = %s, want %s", res.Rows[0][0], want)
	}
	for _, s := range tbl.SMAs() {
		if err := s.Verify(tbl.Heap); err != nil {
			t.Errorf("after concurrent load: %v", err)
		}
	}
}

// TestConcurrentDMLAndParallelReaders runs SQL insert/update/delete
// statements against readers that execute with intra-query parallelism
// (dop = NumCPU): partition workers must only ever observe fully applied
// statements, and the SMAs must be exact afterwards. Run with -race.
func TestConcurrentDMLAndParallelReaders(t *testing.T) {
	db := openEvents(t)
	ctx := context.Background()
	var seed []string
	for i := 0; i < 200; i++ {
		seed = append(seed, fmt.Sprintf("(date '2024-01-01', '%c', %d, %d, 'p')", 'A'+i%3, i%50, i))
	}
	exec(t, db, "insert into EVENTS values "+strings.Join(seed, ", "))
	exec(t, db, "define sma tmin select min(TS) from EVENTS")
	exec(t, db, "define sma tmax select max(TS) from EVENTS")
	exec(t, db, "define sma vsum select sum(VALUE) from EVENTS group by KIND")

	const writers, readers, perWorker = 2, 4, 40
	dop := runtime.NumCPU()
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var stmt string
				switch i % 3 {
				case 0:
					stmt = fmt.Sprintf("insert into EVENTS values (date '2024-03-01', 'D', %d, %d, 'q'), (date '2024-03-02', 'E', %d, %d, 'q')",
						i, w*1000+i, i+1, w*1000+i)
				case 1:
					stmt = fmt.Sprintf("update EVENTS set VALUE = VALUE + 1 where N = %d", i)
				default:
					stmt = fmt.Sprintf("delete from EVENTS where N = %d and KIND = 'E'", w*1000+i)
				}
				if _, err := db.ExecContext(ctx, stmt); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cur, err := db.QueryContext(ctx,
					"select KIND, sum(VALUE), count(*) from EVENTS where TS >= date '2024-01-01' group by KIND",
					engine.WithDOP(dop))
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				for {
					_, ok, err := cur.Next()
					if err != nil {
						errCh <- fmt.Errorf("reader %d: %w", r, err)
						cur.Close()
						return
					}
					if !ok {
						break
					}
				}
				cur.Close()
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	verifyAll(t, db, "EVENTS")
}

// TestLevel2FirstUseUnderConcurrentReaders: a write lowers the level-2
// watermarks of the SMA-files it changes (appends and a bucket refold), and
// the first readers after it extend the summaries at once — Query 1, whose
// grading takes whole presence words and whose sums fold from bucket 0, a
// grouped aggregate with no predicate, and both at dop 2, whose partitions
// fold the same files. Every answer must equal the one a serial run gives
// once the summaries have settled. Run it with -race.
func TestLevel2FirstUseUnderConcurrentReaders(t *testing.T) {
	db := openLineItem(t, 0.002, tpcd.OrderSorted)
	for _, ddl := range []string{
		"define sma min select min(L_SHIPDATE) from LINEITEM",
		"define sma max select max(L_SHIPDATE) from LINEITEM",
		"define sma count select count(*) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma ext select sum(L_EXTENDEDPRICE) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma extdis select sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	} {
		exec(t, db, ddl)
	}
	const q1 = `select L_RETURNFLAG, L_LINESTATUS, sum(L_QUANTITY) as SUM_QTY, sum(L_EXTENDEDPRICE) as SUM_BASE,
		sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) as SUM_DISC, avg(L_QUANTITY) as AVG_QTY, count(*) as COUNT_ORDER
		from LINEITEM where L_SHIPDATE <= date '1998-09-02' group by L_RETURNFLAG, L_LINESTATUS`
	const all = `select L_RETURNFLAG, sum(L_EXTENDEDPRICE) as SUM_BASE, count(*) as N
		from LINEITEM group by L_RETURNFLAG`
	type query struct {
		sql string
		dop int
	}
	queries := []query{{q1, 1}, {all, 1}, {q1, 2}, {all, 2}}
	// answer renders every value exactly (%v prints the shortest float that
	// reads back to the same bits), in a deterministic row order.
	answer := func(q query) (string, error) {
		cur, err := db.QueryContext(context.Background(), q.sql, engine.WithDOP(q.dop))
		if err != nil {
			return "", err
		}
		defer cur.Close()
		if s := cur.Plan().Strategy; s != planner.StrategySMAGAggr {
			return "", fmt.Errorf("%s at dop %d planned as %v, want SMA_GAggr", q.sql, q.dop, s)
		}
		var rows []string
		for {
			vals, ok, err := cur.Next()
			if err != nil {
				return "", err
			}
			if !ok {
				break
			}
			rows = append(rows, fmt.Sprint(vals...))
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n"), nil
	}
	var insert strings.Builder // 40 rows shipped last: they extend the last buckets
	insert.WriteString("insert into LINEITEM values ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			insert.WriteString(", ")
		}
		fmt.Fprintf(&insert, "(%d, 1, 1, 1, %d, %d.25, 0.0%d, 0.02, '%c', 'F', date '1998-11-%02d', date '1998-12-01', date '1998-12-02', 'NONE', 'MAIL', 'late')",
			900000+i, 1+i%50, 1000+i, i%10, "ANR"[i%3], 1+i%28)
	}
	writes := []string{
		insert.String(),
		"update LINEITEM set L_QUANTITY = L_QUANTITY + 1, L_EXTENDEDPRICE = L_EXTENDEDPRICE * 1.5 where L_SHIPDATE >= date '1994-03-01' and L_SHIPDATE < date '1994-03-08'",
		"delete from LINEITEM where L_SHIPDATE >= date '1996-01-01' and L_SHIPDATE < date '1996-01-05'",
	}
	const readers = 4
	for _, w := range writes {
		exec(t, db, w)
		got := make([][]string, readers)
		errs := make([]error, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				for i := range queries {
					q := queries[(i+r)%len(queries)] // each reader starts elsewhere
					a, err := answer(q)
					if err != nil {
						errs[r] = err
						return
					}
					got[r] = append(got[r], a)
				}
			}(r)
		}
		close(start)
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("after %q, reader %d: %v", w, r, err)
			}
		}
		for i, q := range queries {
			want, err := answer(q)
			if err != nil {
				t.Fatal(err)
			}
			for r := range got {
				if a := got[r][(i-r%len(queries)+len(queries))%len(queries)]; a != want {
					t.Errorf("after %q, reader %d at dop %d: first-use answer\n%s\nserial answer\n%s", w, r, q.dop, a, want)
				}
			}
		}
	}
	verifyAll(t, db, "LINEITEM")
}
