package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sma/internal/engine"
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
