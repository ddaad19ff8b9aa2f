package oracle_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sma"
	"sma/internal/oracle"
)

// strategyBucket folds plan-name variants ("FullScan+GAggr" vs "FullScan",
// "SMA_Scan+GAggr" vs "SMA_Scan") into the paper's three strategies.
func strategyBucket(name string) string {
	switch {
	case strings.HasPrefix(name, "SMA_GAggr"):
		return "SMA_GAggr"
	case strings.HasPrefix(name, "SMA_Scan"):
		return "SMA_Scan"
	default:
		return "FullScan"
	}
}

// runDiff drives one seeded workload through the real engine and the
// reference oracle in lockstep, requiring exact equivalence after every
// step: identical RowsAffected for every write, every SMA equal to a fresh
// build bit for bit after every write, and identical rendered column names
// and rows for every query. opts configure the engine beyond one-page
// buckets and the given dop.
func runDiff(t *testing.T, seed int64, dop, nOps int, opts ...sma.Option) map[string]bool {
	t.Helper()
	opts = append([]sma.Option{sma.WithBucketPages(1), sma.WithParallelism(dop)}, opts...)
	db, err := sma.Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	o := oracle.New()
	g := oracle.NewGen(seed)
	for _, setup := range g.Setup() {
		if _, err := db.Exec(setup); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Exec(setup); err != nil {
			t.Fatal(err)
		}
	}

	strategies := map[string]bool{}
	queries, writes := 0, 0
	for i := 0; i < nOps; i++ {
		op := g.Next()
		if !op.IsQuery {
			writes++
			res, err := db.Exec(op.SQL)
			if err != nil {
				t.Fatalf("step %d: engine: %s: %v", i, op.SQL, err)
			}
			want, err := o.Exec(op.SQL)
			if err != nil {
				t.Fatalf("step %d: oracle: %s: %v", i, op.SQL, err)
			}
			if res.RowsAffected != want {
				t.Fatalf("step %d: %s: engine affected %d rows, oracle %d",
					i, op.SQL, res.RowsAffected, want)
			}
			verifySMAs(t, i, op.SQL, db)
			continue
		}
		queries++
		rows, err := db.Query(op.SQL)
		if err != nil {
			t.Fatalf("step %d: engine: %s: %v", i, op.SQL, err)
		}
		got, err := sma.Collect(rows)
		if err != nil {
			t.Fatalf("step %d: engine: %s: %v", i, op.SQL, err)
		}
		want, err := o.Query(op.SQL)
		if err != nil {
			t.Fatalf("step %d: oracle: %s: %v", i, op.SQL, err)
		}
		strategies[strategyBucket(got.Strategy)] = true
		compareResults(t, i, op.SQL, got, want)
	}

	if queries < nOps/4 || writes < nOps/4 {
		t.Errorf("unbalanced workload: %d queries, %d writes", queries, writes)
	}
	return strategies
}

// verifySMAs holds every SMA of every table to a fresh build over its heap,
// bit for bit.
func verifySMAs(t *testing.T, step int, sql string, db *sma.DB) {
	t.Helper()
	for _, info := range db.Tables() {
		tbl, err := db.Table(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range info.SMAs {
			if err := tbl.VerifySMA(s.Name); err != nil {
				t.Fatalf("step %d: after %s: %v", step, sql, err)
			}
		}
	}
}

// compareResults requires the engine's rendered result to equal the
// oracle's exactly: same column names, same row count, same cells.
func compareResults(t *testing.T, step int, sql string, got *sma.Result, want *oracle.Result) {
	t.Helper()
	fail := func(detail string) {
		t.Fatalf("step %d: %s (plan %s): %s\nengine: cols=%v rows=%v\noracle: cols=%v rows=%v",
			step, sql, got.Strategy, detail, got.Columns, got.Rows, want.Columns, want.Rows)
	}
	if len(got.Columns) != len(want.Columns) {
		fail("column count differs")
	}
	for i := range got.Columns {
		if !strings.EqualFold(got.Columns[i], want.Columns[i]) {
			fail(fmt.Sprintf("column %d name %q vs %q", i, got.Columns[i], want.Columns[i]))
		}
	}
	if len(got.Rows) != len(want.Rows) {
		fail("row count differs")
	}
	for r := range got.Rows {
		for c := range got.Rows[r] {
			if got.Rows[r][c] != want.Rows[r][c] {
				fail(fmt.Sprintf("row %d column %d: %q vs %q", r, c, got.Rows[r][c], want.Rows[r][c]))
			}
		}
	}
}

// runSeeds runs the randomized workload for every seed at dop 1 and dop
// NumCPU. Across the seed set every dop must pass through all three planner
// strategies (a single short stream can legitimately stay below the
// SMA_Scan cost breakeven while the table is small).
func runSeeds(t *testing.T, seeds []int64, nOps int, opts ...sma.Option) {
	// dop NumCPU, but at least 2 so the parallel partition/merge path runs
	// even on a single-core machine (workers are goroutines, not cores).
	parallel := runtime.NumCPU()
	if parallel < 2 {
		parallel = 2
	}
	for _, dop := range []int{1, parallel} {
		dop := dop
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			covered := map[string]bool{}
			for _, seed := range seeds {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					for s := range runDiff(t, seed, dop, nOps, opts...) {
						covered[s] = true
					}
				})
			}
			for _, s := range []string{"FullScan", "SMA_GAggr", "SMA_Scan"} {
				if !covered[s] {
					t.Errorf("no seed exercised strategy %s at dop %d (saw %v)", s, dop, covered)
				}
			}
		})
	}
}

// TestDifferentialOracle runs the randomized workload, ≥ 200 interleaved
// operations per run, on the default engine configuration. Run with -race:
// DML holds the write lock while parallel readers partition buckets.
func TestDifferentialOracle(t *testing.T) {
	runSeeds(t, []int64{1, 7, 42, 1998}, 240)
}

// TestBatchVsRowDifferential is the same differential — the engine's batch
// pipeline against the oracle's row-at-a-time evaluation — with the engine
// cut into 96-tuple batches behind a 4-page prefetch window: batch
// boundaries inside buckets, grade-class flushes and a readahead that the
// cursor overtakes, none of which the default sizes reach on these small
// tables. Run with -race: every partition worker has its own prefetcher.
func TestBatchVsRowDifferential(t *testing.T) {
	runSeeds(t, []int64{3, 11, 1998}, 200, sma.WithBatchSize(96), sma.WithPrefetchWindow(4))
}
