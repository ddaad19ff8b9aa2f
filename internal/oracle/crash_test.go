package oracle_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"sma/internal/engine"
	"sma/internal/oracle"
	"sma/internal/storage"
)

var errInjected = errors.New("injected disk fault")

// verifyQueries are the full-state probes run against both engines after
// every crash/recovery cycle: a positional projection of every live row
// (both engines preserve relative row order through inserts, in-place
// updates, and deletes) and a grouped aggregate.
var verifyQueries = []string{
	"select D, K, V, N from W",
	"select K, sum(V) as SV from W group by K",
	"select K, count(*) as C from W group by K",
}

// collectEngine drains one query — aggregate or streaming projection —
// into rendered rows.
func collectEngine(db *engine.DB, sql string) ([][]string, error) {
	cur, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	infos := cur.Columns()
	var rows [][]string
	for {
		vals, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = oracle.RenderValue(v, infos[i].IsAgg)
		}
		rows = append(rows, out)
	}
}

// crashDiffCompare requires one query to render identically on both sides.
func crashDiffCompare(t *testing.T, db *engine.DB, o *oracle.Oracle, sql string) {
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

// runCrashDiff drives a seeded workload through the engine and the
// oracle, repeatedly injecting disk faults until a statement fails
// mid-flight, then killing the engine without shutdown and reopening it.
// The oracle applies exactly the statements the engine reported
// committed, so after recovery the two must agree on every probe — the
// committed prefix survived, the aborted suffix did not.
func runCrashDiff(t *testing.T, seed int64, dop int) {
	dir := t.TempDir()
	open := func() *engine.DB {
		db, err := engine.Open(dir, engine.Options{
			BucketPages:      1,
			PoolPages:        8, // tiny pool: statements evict mid-flight, so faults bite
			Parallelism:      dop,
			AllowUnsafeCrash: true,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	db := open()
	defer func() { db.Close() }()
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
	rnd := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))

	const rounds = 3
	for round := 0; round < rounds; round++ {
		// Mirrored phase: both sides apply the stream in lockstep.
		for i, steps := 0, 25+rnd.Intn(25); i < steps; i++ {
			op := g.Next()
			if op.IsQuery {
				crashDiffCompare(t, db, o, op.SQL)
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

		// Fault phase: after a random number of further disk writes, every
		// write fails. Statements keep committing until one dies mid-apply
		// (or its rollback poisons the database); the oracle mirrors only
		// the reported commits.
		tbl, err := db.Table(oracle.Table)
		if err != nil {
			t.Fatal(err)
		}
		var countdown atomic.Int64
		countdown.Store(int64(rnd.Intn(30)))
		tbl.Disk().SetFault(func(opName string, page storage.PageID) error {
			if opName == "write" && countdown.Add(-1) < 0 {
				return errInjected
			}
			return nil
		})
		sawFailure := false
		var failedDDL string
		for i := 0; i < 60; i++ {
			op := g.Next()
			if op.IsQuery {
				continue // reads are not faulted; keep the phase write-only
			}
			res, err := db.ExecContext(nil, op.SQL)
			if err != nil {
				sawFailure = true
				// A failed DML statement simply vanishes (the oracle never
				// sees it), but the generator assumes its DDL succeeded and
				// will reference the SMA later — re-drive it after recovery.
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
		if !sawFailure && round == 0 {
			t.Log("fault countdown never fired; crashing with an all-committed prefix")
		}

		// Kill and recover.
		if err := db.Crash(); err != nil {
			// Crash flushes what it can; injected-fault residue is fine.
			t.Logf("round %d: crash: %v", round, err)
		}
		db = open()
		rs := db.RecoveryStats()
		if !rs.Performed {
			t.Fatalf("round %d: reopen after crash skipped recovery", round)
		}
		for _, q := range verifyQueries {
			crashDiffCompare(t, db, o, q)
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

	// A clean shutdown must also round-trip.
	if err := db.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	db = open()
	if db.RecoveryStats().Performed {
		t.Fatal("recovery ran after a clean Close")
	}
	for _, q := range verifyQueries {
		crashDiffCompare(t, db, o, q)
	}
}

// TestCrashRecoveryDifferential is the crash-safety analogue of
// TestDifferentialOracle: seeded workloads with injected disk faults,
// process-kill crashes, and recovery on reopen, at dop 1 and dop NumCPU
// (run with -race). After every recovery the engine must match an oracle
// that replayed exactly the committed prefix.
func TestCrashRecoveryDifferential(t *testing.T) {
	parallel := runtime.NumCPU()
	if parallel < 2 {
		parallel = 2
	}
	for _, dop := range []int{1, parallel} {
		dop := dop
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			for _, seed := range []int64{3, 42, 1998} {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					runCrashDiff(t, seed, dop)
				})
			}
		})
	}
}
