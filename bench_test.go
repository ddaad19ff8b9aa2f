// Package sma's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (§2.4) and the §4 ablations, one benchmark per
// artifact:
//
//	BenchmarkTable1SMACreation    — §2.4 creation-time/size table (E1)
//	BenchmarkTable2Space          — §2.4 SMA vs B+-tree space (E2)
//	BenchmarkTable3CubeSpace      — §2.4 data-cube storage model (E3)
//	BenchmarkTable4Query1*        — §2.4 Query-1 runtime table (E4)
//	BenchmarkFigure5Sweep         — Fig. 5 runtime vs ambivalent fraction (E5)
//	BenchmarkFigure2Diagonal      — Fig. 2 clustering quality (E7)
//	BenchmarkAblationBucketSize   — §4 bucket-size trade-off (E8)
//	BenchmarkAblationHierarchical — §4 level-2 summary in GradeAll (E9)
//	BenchmarkAblationSemiJoin     — §4 semi-join reduced to R.A <= max(S.B) (E10)
//
// Query benchmarks run with the simulated disk model (100µs sequential
// page read, +500µs seek) so the published shapes — two-orders-of-magnitude
// Query-1 speedup, ≈25% breakeven — appear in ns/op; page counts are
// attached as hardware-independent metrics. Pure-CPU micro benchmarks
// (build, grade, scan) run without simulated latency.
package sma

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"sma/internal/btree"
	"sma/internal/core"
	"sma/internal/cube"
	"sma/internal/engine"
	"sma/internal/exec"
	"sma/internal/experiments"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// benchSF is the default scale factor for benchmarks (the paper uses SF 1;
// everything scales linearly in the number of buckets, §2.4).
const benchSF = 0.01

// diskModel returns the simulated-disk configuration.
func diskModel(cfg experiments.Config) experiments.Config {
	cfg.ReadLatency = 100 * time.Microsecond
	cfg.SeekLatency = 500 * time.Microsecond
	return cfg
}

// envCache shares environments across benchmarks: building one costs far
// more than running the queries under test.
var envCache = map[string]*experiments.Env{}

// cachedEnv returns a shared environment for the config.
func cachedEnv(b *testing.B, key string, cfg experiments.Config) *experiments.Env {
	b.Helper()
	if e, ok := envCache[key]; ok {
		return e
	}
	e, err := experiments.NewEnv(cfg)
	if err != nil {
		b.Fatalf("build env %s: %v", key, err)
	}
	envCache[key] = e
	return e
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, e := range envCache {
		e.Close()
	}
	os.Exit(code)
}

// --- E1 ---------------------------------------------------------------------

// BenchmarkTable1SMACreation bulkloads the paper's eight Query-1 SMAs
// (26 SMA-files); ns/op is the full creation time, and the metrics report
// the SMA sizes the paper's table lists.
func BenchmarkTable1SMACreation(b *testing.B) {
	e := cachedEnv(b, "plain-sorted", experiments.Config{SF: benchSF, Order: tpcd.OrderSorted})
	b.ResetTimer()
	var pages int64
	for i := 0; i < b.N; i++ {
		pages = 0
		for _, def := range experiments.Q1SMADefs() {
			s, err := core.Build(e.LineItem, def)
			if err != nil {
				b.Fatal(err)
			}
			pages += s.PagesUsed()
		}
	}
	b.ReportMetric(float64(pages), "sma-pages")
	b.ReportMetric(float64(e.LineItem.NumPages()), "rel-pages")
}

// --- E2 ---------------------------------------------------------------------

// BenchmarkTable2Space builds the shipdate B+-tree the paper sizes against
// the SMAs; ns/op is the tree creation time, metrics carry both sizes.
func BenchmarkTable2Space(b *testing.B) {
	e := cachedEnv(b, "plain-sorted", experiments.Config{SF: benchSF, Order: tpcd.OrderSorted})
	b.ResetTimer()
	var treePages int
	for i := 0; i < b.N; i++ {
		t, err := btree.BuildFromHeap(e.LineItem, "L_SHIPDATE", 0.67)
		if err != nil {
			b.Fatal(err)
		}
		treePages = t.NumPages()
	}
	b.ReportMetric(float64(treePages), "btree-pages")
	b.ReportMetric(float64(e.SMAPages()), "sma-pages")
}

// --- E3 ---------------------------------------------------------------------

// BenchmarkTable3CubeSpace materializes the one-date-dimension Query-1 cube
// and evaluates the paper's cube storage model; metrics carry the modeled
// sizes in MB.
func BenchmarkTable3CubeSpace(b *testing.B) {
	e := cachedEnv(b, "plain-sorted", experiments.Config{SF: benchSF, Order: tpcd.OrderSorted})
	b.ResetTimer()
	var c *cube.Cube
	for i := 0; i < b.N; i++ {
		var err error
		c, err = cube.Build(e.LineItem)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.MaterializedBytes())/(1024*1024), "cube1d-MB")
	b.ReportMetric(cube.SpaceBytes(3)/(1024*1024*1024), "cube3d-model-GB")
	b.ReportMetric(float64(e.SMASizeBytes())/(1024*1024), "sma-MB")
}

// --- E4 ---------------------------------------------------------------------

// q1Env returns the shared simulated-disk, shipdate-sorted environment for
// the Query-1 runtime benchmarks.
func q1Env(b *testing.B) *experiments.Env {
	return cachedEnv(b, "disk-sorted", diskModel(experiments.Config{SF: benchSF, Order: tpcd.OrderSorted}))
}

// BenchmarkTable4Query1NoSMA is the paper's "without SMAs" row: a full
// sequential scan with hash aggregation, cold every iteration.
func BenchmarkTable4Query1NoSMA(b *testing.B) {
	e := q1Env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := e.GoCold(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.RunQ1Baseline(90); err != nil {
			b.Fatal(err)
		}
	}
	reads, _ := e.Disk().Stats()
	b.ReportMetric(float64(reads), "pages/op")
}

// BenchmarkTable4Query1SMACold is the "with SMAs (cold)" row: empty buffer
// pool, SMA-file read charged at sequential cost.
func BenchmarkTable4Query1SMACold(b *testing.B) {
	e := q1Env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := e.GoCold(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		time.Sleep(time.Duration(e.SMAPages()) * e.Cfg.ReadLatency)
		if _, _, err := e.RunQ1SMA(90); err != nil {
			b.Fatal(err)
		}
	}
	reads, _ := e.Disk().Stats()
	b.ReportMetric(float64(reads)+float64(e.SMAPages()), "pages/op")
}

// BenchmarkTable4Query1SMAWarm is the "with SMAs (warm)" row: SMA vectors
// and the few ambivalent pages stay hot between runs.
func BenchmarkTable4Query1SMAWarm(b *testing.B) {
	e := q1Env(b)
	if _, _, err := e.RunQ1SMA(90); err != nil { // warm up
		b.Fatal(err)
	}
	e.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunQ1SMA(90); err != nil {
			b.Fatal(err)
		}
	}
	reads, _ := e.Disk().Stats()
	b.ReportMetric(float64(reads)/float64(b.N), "pages/op")
}

// --- E5 ---------------------------------------------------------------------

// BenchmarkFigure5Sweep reruns the Query-1 SMA plan at planted ambivalence
// fractions; the no-SMA cost is flat (BenchmarkTable4Query1NoSMA), so the
// crossing of ns/op against that flat line is the paper's breakeven.
func BenchmarkFigure5Sweep(b *testing.B) {
	for _, frac := range []float64{0, 0.10, 0.20, 0.25, 0.30, 0.40} {
		b.Run(fmt.Sprintf("ambivalent=%.0f%%", frac*100), func(b *testing.B) {
			cfg := diskModel(experiments.Config{SF: benchSF, Order: tpcd.OrderSorted, AmbivalentFrac: frac})
			e := cachedEnv(b, fmt.Sprintf("fig5-%.2f", frac), cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := e.GoCold(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := e.RunQ1SMA(90); err != nil {
					b.Fatal(err)
				}
			}
			reads, _ := e.Disk().Stats()
			b.ReportMetric(float64(reads), "pages/op")
		})
	}
}

// --- E7 ---------------------------------------------------------------------

// BenchmarkFigure2Diagonal grades every bucket under each physical
// ordering; the ambivalent-bucket metric shows the diagonal clustering
// effect of Fig. 2 (sorted ≪ diagonal ≪ spec ≪ shuffled).
func BenchmarkFigure2Diagonal(b *testing.B) {
	for _, o := range []tpcd.Order{tpcd.OrderSorted, tpcd.OrderDiagonal, tpcd.OrderSpec, tpcd.OrderShuffled} {
		b.Run(o.String(), func(b *testing.B) {
			e := cachedEnv(b, "fig2-"+o.String(), experiments.Config{SF: benchSF, Order: o})
			g := e.Grader()
			p := experiments.Q1Pred(90)
			var counts core.GradeCounts
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				counts = core.CountGrades(g.GradeAll(p))
			}
			b.ReportMetric(100*counts.AmbivalentFrac(), "ambivalent-%")
		})
	}
}

// --- E8 ---------------------------------------------------------------------

// BenchmarkAblationBucketSize sweeps the §4 bucket-size trade-off on
// diagonally clustered data: ns/op is a cold SMA-plan run; metrics report
// SMA pages (falling with bucket size) and ambivalent pages (rising).
func BenchmarkAblationBucketSize(b *testing.B) {
	for _, bp := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("bucketPages=%d", bp), func(b *testing.B) {
			cfg := diskModel(experiments.Config{SF: benchSF, Order: tpcd.OrderDiagonal, BucketPages: bp})
			e := cachedEnv(b, fmt.Sprintf("bp-%d", bp), cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := e.GoCold(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := e.RunQ1SMA(90); err != nil {
					b.Fatal(err)
				}
			}
			counts := core.CountGrades(e.Grader().GradeAll(experiments.Q1Pred(90)))
			b.ReportMetric(float64(e.SMAPages()), "sma-pages")
			b.ReportMetric(float64(counts.Ambivalent*bp), "ambivalent-pages")
		})
	}
}

// --- E9 ---------------------------------------------------------------------

// BenchmarkAblationHierarchical times one grading pass of Query 1's
// shipdate atom on diagonal data; GradeAll grades each full presence word
// by its level-2 summary first (§4). The metrics carry the words level 2
// decided and the level-1 entries still read (E9).
func BenchmarkAblationHierarchical(b *testing.B) {
	e := cachedEnv(b, "plain-diagonal", experiments.Config{SF: benchSF, Order: tpcd.OrderDiagonal})
	p := experiments.Q1Pred(90)
	g := e.Grader()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GradeAll(p)
	}
	r := experiments.RunE9(e, 90)
	b.ReportMetric(float64(r.WordsDecided), "l2-words-decided")
	b.ReportMetric(float64(r.L1Read), "l1-entries")
}

// --- E10 --------------------------------------------------------------------

// BenchmarkAblationSemiJoin runs the §4 semi-join reduction end to end;
// ns/op covers both plans, metrics carry the bucket pruning rate.
func BenchmarkAblationSemiJoin(b *testing.B) {
	cfg := diskModel(experiments.Config{SF: benchSF})
	var last experiments.E10Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		last, err = experiments.RunE10(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*float64(last.BucketsPruned)/float64(last.BucketsTotal), "pruned-%")
}

// --- E11 ----------------------------------------------------------------------

// BenchmarkAccessPathsVsSelectivity compares the non-clustered B+-tree
// plan, the sequential scan, and the SMA scan at a 10% selectivity on
// uniform data — the intro's "some queries refuse the application of a
// (traditional) index structure" argument. Metrics carry pages read.
func BenchmarkAccessPathsVsSelectivity(b *testing.B) {
	cfg := diskModel(experiments.Config{SF: 0.005})
	var last experiments.E11Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		last, err = experiments.RunE11(cfg, []float64{0.10})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range last.Rows {
		if row.Order == tpcd.OrderSpec {
			b.ReportMetric(float64(row.IndexPages), "index-pages")
			b.ReportMetric(float64(row.ScanPages), "scan-pages")
			b.ReportMetric(float64(row.SMAPages), "sma-pages")
		}
	}
}

// --- parallel execution -------------------------------------------------------

// q1FullScanSQL is TPC-D Query 1; with no SMAs defined the planner always
// runs it as FullScan+GAggr, the target of the parallel page-partitioned
// path.
const q1FullScanSQL = `
SELECT L_RETURNFLAG, L_LINESTATUS,
       SUM(L_QUANTITY) AS SUM_QTY,
       SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
       AVG(L_QUANTITY) AS AVG_QTY, AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
       AVG(L_DISCOUNT) AS AVG_DISC, COUNT(*) AS COUNT_ORDER
FROM LINEITEM
WHERE L_SHIPDATE <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY L_RETURNFLAG, L_LINESTATUS
ORDER BY L_RETURNFLAG, L_LINESTATUS`

// parQ1DB loads a LINEITEM-only engine (no SMAs) for the parallel and
// exec-mode benchmarks; opts.ReadLatency > 0 simulates a disk whose reads
// the partition workers (and the prefetcher) overlap.
func parQ1DB(b *testing.B, sf float64, opts engine.Options) *engine.DB {
	b.Helper()
	db, err := engine.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("LINEITEM", tpcd.LineItemSchema().Columns())
	if err != nil {
		b.Fatal(err)
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: sf, Seed: 1998, Order: tpcd.OrderSorted})
	tp := tuple.NewTuple(tbl.Schema)
	for i := range items {
		items[i].FillTuple(tp)
		if _, err := tbl.Append(tp); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// drainQ1 executes Query 1 at the given degree of parallelism and drains
// the cursor.
func drainQ1(b *testing.B, db *engine.DB, dop int) {
	b.Helper()
	cur, err := db.QueryContext(context.Background(), q1FullScanSQL, engine.WithDOP(dop))
	if err != nil {
		b.Fatal(err)
	}
	for {
		_, ok, err := cur.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
	}
	cur.Close()
}

// parallelDOPs returns the benchmark's serial-vs-parallel comparison
// points: dop=1, dop=4 (the acceptance target), and dop=NumCPU when that
// differs.
func parallelDOPs() []int {
	dops := []int{1, 4}
	if n := runtime.NumCPU(); n != 4 && n > 1 {
		dops = append(dops, n)
	}
	return dops
}

// BenchmarkParallelQ1FullScanDisk runs the TPC-D Query 1 full scan cold
// against the simulated disk (1ms page reads, the time.Sleep regime, so
// worker I/O genuinely overlaps) at dop=1 vs dop=4 vs dop=NumCPU. The
// speedup comes from overlapping page waits across page-range partitions —
// the classic Gamma argument — and appears even on a single core.
func BenchmarkParallelQ1FullScanDisk(b *testing.B) {
	db := parQ1DB(b, 0.002, engine.Options{ReadLatency: time.Millisecond})
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		b.Fatal(err)
	}
	for _, dop := range parallelDOPs() {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := tbl.Heap.Pool().DropAll(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				drainQ1(b, db, dop)
			}
			b.ReportMetric(float64(tbl.Heap.NumPages()), "pages")
		})
	}
}

// BenchmarkParallelQ1FullScanWarm runs the same query entirely from the
// buffer pool: pure CPU (predicate evaluation + aggregation), which scales
// with physical cores.
func BenchmarkParallelQ1FullScanWarm(b *testing.B) {
	db := parQ1DB(b, 0.02, engine.Options{})
	drainQ1(b, db, 1) // warm the pool
	for _, dop := range parallelDOPs() {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainQ1(b, db, dop)
			}
		})
	}
}

// --- execution + prefetch ------------------------------------------------------

// BenchmarkQuery1ExecModeWarm runs the TPC-D Query 1 full scan at dop=1
// entirely from the buffer pool — pure CPU: page decode, selection vector
// and the alloc-free aggregation fold.
func BenchmarkQuery1ExecModeWarm(b *testing.B) {
	db := parQ1DB(b, 0.02, engine.Options{PoolPages: 16384}) // hold the whole table: no re-reads
	drainQ1(b, db, 1)                                        // warm the pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainQ1(b, db, 1)
	}
}

// BenchmarkQuery1ExecModeColdDisk runs the same query cold against the
// simulated disk at dop=1 (1ms page reads, the time.Sleep regime, so
// prefetch I/O genuinely overlaps even on a single core): the prefetcher
// streams the pages in ahead of the cursor, overlapping I/O with
// computation.
func BenchmarkQuery1ExecModeColdDisk(b *testing.B) {
	db := parQ1DB(b, 0.002, engine.Options{ReadLatency: time.Millisecond})
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := tbl.Heap.Pool().DropAll(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		drainQ1(b, db, 1)
	}
	st := tbl.Heap.Pool().Stats()
	b.ReportMetric(float64(tbl.Heap.NumPages()), "pages")
	b.ReportMetric(float64(st.PrefetchHits)/float64(b.N), "prefetch-hits/op")
}

// --- micro benchmarks (no simulated disk) ------------------------------------

// BenchmarkSMABuildMinMax measures bulkloading a single ungrouped min SMA.
func BenchmarkSMABuildMinMax(b *testing.B) {
	e := cachedEnv(b, "plain-sorted", experiments.Config{SF: benchSF, Order: tpcd.OrderSorted})
	def := experiments.Q1SMADefs()[2] // min(L_SHIPDATE)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(e.LineItem, def); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMABuildManyVsSeparate compares building the eight Query-1 SMAs
// in one shared relation scan (core.BuildMany) against eight separate
// scans, the trade-off behind the paper's per-SMA creation table.
func BenchmarkSMABuildManyVsSeparate(b *testing.B) {
	e := cachedEnv(b, "plain-sorted", experiments.Config{SF: benchSF, Order: tpcd.OrderSorted})
	defs := experiments.Q1SMADefs()
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, def := range defs {
				if _, err := core.Build(e.LineItem, def); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("one-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildMany(e.LineItem, defs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaintenanceAppend measures append throughput with the eight
// Query-1 SMAs attached — the paper's "cheap to maintain" claim: each
// append updates one entry per SMA-file in O(1).
func BenchmarkMaintenanceAppend(b *testing.B) {
	e, err := experiments.NewEnv(experiments.Config{SF: 0.002, Order: tpcd.OrderSorted})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	smas := make([]*core.SMA, 0, len(e.SMAs))
	for _, s := range e.SMAs {
		smas = append(smas, s)
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: 0.001, Seed: 99})
	tp := tupleNew(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items[i%len(items)].FillTuple(tp)
		rid, err := e.LineItem.Append(tp)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range smas {
			if err := s.OnAppend(e.LineItem, tp, rid); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(smas)), "smas-maintained")
}

// tupleNew allocates a LINEITEM tuple for an environment.
func tupleNew(e *experiments.Env) tuple.Tuple {
	return tuple.NewTuple(e.LineItem.Schema())
}

// BenchmarkGradeAll measures the pure in-memory grading pass the planner
// uses for its breakeven estimate.
func BenchmarkGradeAll(b *testing.B) {
	e := cachedEnv(b, "plain-sorted", experiments.Config{SF: benchSF, Order: tpcd.OrderSorted})
	g := e.Grader()
	p := experiments.Q1Pred(90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GradeAll(p)
	}
	b.ReportMetric(float64(e.LineItem.NumBuckets()), "buckets")
}

// BenchmarkSMAScanVsTableScan compares the Fig. 6 operator against a full
// scan on a selective predicate over sorted data.
func BenchmarkSMAScanVsTableScan(b *testing.B) {
	e := cachedEnv(b, "plain-sorted", experiments.Config{SF: benchSF, Order: tpcd.OrderSorted})
	p := experiments.Q1Pred(2200) // selective cutoff
	count := func(b *testing.B, it exec.BatchIter) {
		if err := it.Open(); err != nil {
			b.Fatal(err)
		}
		defer it.Close()
		n := 0
		for {
			batch, err := it.NextBatch()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				return
			}
			n += len(batch.Sel)
		}
	}
	b.Run("TableScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count(b, exec.NewBatchTableScan(e.LineItem, p, exec.ExecOptions{}))
		}
	})
	b.Run("SMAScan", func(b *testing.B) {
		g := e.Grader()
		for i := 0; i < b.N; i++ {
			count(b, exec.NewBatchSMAScan(e.LineItem, p, g, exec.ExecOptions{}))
		}
	})
}
