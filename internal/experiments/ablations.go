package experiments

import (
	"fmt"
	"strings"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// --- E8: bucket-size trade-off (§4) -----------------------------------------

// E8Row is one bucket size of the ablation.
type E8Row struct {
	BucketPages   int
	SMAPages      int64
	AmbivalentPct float64
	// ModelCost is SMA pages (sequential) + ambivalent pages (random) under
	// the planner's cost model, the quantity the §4 trade-off discussion is
	// about: small buckets inflate SMA I/O, large buckets inflate
	// ambivalent-page I/O.
	ModelCost float64
	Warm      time.Duration
}

// E8Result is the bucket-size sweep.
type E8Result struct {
	SF    float64
	Delta int
	Rows  []E8Row
}

// RunE8 sweeps the bucket size on diagonally clustered data.
func RunE8(base Config, deltaDays int, bucketSizes []int) (E8Result, error) {
	base = base.withDefaults()
	r := E8Result{SF: base.SF, Delta: deltaDays}
	for _, bp := range bucketSizes {
		cfg := base
		cfg.Order = tpcd.OrderDiagonal
		cfg.BucketPages = bp
		e, err := NewEnv(cfg)
		if err != nil {
			return r, err
		}
		row := E8Row{BucketPages: bp, SMAPages: e.SMAPages()}
		counts := core.CountGrades(e.Grader().GradeAll(Q1Pred(deltaDays)))
		row.AmbivalentPct = 100 * counts.AmbivalentFrac()
		row.ModelCost = float64(row.SMAPages) + 4*float64(counts.Ambivalent*bp)
		// Warm run: SMA vectors hot, ambivalent buckets from disk.
		if err := e.GoCold(); err != nil {
			e.Close()
			return r, err
		}
		start := time.Now()
		if _, _, err := e.RunQ1SMA(deltaDays); err != nil {
			e.Close()
			return r, err
		}
		row.Warm = time.Since(start)
		r.Rows = append(r.Rows, row)
		e.Close()
	}
	return r, nil
}

// Render prints the sweep.
func (r E8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E8 — bucket-size trade-off (§4), diagonal data, SF %.3g\n", r.SF)
	fmt.Fprintf(&b, "  %12s %10s %14s %12s %12s\n", "bucket pages", "sma pages", "ambivalent %", "model cost", "runtime")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %12d %10d %13.1f%% %12.0f %12s\n",
			row.BucketPages, row.SMAPages, row.AmbivalentPct, row.ModelCost,
			row.Warm.Round(time.Millisecond))
	}
	return b.String()
}

// --- E9: hierarchical SMAs (§4) ----------------------------------------------

// E9Row is one fanout of the hierarchical ablation.
type E9Row struct {
	Fanout        int
	RunsDecided   int
	L1Read        int
	L1Total       int
	SavedPct      float64
	Level2Entries int
}

// E9Result is the hierarchical-SMA ablation.
type E9Result struct {
	SF   float64
	Rows []E9Row
}

// RunE9 builds two-level SMAs at several fanouts over diagonally clustered
// data and measures how much level-1 I/O the second level avoids.
func RunE9(base Config, deltaDays int, fanouts []int) (E9Result, error) {
	base = base.withDefaults()
	cfg := base
	cfg.Order = tpcd.OrderDiagonal
	e, err := NewEnv(cfg)
	if err != nil {
		return E9Result{}, err
	}
	defer e.Close()
	r := E9Result{SF: base.SF}
	atom := Q1Pred(deltaDays).(*pred.Atom)
	flat := e.Grader().GradeAll(atom)
	for _, f := range fanouts {
		tl, err := core.NewTwoLevel(e.SMAs["min"], e.SMAs["max"], f)
		if err != nil {
			return r, err
		}
		grades := make([]core.Grade, tl.NumBuckets())
		stats, err := tl.GradeAtom(atom, grades)
		if err != nil {
			return r, err
		}
		for _, run := range flat {
			for b := int(run.Lo); b < int(run.Hi); b++ {
				if grades[b] != run.Grade {
					return r, fmt.Errorf("E9: hierarchical grade of bucket %d (%s) differs from flat (%s)",
						b, grades[b], run.Grade)
				}
			}
		}
		row := E9Row{
			Fanout:        f,
			RunsDecided:   stats.RunsDecided,
			L1Read:        stats.L1EntriesRead,
			L1Total:       stats.L1EntriesTotal,
			Level2Entries: tl.NumRuns(),
		}
		if stats.L1EntriesTotal > 0 {
			row.SavedPct = 100 * (1 - float64(stats.L1EntriesRead)/float64(stats.L1EntriesTotal))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Render prints the ablation.
func (r E9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E9 — hierarchical (two-level) SMAs (§4), SF %.3g\n", r.SF)
	fmt.Fprintf(&b, "  %8s %12s %12s %12s %12s\n", "fanout", "L2 entries", "runs decided", "L1 read", "L1 saved")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %8d %12d %12d %12d %11.1f%%\n",
			row.Fanout, row.Level2Entries, row.RunsDecided, row.L1Read, row.SavedPct)
	}
	return b.String()
}

// --- E10: semi-join SMAs (§4) --------------------------------------------------

// E10Result is the semi-join reduction experiment.
type E10Result struct {
	SF            float64
	SelectedRows  int
	BucketsTotal  int
	BucketsPruned int
	ScanPages     int64
	SMAPagesRead  int64
	ScanTime      time.Duration
	SMATime       time.Duration
}

// RunE10 evaluates the §4 pattern "select R.* from R, S where R.A θ S.B" as
// a semi-join: LINEITEM rows whose shipdate precedes at least one early
// order's date. The SMA plan grades LINEITEM buckets against the minimax of
// S.B before touching them.
func RunE10(base Config) (E10Result, error) {
	base = base.withDefaults()
	cfg := base
	cfg.Order = tpcd.OrderSorted
	e, err := NewEnv(cfg)
	if err != nil {
		return E10Result{}, err
	}
	defer e.Close()
	r := E10Result{SF: base.SF}

	// S: orders from the first 9 months of 1992 (a narrow dimension-side
	// subset, as semi-join reducers typically are).
	sDM, err := storage.OpenDiskManager(e.dir + "/orders_subset.tbl")
	if err != nil {
		return r, err
	}
	defer sDM.Close()
	sPool := storage.NewBufferPool(sDM, 256)
	sHeap, err := storage.NewHeapFile(sPool, tpcd.OrdersSchema(), 1)
	if err != nil {
		return r, err
	}
	cut := tuple.MustParseDate("1992-09-30")
	ot := tuple.NewTuple(tpcd.OrdersSchema())
	for _, o := range tpcd.GenOrders(tpcd.Config{ScaleFactor: base.SF, Seed: base.Seed}) {
		if o.OrderDate <= cut {
			o.FillTuple(ot)
			if _, err := sHeap.Append(ot); err != nil {
				return r, err
			}
		}
	}
	jb, err := core.ComputeJoinBounds(sHeap, "O_ORDERDATE")
	if err != nil {
		return r, err
	}

	// Baseline: sequential scan of LINEITEM with the residual predicate
	// (the reduction L_SHIPDATE <= max(S.B) is exact for <=).
	residual := core.SemiJoinPredicate("L_SHIPDATE", pred.Le, jb)
	if err := e.GoCold(); err != nil {
		return r, err
	}
	start := time.Now()
	base1, err := countTuples(exec.NewBatchTableScan(e.LineItem, residual, noPrefetch))
	if err != nil {
		return r, err
	}
	r.ScanTime = time.Since(start)
	r.ScanPages, _ = e.Disk().Stats()

	// SMA plan: grade buckets via SemiJoinGrade, then scan only the rest
	// through SMA_Scan with those grades.
	if err := e.GoCold(); err != nil {
		return r, err
	}
	g := e.Grader()
	nb := e.LineItem.NumBuckets()
	r.BucketsTotal = nb
	start = time.Now()
	grades := make([]core.Grade, nb)
	for b := range grades {
		if grades[b] = core.SemiJoinGrade(g, b, "L_SHIPDATE", pred.Le, jb); grades[b] == core.Disqualifies {
			r.BucketsPruned++
		}
	}
	scan := exec.NewBatchSMAScan(e.LineItem, residual, g, noPrefetch)
	scan.Runs = core.RunsOf(nil, grades)
	got, err := countTuples(scan)
	if err != nil {
		return r, err
	}
	r.SMATime = time.Since(start)
	r.SMAPagesRead, _ = e.Disk().Stats()
	r.SelectedRows = got
	if got != base1 {
		return r, fmt.Errorf("E10: SMA semi-join selected %d rows, baseline %d", got, base1)
	}
	return r, nil
}

// Render prints the reduction.
func (r E10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E10 — semi-join SMAs (§4): LINEITEM ⋉ (early ORDERS) on L_SHIPDATE <= O_ORDERDATE, SF %.3g\n", r.SF)
	fmt.Fprintf(&b, "  selected rows: %d\n", r.SelectedRows)
	fmt.Fprintf(&b, "  buckets pruned by minimax(S.B): %d / %d (%.1f%%)\n",
		r.BucketsPruned, r.BucketsTotal, 100*float64(r.BucketsPruned)/float64(max(r.BucketsTotal, 1)))
	fmt.Fprintf(&b, "  pages read: scan %d vs SMA %d;  time: scan %s vs SMA %s\n",
		r.ScanPages, r.SMAPagesRead,
		r.ScanTime.Round(time.Millisecond), r.SMATime.Round(time.Millisecond))
	return b.String()
}
