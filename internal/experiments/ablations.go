package experiments

import (
	"fmt"
	"strings"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
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

// --- E9: the level-2 summary (§4) -------------------------------------------

// E9Result is the hierarchical-SMA ablation: how many presence words the
// level-2 summary decides for Query 1's shipdate atom, and so how many
// level-1 entries the grader still reads.
type E9Result struct {
	SF           float64
	Words        int // full 64-bucket presence words
	WordsDecided int // full words graded by their level-2 entry alone
	L1Read       int // level-1 entries read: every bucket outside a decided word
	L1Total      int // level-1 entries a flat pass reads: every bucket
}

// SavedPct is the share of level-1 entries the decided words spare.
func (r E9Result) SavedPct() float64 {
	return 100 * (1 - float64(r.L1Read)/float64(max(r.L1Total, 1)))
}

// RunE9 grades Query 1's shipdate atom over e's buckets (the paper's
// setting is diagonally clustered data) with Grader.GradeAll and counts the
// full presence words that lie inside one qualifying or disqualifying run.
//
// The count is what level 2 decided: GradeAll grades a full word by its
// level-2 bounds before it reads level 1, and every bucket's [min, max]
// lies inside its word's bounds. Under a monotone comparison such as the
// atom's <=, a word whose buckets all grade the same is therefore graded
// that way by its bounds too, and a word its bounds decide is one run.
func RunE9(e *Env, deltaDays int) E9Result {
	const wordLen = 64 // buckets per presence word, each one level-2 entry
	g := e.Grader()
	nb := e.LineItem.NumBuckets()
	r := E9Result{SF: e.Cfg.SF, Words: nb / wordLen, L1Total: nb}
	for _, run := range g.GradeAll(Q1Pred(deltaDays)) {
		if run.Grade == core.Ambivalent {
			continue
		}
		first := (int(run.Lo) + wordLen - 1) / wordLen
		last := min(int(run.Hi)/wordLen, r.Words)
		r.WordsDecided += max(0, last-first)
	}
	r.L1Read = nb - wordLen*r.WordsDecided
	return r
}

// Render prints the ablation.
func (r E9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E9 — hierarchical SMAs (§4): the level-2 summary on Query 1's shipdate atom, SF %.3g\n", r.SF)
	fmt.Fprintf(&b, "  presence words decided at level 2: %d / %d\n", r.WordsDecided, r.Words)
	fmt.Fprintf(&b, "  level-1 entries read: %d / %d (%.1f%% saved)\n", r.L1Read, r.L1Total, r.SavedPct())
	return b.String()
}

// --- E10: semi-join SMAs (§4) --------------------------------------------------

// e10Cut ends S: the orders placed up to it.
var e10Cut = tuple.MustParseDate("1992-09-30")

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
// order's date. For θ = <= a row has a partner exactly when R.A <= max(S.B),
// so the semi-join reduces to an ordinary atom: the SMA plan grades it over
// LINEITEM's buckets before touching them, as a query's plan does.
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
	ot := tuple.NewTuple(tpcd.OrdersSchema())
	for _, o := range tpcd.GenOrders(tpcd.Config{ScaleFactor: base.SF, Seed: base.Seed}) {
		if o.OrderDate <= e10Cut {
			o.FillTuple(ot)
			if _, err := sHeap.Append(ot); err != nil {
				return r, err
			}
		}
	}
	// max(S.B) and |S| from one batch aggregate over S.
	sAgg, err := exec.CollectRows(exec.NewBatchGAggr(exec.NewBatchTableScan(sHeap, nil, noPrefetch),
		sHeap.Schema(), []exec.AggSpec{
			{Func: exec.AggMax, Arg: expr.NewCol("O_ORDERDATE"), Name: "MX"},
			{Func: exec.AggCount, Name: "N"},
		}, nil))
	if err != nil {
		return r, err
	}
	if len(sAgg) != 1 || sAgg[0].Aggs[1] == 0 {
		return r, fmt.Errorf("E10: S is empty")
	}
	reduced := pred.NewAtom("L_SHIPDATE", pred.Le, sAgg[0].Aggs[0])

	// Baseline: sequential scan of LINEITEM with the reduced predicate.
	if err := e.GoCold(); err != nil {
		return r, err
	}
	start := time.Now()
	base1, err := countTuples(exec.NewBatchTableScan(e.LineItem, reduced, noPrefetch))
	if err != nil {
		return r, err
	}
	r.ScanTime = time.Since(start)
	r.ScanPages, _ = e.Disk().Stats()

	// SMA plan: grade the reduced atom into runs, then scan only the
	// undisqualified ones through SMA_Scan.
	if err := e.GoCold(); err != nil {
		return r, err
	}
	g := e.Grader()
	r.BucketsTotal = e.LineItem.NumBuckets()
	start = time.Now()
	scan := exec.NewBatchSMAScan(e.LineItem, reduced, g, noPrefetch)
	scan.Runs = g.RunsFor(reduced, r.BucketsTotal)
	r.BucketsPruned = core.CountGrades(scan.Runs).Disqualifying
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
	fmt.Fprintf(&b, "  buckets pruned by L_SHIPDATE <= max(S.B): %d / %d (%.1f%%)\n",
		r.BucketsPruned, r.BucketsTotal, 100*float64(r.BucketsPruned)/float64(max(r.BucketsTotal, 1)))
	fmt.Fprintf(&b, "  pages read: scan %d vs SMA %d;  time: scan %s vs SMA %s\n",
		r.ScanPages, r.SMAPagesRead,
		r.ScanTime.Round(time.Millisecond), r.SMATime.Round(time.Millisecond))
	return b.String()
}
