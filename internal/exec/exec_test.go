package exec_test

import (
	"testing"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// q1Specs returns the aggregate list of TPC-D Query 1.
func q1Specs() []exec.AggSpec {
	qty := expr.NewCol("L_QUANTITY")
	ext := expr.NewCol("L_EXTENDEDPRICE")
	disc := expr.NewCol("L_DISCOUNT")
	discPrice := expr.Mul(expr.NewCol("L_EXTENDEDPRICE"), expr.Sub(expr.NewConst(1), expr.NewCol("L_DISCOUNT")))
	charge := expr.Mul(
		expr.Mul(expr.NewCol("L_EXTENDEDPRICE"), expr.Sub(expr.NewConst(1), expr.NewCol("L_DISCOUNT"))),
		expr.Add(expr.NewConst(1), expr.NewCol("L_TAX")))
	return []exec.AggSpec{
		{Func: exec.AggSum, Arg: qty, Name: "SUM_QTY"},
		{Func: exec.AggSum, Arg: ext, Name: "SUM_BASE_PRICE"},
		{Func: exec.AggSum, Arg: discPrice, Name: "SUM_DISC_PRICE"},
		{Func: exec.AggSum, Arg: charge, Name: "SUM_CHARGE"},
		{Func: exec.AggAvg, Arg: expr.NewCol("L_QUANTITY"), Name: "AVG_QTY"},
		{Func: exec.AggAvg, Arg: expr.NewCol("L_EXTENDEDPRICE"), Name: "AVG_PRICE"},
		{Func: exec.AggAvg, Arg: disc, Name: "AVG_DISC"},
		{Func: exec.AggCount, Name: "COUNT_ORDER"},
	}
}

// q1SMADefs returns the paper's eight SMA definitions (Fig. 4).
func q1SMADefs() []core.Def {
	gb := []string{"L_RETURNFLAG", "L_LINESTATUS"}
	discPrice := expr.Mul(expr.NewCol("L_EXTENDEDPRICE"), expr.Sub(expr.NewConst(1), expr.NewCol("L_DISCOUNT")))
	charge := expr.Mul(
		expr.Mul(expr.NewCol("L_EXTENDEDPRICE"), expr.Sub(expr.NewConst(1), expr.NewCol("L_DISCOUNT"))),
		expr.Add(expr.NewConst(1), expr.NewCol("L_TAX")))
	return []core.Def{
		core.NewDef("max", "LINEITEM", core.Max, expr.NewCol("L_SHIPDATE")),
		core.NewDef("min", "LINEITEM", core.Min, expr.NewCol("L_SHIPDATE")),
		core.NewDef("count", "LINEITEM", core.Count, nil, gb...),
		core.NewDef("qty", "LINEITEM", core.Sum, expr.NewCol("L_QUANTITY"), gb...),
		core.NewDef("dis", "LINEITEM", core.Sum, expr.NewCol("L_DISCOUNT"), gb...),
		core.NewDef("ext", "LINEITEM", core.Sum, expr.NewCol("L_EXTENDEDPRICE"), gb...),
		core.NewDef("extdis", "LINEITEM", core.Sum, discPrice, gb...),
		core.NewDef("extdistax", "LINEITEM", core.Sum, charge, gb...),
	}
}

// loadLineItems creates a small LINEITEM heap.
func loadLineItems(t testing.TB, cfg tpcd.Config, bucketPages int) *storage.HeapFile {
	t.Helper()
	h := testutil.NewHeap(t, tpcd.LineItemSchema(), bucketPages, 4096)
	if _, err := tpcd.LoadLineItem(h, cfg); err != nil {
		t.Fatalf("load lineitem: %v", err)
	}
	return h
}

// buildQ1SMAs bulkloads the eight Query-1 SMAs and returns them by name.
func buildQ1SMAs(t testing.TB, h *storage.HeapFile) map[string]*core.SMA {
	t.Helper()
	out := make(map[string]*core.SMA)
	for _, def := range q1SMADefs() {
		s, err := core.Build(h, def)
		if err != nil {
			t.Fatalf("build %s: %v", def.Name, err)
		}
		out[def.Name] = s
	}
	return out
}

// q1Pred returns WHERE L_SHIPDATE <= cutoff.
func q1Pred(cutoff string) pred.Predicate {
	return pred.NewAtom("L_SHIPDATE", pred.Le, float64(tuple.MustParseDate(cutoff)))
}

// scanAgg is "Query 1 without SMAs": hash aggregation above a table scan.
func scanAgg(h *storage.HeapFile, p pred.Predicate, specs []exec.AggSpec, groupBy []string) *exec.BatchGAggr {
	return exec.NewBatchGAggr(exec.NewBatchTableScan(h, p, exec.ExecOptions{}), h.Schema(), specs, groupBy)
}

// runQ1SMA evaluates Query 1 with SMA_GAggr over the eight SMAs.
func runQ1SMA(t testing.TB, h *storage.HeapFile, smas map[string]*core.SMA, p pred.Predicate) ([]exec.Row, exec.ScanStats) {
	t.Helper()
	grader := core.NewGrader(smas["min"], smas["max"])
	aggSMAs := []*core.SMA{
		smas["qty"], smas["ext"], smas["extdis"], smas["extdistax"],
		smas["qty"], smas["ext"], smas["dis"], smas["count"],
	}
	agg := exec.NewSMAGAggr(h, p, q1Specs(), []string{"L_RETURNFLAG", "L_LINESTATUS"},
		grader, aggSMAs, smas["count"])
	rows, err := exec.CollectRows(agg)
	if err != nil {
		t.Fatalf("SMA Q1: %v", err)
	}
	return rows, agg.Stats()
}

func rowsEqual(t *testing.T, got, want []exec.Row) {
	t.Helper()
	if !sameRows(t, got, want, 1e-6) {
		t.Fatal("rows differ from the reference")
	}
}

// TestQuery1SMAEqualsBaseline is the central correctness test: the
// SMA-based plan and the scan plan must both produce exactly the aggregates
// of the reference fold, for several physical orderings and cutoffs.
func TestQuery1SMAEqualsBaseline(t *testing.T) {
	for _, order := range []tpcd.Order{tpcd.OrderSorted, tpcd.OrderSpec, tpcd.OrderDiagonal, tpcd.OrderShuffled} {
		for _, cutoff := range []string{"1998-09-02", "1995-06-17", "1992-02-01"} {
			h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.002, Seed: 42, Order: order}, 1)
			smas := buildQ1SMAs(t, h)
			p := q1Pred(cutoff)
			want := refRows(t, h, p, q1Specs(), []string{"L_RETURNFLAG", "L_LINESTATUS"})
			got, _ := runQ1SMA(t, h, smas, p)
			scanned, err := exec.CollectRows(scanAgg(h, p, q1Specs(), []string{"L_RETURNFLAG", "L_LINESTATUS"}))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(order.String()+"/"+cutoff, func(t *testing.T) {
				rowsEqual(t, got, want)
				rowsEqual(t, scanned, want)
			})
		}
	}
}

// TestQuery1SortedSkipsPages: on shipdate-sorted data with a selective
// cutoff, almost every bucket is decided by the SMAs and at most one page
// is read.
func TestQuery1SortedSkipsPages(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.002, Seed: 7, Order: tpcd.OrderSorted}, 1)
	smas := buildQ1SMAs(t, h)
	_, stats := runQ1SMA(t, h, smas, q1Pred("1995-06-17"))
	if stats.Ambivalent > 1 {
		t.Errorf("sorted data: %d ambivalent buckets, want <= 1", stats.Ambivalent)
	}
	if stats.PagesRead > 1 {
		t.Errorf("sorted data: %d pages read, want <= 1", stats.PagesRead)
	}
	if stats.Qualifying == 0 || stats.Disqualifying == 0 {
		t.Errorf("expected both qualifying and disqualifying buckets, got %+v", stats)
	}
}

// TestSMAScanEqualsTableScan: SMA_Scan returns exactly the tuples of the
// reference filter, in the same physical order.
func TestSMAScanEqualsTableScan(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.001, Seed: 3, Order: tpcd.OrderDiagonal}, 1)
	smas := buildQ1SMAs(t, h)
	p := q1Pred("1995-01-01")

	want := refTuples(t, h, p)
	scan := exec.NewBatchSMAScan(h, p, core.NewGrader(smas["min"], smas["max"]), exec.ExecOptions{})
	got := collectBatched(t, scan)
	if !tuplesEqual(got, want) {
		t.Fatalf("SMA scan returned %d tuples, reference filter %d", len(got), len(want))
	}
	st := scan.Stats()
	if st.Disqualifying == 0 {
		t.Errorf("expected some disqualified buckets on diagonal data, got %+v", st)
	}
}

// TestSMAScanGradesInOpenThenPrefetches: an SMA_Scan given a predicate, no
// pre-computed Grades and a prefetch window grades in Open, so its
// prefetcher reads ahead over the surviving buckets only — same tuples and
// grade counts as the synchronous scan, no page of a disqualified bucket
// touched.
func TestSMAScanGradesInOpenThenPrefetches(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.001, Seed: 3, Order: tpcd.OrderDiagonal}, 1)
	smas := buildQ1SMAs(t, h)
	grader := core.NewGrader(smas["min"], smas["max"])
	p := q1Pred("1995-01-01")

	plain := exec.NewBatchSMAScan(h, p, grader, exec.ExecOptions{PrefetchWindow: -1})
	want := collectBatched(t, plain)
	if err := h.Pool().DropAll(); err != nil { // cold pool: every page is a physical read
		t.Fatal(err)
	}
	// A page read that takes a millisecond lets the readahead get in front
	// of the cursor; from the OS cache the scan would outrun it.
	h.Pool().Disk().SetReadLatency(time.Millisecond)
	scan := exec.NewBatchSMAScan(h, p, grader, exec.ExecOptions{PrefetchWindow: 4})
	got := collectBatched(t, scan)
	if !tuplesEqual(got, want) {
		t.Fatalf("prefetching scan returned %d tuples, synchronous scan %d", len(got), len(want))
	}
	st, ref := scan.Stats(), plain.Stats()
	if st.PagesPrefetched == 0 {
		t.Errorf("no page prefetched on a cold pool: %+v", st)
	}
	if st.Disqualifying == 0 || st.PagesPrefetched > st.PagesRead {
		t.Errorf("prefetched %d pages for %d surviving ones (%d buckets disqualified)",
			st.PagesPrefetched, st.PagesRead, st.Disqualifying)
	}
	st.PagesPrefetched, st.PrefetchHits = 0, 0
	if st != ref {
		t.Errorf("stats with prefetch %+v, without %+v", st, ref)
	}
}

// TestSMAScanNoPredicate: without a predicate every bucket qualifies.
func TestSMAScanNoPredicate(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0005, Seed: 3}, 1)
	n, err := h.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	got := collectBatched(t, exec.NewBatchSMAScan(h, nil, core.NewGrader(), exec.ExecOptions{}))
	if int64(len(got)) != n {
		t.Fatalf("scan returned %d tuples, want %d", len(got), n)
	}
}

// TestGAggrGlobalAggregate: aggregation without GROUP BY yields one row.
func TestGAggrGlobalAggregate(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0005, Seed: 11}, 1)
	specs := []exec.AggSpec{
		{Func: exec.AggCount, Name: "N"},
		{Func: exec.AggMin, Arg: expr.NewCol("L_QUANTITY"), Name: "MINQ"},
		{Func: exec.AggMax, Arg: expr.NewCol("L_QUANTITY"), Name: "MAXQ"},
		{Func: exec.AggAvg, Arg: expr.NewCol("L_QUANTITY"), Name: "AVGQ"},
	}
	rows, err := exec.CollectRows(scanAgg(h, nil, specs, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	n, _ := h.NumRecords()
	if rows[0].Aggs[0] != float64(n) {
		t.Errorf("count = %v, want %d", rows[0].Aggs[0], n)
	}
	if rows[0].Aggs[1] < 1 || rows[0].Aggs[2] > 50 {
		t.Errorf("min/max quantity out of domain: %v", rows[0].Aggs)
	}
	if rows[0].Aggs[3] < rows[0].Aggs[1] || rows[0].Aggs[3] > rows[0].Aggs[2] {
		t.Errorf("avg %v outside [min,max]", rows[0].Aggs[3])
	}
}

// TestSMAGAggrFinerGroupingRollup: an SMA grouped by (RETURNFLAG,
// LINESTATUS) answers a query grouping only by RETURNFLAG.
func TestSMAGAggrFinerGroupingRollup(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.001, Seed: 5, Order: tpcd.OrderSorted}, 1)
	smas := buildQ1SMAs(t, h)
	p := q1Pred("1996-01-01")
	specs := []exec.AggSpec{
		{Func: exec.AggSum, Arg: expr.NewCol("L_QUANTITY"), Name: "SUM_QTY"},
		{Func: exec.AggCount, Name: "N"},
	}
	grader := core.NewGrader(smas["min"], smas["max"])
	agg := exec.NewSMAGAggr(h, p, specs, []string{"L_RETURNFLAG"},
		grader, []*core.SMA{smas["qty"], smas["count"]}, smas["count"])
	got, err := exec.CollectRows(agg)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, got, refRows(t, h, p, specs, []string{"L_RETURNFLAG"}))
}

// TestSMAGAggrIncompatibleGrouping: an SMA grouped coarser than the query
// must be rejected.
func TestSMAGAggrIncompatibleGrouping(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0005, Seed: 5}, 1)
	qty, err := core.Build(h, core.NewDef("qty_rf", "LINEITEM", core.Sum, expr.NewCol("L_QUANTITY"), "L_RETURNFLAG"))
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := core.Build(h, core.NewDef("cnt_rf", "LINEITEM", core.Count, nil, "L_RETURNFLAG"))
	if err != nil {
		t.Fatal(err)
	}
	agg := exec.NewSMAGAggr(h, nil,
		[]exec.AggSpec{{Func: exec.AggSum, Arg: expr.NewCol("L_QUANTITY"), Name: "S"}},
		[]string{"L_RETURNFLAG", "L_LINESTATUS"},
		core.NewGrader(), []*core.SMA{qty}, cnt)
	if err := agg.Open(); err == nil {
		t.Fatal("expected grouping-compatibility error, got nil")
	}
}
