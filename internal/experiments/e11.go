package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sma/internal/btree"
	"sma/internal/exec"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// E11Row is one (ordering, selectivity) measurement of the three access
// paths for "select count(*) where L_SHIPDATE <= c".
type E11Row struct {
	Order       tpcd.Order
	Selectivity float64 // realized fraction of qualifying tuples

	IndexTime  time.Duration
	ScanTime   time.Duration
	SMATime    time.Duration
	IndexPages int64 // heap pages fetched through the index + index pages
	ScanPages  int64
	SMAPages   int64
}

// E11Result is the access-path comparison behind the paper's introduction:
// "A typical situation is, when e.g. more than one tenth of a relation
// qualifies for a selection predicate. Then the only effect of using an
// index is to turn sequential I/O into random I/O."
type E11Result struct {
	SF   float64
	Rows []E11Row
}

// RunE11 measures a non-clustered B+-tree plan (range scan + RID fetches in
// key order), a sequential scan, and an SMA scan at several selectivities,
// on uniform (spec) and diagonally clustered data.
func RunE11(base Config, selectivities []float64) (E11Result, error) {
	base = base.withDefaults()
	r := E11Result{SF: base.SF}
	for _, order := range []tpcd.Order{tpcd.OrderSpec, tpcd.OrderDiagonal} {
		cfg := base
		cfg.Order = order
		e, err := NewEnv(cfg)
		if err != nil {
			return r, err
		}
		tree, err := btree.BuildFromHeap(e.LineItem, "L_SHIPDATE", 0.67)
		if err != nil {
			e.Close()
			return r, err
		}
		// Collect shipdates once to turn selectivities into cutoffs.
		var dates []int32
		idx := e.LineItem.Schema().ColumnIndex("L_SHIPDATE")
		if err := e.LineItem.Scan(func(t tuple.Tuple, _ storage.RID) error {
			dates = append(dates, t.Int32(idx))
			return nil
		}); err != nil {
			e.Close()
			return r, err
		}
		sort.Slice(dates, func(i, j int) bool { return dates[i] < dates[j] })
		for _, sel := range selectivities {
			pos := int(sel * float64(len(dates)-1))
			cutoff := dates[pos]
			row, err := measureE11(e, tree, cutoff, order)
			if err != nil {
				e.Close()
				return r, err
			}
			row.Selectivity = sel
			r.Rows = append(r.Rows, row)
		}
		e.Close()
	}
	return r, nil
}

// measureE11 runs the three plans cold for one cutoff.
func measureE11(e *Env, tree *btree.Tree, cutoff int32, order tpcd.Order) (E11Row, error) {
	row := E11Row{Order: order}
	p := func() *pred.Atom { return pred.NewAtom("L_SHIPDATE", pred.Le, float64(cutoff)) }

	// Non-clustered index plan: key-ordered RID list, then point fetches.
	if err := e.GoCold(); err != nil {
		return row, err
	}
	start := time.Now()
	rids, indexPages := tree.RangeScan(float64(tpcd.StartDate), float64(cutoff))
	// The index itself is read at sequential cost (leaf chaining).
	if e.Cfg.ReadLatency > 0 {
		storage.SimulateLatency(time.Duration(indexPages) * e.Cfg.ReadLatency)
	}
	count := 0
	for _, rid := range rids {
		if _, err := e.LineItem.Get(rid); err != nil {
			return row, err
		}
		count++
	}
	row.IndexTime = time.Since(start)
	heapReads, _ := e.Disk().Stats()
	row.IndexPages = heapReads + int64(indexPages)

	// Sequential scan.
	if err := e.GoCold(); err != nil {
		return row, err
	}
	start = time.Now()
	scanCount, err := countTuples(exec.NewBatchTableScan(e.LineItem, p(), noPrefetch))
	if err != nil {
		return row, err
	}
	row.ScanTime = time.Since(start)
	row.ScanPages, _ = e.Disk().Stats()

	// SMA scan.
	if err := e.GoCold(); err != nil {
		return row, err
	}
	start = time.Now()
	smaCount, err := countTuples(exec.NewBatchSMAScan(e.LineItem, p(), e.Grader(), noPrefetch))
	if err != nil {
		return row, err
	}
	row.SMATime = time.Since(start)
	row.SMAPages, _ = e.Disk().Stats()

	if count != scanCount || smaCount != scanCount {
		return row, fmt.Errorf("E11: plans disagree: index %d, scan %d, sma %d", count, scanCount, smaCount)
	}
	return row, nil
}

// countTuples drains a scan, counting the selected tuples.
func countTuples(it exec.BatchIter) (int, error) {
	if err := it.Open(); err != nil {
		return 0, err
	}
	defer it.Close()
	n := 0
	for {
		b, err := it.NextBatch()
		if err != nil || b == nil {
			return n, err
		}
		n += len(b.Sel)
	}
}

// Render prints the comparison grid.
func (r E11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E11 — access paths vs selectivity (intro's motivation), SF %.3g\n", r.SF)
	fmt.Fprintf(&b, "  %-10s %6s %12s %12s %12s %10s %10s %10s\n",
		"order", "sel", "index", "scan", "SMA scan", "idx pages", "scan pgs", "sma pgs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %5.0f%% %12s %12s %12s %10d %10d %10d\n",
			row.Order, 100*row.Selectivity,
			row.IndexTime.Round(time.Millisecond),
			row.ScanTime.Round(time.Millisecond),
			row.SMATime.Round(time.Millisecond),
			row.IndexPages, row.ScanPages, row.SMAPages)
	}
	b.WriteString("  (non-clustered index: random I/O per qualifying tuple; SMA scan never loses badly)\n")
	return b.String()
}
