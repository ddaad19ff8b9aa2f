// Package planner generates physical plans for parsed queries, the problem
// the paper devotes §3 to: "query processing — especially the generation of
// query execution plans — becomes a little more complex".
//
// For a query with a selection and grouped aggregates the planner
//
//  1. collects the table's SMAs and builds a Grader from the min/max and
//     count-group-by SMAs applicable to the WHERE clause,
//  2. tries to cover every select-list aggregate with an aggregate SMA of
//     compatible (equal or finer) grouping,
//  3. grades all buckets to estimate the ambivalent fraction, and
//  4. applies a page-cost model with the paper's Fig.-5 breakeven: if
//     reading the SMA-files plus the ambivalent buckets (at random-I/O
//     cost) exceeds a sequential scan, it falls back to the scan.
//
// A plan executes through one pipeline. Operators exchange tuple batches;
// Plan.RowIterator builds every aggregation shape through
// parallel.Source.Pipeline — inline over the whole relation when serial,
// once per partition under parallel.Agg — and Plan.TupleIterator builds
// every projection shape as a one-page-batch scan under exec.BatchToTuples,
// the only place tuples appear. An aggregation plan over a heap is bound
// when it is made (exec.AggBinding): the checks of its aggregates and
// SMAs, its SMA-files resolved to their groups and its compiled fold and
// selection programs are made once, and every pipeline built from the plan
// or a copy of it shares them.
package planner

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/parallel"
	"sma/internal/parser"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// CostModel weights page accesses. The defaults make one random bucket
// fetch cost four sequential page reads, which places the breakeven where
// the paper's Figure 5 has it (≈25% ambivalent buckets).
type CostModel struct {
	SeqPageCost  float64
	RandPageCost float64
}

// DefaultCostModel returns the standard weights.
func DefaultCostModel() CostModel {
	return CostModel{SeqPageCost: 1, RandPageCost: 4}
}

// Strategy identifies the chosen physical plan shape.
type Strategy uint8

// Plan strategies.
const (
	// StrategyFullScan is a filtering table scan + GAggr, the paper's
	// "Query 1 without SMAs" baseline.
	StrategyFullScan Strategy = iota
	// StrategySMAGAggr answers the aggregation from aggregate SMAs for
	// qualifying buckets (Fig. 7).
	StrategySMAGAggr
	// StrategySMAScan uses SMAs only to skip disqualified buckets, with a
	// hash aggregation on top (Fig. 6 + GAggr).
	StrategySMAScan
	// StrategyMemScan scans an in-memory snapshot relation — the virtual
	// system tables of the introspection catalog. No pages, no SMAs.
	StrategyMemScan
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyFullScan:
		return "FullScan+GAggr"
	case StrategySMAGAggr:
		return "SMA_GAggr"
	case StrategySMAScan:
		return "SMA_Scan+GAggr"
	case StrategyMemScan:
		return "MemScan"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Plan is an executable physical plan. A Plan copied by value shares what
// its planning fixed — the grades, the aggregate specs and their binding —
// and each copy records the pipeline built from it on its own.
type Plan struct {
	Query    *parser.Query
	Strategy Strategy

	Heap   *storage.HeapFile
	Grader *core.Grader

	// Mem, when set, is the in-memory relation the plan scans instead of
	// Heap (StrategyMemScan: virtual system tables). Heap is nil then.
	Mem *exec.MemRelation

	// SMA_GAggr inputs (StrategySMAGAggr only).
	AggSMAs  []*core.SMA
	CountSMA *core.SMA

	// SelSMAs are the selection SMAs planning consulted for the WHERE
	// clause (the ones whose pages SMAPages counts); the stats layer
	// attributes per-SMA effectiveness from this list.
	SelSMAs []*core.SMA

	// DOP is the degree of intra-query parallelism the plan executes with
	// (1 = serial). Aggregation plans with DOP > 1 run through the
	// internal/parallel subsystem: one worker pipeline per bucket (or
	// page-range) partition, merged into one sorted result.
	DOP int

	// Exec sizes the read path: the tuples-per-batch target and the
	// asynchronous page-prefetch window. Copied from the planner at plan
	// time.
	Exec exec.ExecOptions

	// Planning diagnostics. GradeTime is the wall time of the grading pass
	// that produced Grades (0 when planning graded nothing).
	Grades    core.GradeCounts
	GradeTime time.Duration
	CostSMA   float64
	CostScan  float64
	SMAPages  int64 // pages of SMA-files the plan reads
	Reason    string

	// statsSrc and workSrc are the operators of the most recently built
	// iterator pipeline for this plan that count its grades and pages and
	// that measure its time (see ScanStats and Work).
	statsSrc exec.StatsReporter
	workSrc  interface{ Work() exec.Work }
	// runs is the grading pass computed for the cost estimate, one run list
	// over the heap's buckets; the scan operators and the parallel
	// executor reuse it instead of grading again.
	runs []core.Run
	// specs are the query's aggregates in select-list order; bound is
	// their binding to the heap and the chosen SMAs, made with the plan —
	// nil over a memory relation, or when binding failed: the pipeline's
	// operators then bind in their Open and report the error there.
	specs []exec.AggSpec
	bound *exec.AggBinding
}

// StrategyName renders the strategy for display. Projection plans carry
// no aggregation operator, so the "+GAggr" suffix is dropped for them.
func (p *Plan) StrategyName() string {
	if p.Strategy == StrategyMemScan {
		return p.Strategy.String()
	}
	if !p.IsProjection() {
		return p.Strategy.String()
	}
	if p.Strategy == StrategySMAScan {
		return "SMA_Scan"
	}
	return "FullScan"
}

// Explain renders a one-line plan description plus cost details.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s", p.StrategyName(), p.Query.Table)
	if p.Query.Where != nil {
		fmt.Fprintf(&b, " where %s", p.Query.Where)
	}
	fmt.Fprintf(&b, "\n  buckets: %d qualify / %d disqualify / %d ambivalent (%.1f%%)",
		p.Grades.Qualifying, p.Grades.Disqualifying, p.Grades.Ambivalent,
		100*p.Grades.AmbivalentFrac())
	fmt.Fprintf(&b, "\n  cost: sma=%.0f scan=%.0f (sma pages %d)", p.CostSMA, p.CostScan, p.SMAPages)
	if p.DOP > 1 {
		fmt.Fprintf(&b, "\n  parallel: dop=%d", p.DOP)
	}
	fmt.Fprintf(&b, "\n  %s", p.Reason)
	return b.String()
}

// Planner plans queries against a table and its SMAs.
type Planner struct {
	Cost CostModel
	// DOP is the default degree of intra-query parallelism requested for
	// aggregation plans; values <= 1 plan serial execution. The effective
	// per-plan degree is capped by the work available (see ChooseDOP).
	DOP int
	// Exec is stamped onto every plan: batch size, prefetch window.
	Exec exec.ExecOptions
}

// New creates a planner with the default cost model.
func New() *Planner { return &Planner{Cost: DefaultCostModel()} }

// ChooseDOP caps a requested degree of parallelism by the work the plan
// actually dispatches — surviving (non-disqualified) buckets for the SMA
// strategies, pages for a full scan — and by the buffer pool's capacity
// (each scan worker pins one page at a time; more workers than frames
// would exhaust the pool instead of helping). Projections always run
// serially: they stream tuples in physical order, which a merge stage
// would only re-serialize. The result is at least 1.
func (pl *Planner) ChooseDOP(p *Plan, requested int) int {
	if requested <= 1 || p.Mem != nil || p.IsProjection() {
		return 1
	}
	units := 0
	switch p.Strategy {
	case StrategyFullScan:
		units = int(p.Heap.NumPages())
	default:
		units = p.Grades.Qualifying + p.Grades.Ambivalent
	}
	if units < 2 {
		return 1
	}
	if requested > units {
		requested = units
	}
	if cap := p.Heap.Pool().Capacity(); requested > cap {
		requested = cap
	}
	return requested
}

// matchAggSMA finds an SMA that supplies spec's per-bucket values with a
// grouping equal to or finer than groupBy.
func matchAggSMA(smas []*core.SMA, spec exec.AggSpec, groupBy []string) *core.SMA {
	want := spec.Func.NeededSMAKind()
	for _, s := range smas {
		if s.Def.Agg != want {
			continue
		}
		if spec.Arg == nil {
			if s.Def.Expr != nil {
				continue
			}
		} else if s.Def.Expr == nil || !expr.Equal(spec.Arg, s.Def.Expr) {
			continue
		}
		if groupingCovers(s.Def.GroupBy, groupBy) {
			return s
		}
	}
	return nil
}

// groupingCovers reports whether the SMA grouping (superset semantics) can
// be rolled up to the query grouping.
func groupingCovers(smaGroupBy, queryGroupBy []string) bool {
	for _, q := range queryGroupBy {
		found := false
		for _, g := range smaGroupBy {
			if strings.EqualFold(q, g) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// selectionSMAs returns the SMAs a grader would consult for the
// predicate's columns: min/max SMAs on a filtered column and count SMAs
// grouped by one.
func selectionSMAs(smas []*core.SMA, p pred.Predicate) []*core.SMA {
	if p == nil {
		return nil
	}
	cols := map[string]bool{}
	for _, a := range pred.Atoms(p) {
		cols[a.Col] = true
		if a.RightCol != "" {
			cols[a.RightCol] = true
		}
	}
	var out []*core.SMA
	for _, s := range smas {
		use := false
		switch s.Def.Agg {
		case core.Min, core.Max:
			use = cols[s.Def.ColumnOf()]
		case core.Count:
			use = len(s.Def.GroupBy) == 1 && cols[strings.ToUpper(s.Def.GroupBy[0])]
		}
		if use {
			out = append(out, s)
		}
	}
	return out
}

// selectionSMAPages sums the pages of the SMA-files the consulted SMAs
// would be read from.
func selectionSMAPages(sel []*core.SMA) int64 {
	var total int64
	for _, s := range sel {
		total += s.PagesUsed()
	}
	return total
}

// PlanQuery builds the cheapest plan for q over heap with the given SMAs,
// binds an aggregation plan's pipeline (see Plan.RowIterator), and picks
// its degree of parallelism from the planner's configured DOP.
func (pl *Planner) PlanQuery(q *parser.Query, heap *storage.HeapFile, smas []*core.SMA) (*Plan, error) {
	plan, err := pl.planQuery(q, heap, smas)
	if err != nil {
		return nil, err
	}
	if !plan.IsProjection() {
		plan.bind()
	}
	plan.DOP = pl.ChooseDOP(plan, pl.DOP)
	plan.Exec = pl.Exec
	return plan, nil
}

// bind makes the binding every pipeline of an aggregation plan shares:
// BindSMAGAggr over the chosen SMAs for SMA_GAggr, BindGAggr over the
// heap's schema for the scan strategies — the functions the operators run
// in Open when they have none. A binding that fails is not kept, so the
// error comes from the pipeline's Open, as it does without a binding.
func (p *Plan) bind() {
	var b *exec.AggBinding
	var err error
	if p.Strategy == StrategySMAGAggr {
		b, err = exec.BindSMAGAggr(p.Heap, p.Query.Where, p.specs, p.Query.GroupBy, p.AggSMAs, p.CountSMA)
	} else {
		b, err = exec.BindGAggr(p.Heap.Schema(), p.Query.Where, p.specs, p.Query.GroupBy)
	}
	if err == nil {
		p.bound = b
	}
}

// PlanMem plans a query over an in-memory relation — the virtual system
// tables. There are no pages, buckets, or SMAs to weigh, so the only
// strategy is a snapshot scan; projections, aggregation, HAVING, ORDER BY
// and LIMIT all compose on top exactly as they do over a heap.
func (pl *Planner) PlanMem(q *parser.Query, rel *exec.MemRelation) (*Plan, error) {
	schema := rel.Schema
	if q.IsProjection() {
		cols := q.ProjColumns(schema)
		if len(cols) == 0 {
			return nil, fmt.Errorf("planner: query must project, aggregate or group")
		}
		for _, c := range cols {
			if !schema.HasColumn(c) {
				return nil, fmt.Errorf("planner: unknown column %q in select list", c)
			}
		}
		for _, c := range q.OrderBy {
			if !schema.HasColumn(c) {
				return nil, fmt.Errorf("planner: unknown column %q in ORDER BY", c)
			}
		}
	} else {
		for _, g := range q.GroupBy {
			if !schema.HasColumn(g) {
				return nil, fmt.Errorf("planner: unknown column %q in GROUP BY", g)
			}
		}
	}
	return &Plan{
		Query:    q,
		Strategy: StrategyMemScan,
		Mem:      rel,
		DOP:      1,
		Exec:     pl.Exec,
		Reason:   "virtual system table; in-memory snapshot scan",
		specs:    q.AggSpecs(),
	}, nil
}

// grade runs the grading pass — the in-memory sweep over the SMA vectors
// the paper's plan generation hinges on — over the heap's buckets, and
// keeps the runs, their counts and its time on the plan.
func (p *Plan) grade(w pred.Predicate) {
	start := time.Now()
	p.runs = p.Grader.RunsFor(w, p.Heap.NumBuckets())
	p.GradeTime = time.Since(start)
	p.Grades = core.CountGrades(p.runs)
}

// planQuery picks the strategy; PlanQuery adds the degree of parallelism.
func (pl *Planner) planQuery(q *parser.Query, heap *storage.HeapFile, smas []*core.SMA) (*Plan, error) {
	if q.IsProjection() {
		return pl.planProjection(q, heap, smas)
	}
	specs := q.AggSpecs()
	plan := &Plan{Query: q, Heap: heap, specs: specs}
	grader := core.NewGrader(smas...)
	plan.Grader = grader

	totalPages := heap.NumPages()
	plan.CostScan = float64(totalPages) * pl.Cost.SeqPageCost

	hasSelSMA := q.Where == nil || grader.HasSelectionSMA(q.Where)
	if !hasSelSMA {
		// No SMA can grade the predicate: every bucket would be ambivalent,
		// so an SMA plan can only lose. (Aggregate SMAs alone cannot help:
		// the selection forces tuple inspection everywhere.)
		plan.Strategy = StrategyFullScan
		plan.Grades = core.GradeCounts{Ambivalent: heap.NumBuckets()}
		plan.CostSMA = plan.CostScan
		plan.Reason = "no selection SMA matches the predicate; sequential scan"
		return plan, nil
	}

	// Grade all buckets (an in-memory pass over the SMA vectors); the runs
	// are kept for the executors.
	if q.Where != nil {
		plan.grade(q.Where)
	} else {
		plan.Grades = core.GradeCounts{Qualifying: heap.NumBuckets()}
	}

	// Try to cover every aggregate with an SMA.
	aggSMAs := make([]*core.SMA, len(specs))
	covered := len(specs) > 0
	needCount := false
	for i, sp := range specs {
		aggSMAs[i] = matchAggSMA(smas, sp, q.GroupBy)
		if aggSMAs[i] == nil {
			covered = false
			break
		}
		if sp.Func == exec.AggAvg {
			needCount = true
		}
	}
	var countSMA *core.SMA
	if covered && needCount {
		countSMA = matchAggSMA(smas, exec.AggSpec{Func: exec.AggCount}, q.GroupBy)
		if countSMA == nil {
			covered = false
		}
	}

	bucketPages := float64(heap.BucketPages)
	plan.SelSMAs = selectionSMAs(smas, q.Where)
	plan.SMAPages = selectionSMAPages(plan.SelSMAs)
	ambCost := float64(plan.Grades.Ambivalent) * bucketPages * pl.Cost.RandPageCost

	if covered {
		// SMA_GAggr reads the aggregate SMA files too.
		smaPages := plan.SMAPages
		seen := map[*core.SMA]bool{}
		for _, s := range aggSMAs {
			if !seen[s] {
				smaPages += s.PagesUsed()
				seen[s] = true
			}
		}
		if countSMA != nil && !seen[countSMA] {
			smaPages += countSMA.PagesUsed()
		}
		plan.CostSMA = float64(smaPages)*pl.Cost.SeqPageCost + ambCost
		if plan.CostSMA <= plan.CostScan {
			plan.Strategy = StrategySMAGAggr
			plan.AggSMAs = aggSMAs
			plan.CountSMA = countSMA
			plan.SMAPages = smaPages
			plan.Reason = "all aggregates covered by SMAs; qualifying buckets answered without page access"
			return plan, nil
		}
		plan.Strategy = StrategyFullScan
		plan.SMAPages = smaPages
		plan.Reason = fmt.Sprintf("ambivalent fraction %.1f%% beyond breakeven; sequential scan is cheaper",
			100*plan.Grades.AmbivalentFrac())
		return plan, nil
	}

	// Aggregates not fully covered: SMA_Scan feeds a hash aggregation;
	// qualifying buckets must be read too (their tuples feed the GAggr).
	qualCost := float64(plan.Grades.Qualifying) * bucketPages * pl.Cost.RandPageCost
	plan.CostSMA = float64(plan.SMAPages)*pl.Cost.SeqPageCost + ambCost + qualCost
	if plan.CostSMA <= plan.CostScan {
		plan.Strategy = StrategySMAScan
		plan.Reason = "aggregates not covered by SMAs; SMA scan skips disqualified buckets"
	} else {
		plan.Strategy = StrategyFullScan
		plan.Reason = "selection not selective enough for an SMA scan; sequential scan"
	}
	return plan, nil
}

// planProjection plans a non-aggregating query: an SMA scan when the
// selection SMAs prune enough buckets, else a sequential scan. Both shapes
// stream tuples (see TupleIterator) instead of materializing rows.
func (pl *Planner) planProjection(q *parser.Query, heap *storage.HeapFile, smas []*core.SMA) (*Plan, error) {
	schema := heap.Schema()
	cols := q.ProjColumns(schema)
	if len(cols) == 0 {
		return nil, fmt.Errorf("planner: query must project, aggregate or group")
	}
	for _, c := range cols {
		if !schema.HasColumn(c) {
			return nil, fmt.Errorf("planner: unknown column %q in select list", c)
		}
	}
	for _, c := range q.OrderBy {
		if !schema.HasColumn(c) {
			return nil, fmt.Errorf("planner: unknown column %q in ORDER BY", c)
		}
	}
	plan := &Plan{Query: q, Heap: heap}
	grader := core.NewGrader(smas...)
	plan.Grader = grader
	plan.CostScan = float64(heap.NumPages()) * pl.Cost.SeqPageCost

	if q.Where != nil && !grader.HasSelectionSMA(q.Where) {
		plan.Strategy = StrategyFullScan
		plan.Grades = core.GradeCounts{Ambivalent: heap.NumBuckets()}
		plan.CostSMA = plan.CostScan
		plan.Reason = "no selection SMA matches the predicate; sequential scan"
		return plan, nil
	}
	if q.Where != nil {
		plan.grade(q.Where)
	} else {
		plan.Grades = core.GradeCounts{Qualifying: heap.NumBuckets()}
	}
	bucketPages := float64(heap.BucketPages)
	plan.SelSMAs = selectionSMAs(smas, q.Where)
	plan.SMAPages = selectionSMAPages(plan.SelSMAs)
	touched := float64(plan.Grades.Qualifying+plan.Grades.Ambivalent) * bucketPages * pl.Cost.RandPageCost
	plan.CostSMA = float64(plan.SMAPages)*pl.Cost.SeqPageCost + touched
	if plan.CostSMA <= plan.CostScan {
		plan.Strategy = StrategySMAScan
		plan.Reason = "projection; SMA scan skips disqualified buckets"
	} else {
		plan.Strategy = StrategyFullScan
		plan.Reason = "selection not selective enough for an SMA scan; sequential scan"
	}
	return plan, nil
}

// IsProjection reports whether the plan streams tuples (TupleIterator)
// rather than aggregation rows (RowIterator).
func (p *Plan) IsProjection() bool { return p.Query.IsProjection() }

// modeOf maps each strategy to the pipeline the parallel package builds
// for it.
var modeOf = [...]parallel.Mode{
	StrategyFullScan: parallel.ModeScan,
	StrategySMAGAggr: parallel.ModeSMAGAggr,
	StrategySMAScan:  parallel.ModeSMAScan,
	StrategyMemScan:  parallel.ModeMem,
}

// RowIterator builds the aggregation pipeline of the plan. The context, if
// non-nil, is threaded into the scan operators, which check it on every
// bucket or page so cancellation aborts the query mid-flight. A serial plan
// is one parallel.Source pipeline over the whole relation, run inline;
// with DOP > 1 the same pipeline runs once per bucket (or page-range)
// partition and the partial aggregates are merged into one sorted stream,
// so the rows are the same for any DOP. Every pipeline shares the plan's
// binding: opening one of a bound plan binds nothing.
func (p *Plan) RowIterator(ctx context.Context) (exec.RowIter, error) {
	if p.IsProjection() {
		return nil, fmt.Errorf("planner: projection plans stream tuples; use TupleIterator")
	}
	specs := p.specs
	src := parallel.Source{
		Mode:     modeOf[p.Strategy],
		Heap:     p.Heap,
		Mem:      p.Mem,
		Pred:     p.Query.Where,
		Specs:    specs,
		GroupBy:  p.Query.GroupBy,
		Grader:   p.Grader,
		AggSMAs:  p.AggSMAs,
		CountSMA: p.CountSMA,
		Bound:    p.bound,
		Ctx:      ctx,
		Exec:     p.Exec,
	}

	var it exec.RowIter
	if p.DOP > 1 {
		op := &parallel.Agg{Source: src, Pregraded: p.runs, DOP: p.DOP}
		p.statsSrc, p.workSrc, it = op, op, op
	} else {
		var whole parallel.Unit
		whole.Runs = p.runs
		fold, stats := src.Pipeline(whole, false)
		p.statsSrc, p.workSrc, it = stats, fold, fold
	}
	if len(p.Query.Having) > 0 {
		it = exec.NewHavingFilter(it, p.Query.GroupBy, specs, p.Query.Having)
	}
	it = exec.NewSortRows(it)
	if p.Query.Limit >= 0 {
		it = exec.NewLimitRows(it, p.Query.Limit)
	}
	return it, nil
}

// TupleIterator builds the streaming tuple pipeline of a projection plan —
// the one place projection scans are constructed. Tuples are produced in
// physical order and nothing is materialized: the scan's batch holds one
// page, so LIMIT stops reading at page granularity and no page stays
// pinned between Next calls. The context, if non-nil, aborts the scan when
// cancelled.
func (p *Plan) TupleIterator(ctx context.Context) (exec.TupleIter, error) {
	if !p.IsProjection() {
		return nil, fmt.Errorf("planner: aggregation plans produce rows; use RowIterator")
	}
	onePage := p.Exec
	onePage.BatchSize = 1 // the heap scans raise it to one full page
	var schema *tuple.Schema
	var scan interface {
		exec.BatchIter
		exec.StatsReporter
	}
	switch p.Strategy {
	case StrategyMemScan:
		op := exec.NewMemScan(p.Mem.Schema, p.Mem.Tuples, p.Query.Where)
		op.Ctx = ctx
		op.Opts = p.Exec
		scan, schema = op, p.Mem.Schema
	case StrategySMAScan:
		op := exec.NewBatchSMAScan(p.Heap, p.Query.Where, p.Grader, onePage)
		op.Ctx = ctx
		op.Runs = p.runs
		scan, schema = op, p.Heap.Schema()
	default:
		op := exec.NewBatchTableScan(p.Heap, p.Query.Where, onePage)
		op.Ctx = ctx
		scan, schema = op, p.Heap.Schema()
	}
	tuples := exec.NewBatchToTuples(scan)
	p.statsSrc, p.workSrc = scan, tuples
	var it exec.TupleIter = tuples
	if len(p.Query.OrderBy) > 0 {
		st, err := exec.NewSortTuples(it, schema, p.Query.OrderBy, p.Query.OrderDesc)
		if err != nil {
			return nil, err
		}
		it = st
	}
	if p.Query.Limit >= 0 {
		it = exec.NewLimitTuples(it, p.Query.Limit)
	}
	return it, nil
}

// ScanStats returns the bucket grading and heap page statistics of the
// most recently built iterator pipeline for this plan, and whether one
// exists. For aggregation plans the stats are complete once the iterator
// is open (the operators are pipeline breakers); for projections they are
// complete when the stream is drained.
func (p *Plan) ScanStats() (exec.ScanStats, bool) {
	if p.statsSrc == nil {
		return exec.ScanStats{}, false
	}
	return p.statsSrc.Stats(), true
}

// Work returns what the most recently built iterator pipeline measured
// beside its ScanStats — the time it spent producing batches, the tuples
// they selected, the groups it produced, one row per parallel worker —
// complete when its ScanStats are (zero before a pipeline is built).
func (p *Plan) Work() exec.Work {
	if p.workSrc == nil {
		return exec.Work{}
	}
	return p.workSrc.Work()
}
