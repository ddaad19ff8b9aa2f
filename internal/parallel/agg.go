package parallel

import (
	"context"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// Mode selects the pipeline that aggregates one unit of the relation.
type Mode uint8

// Execution modes, mirroring the planner's strategies.
const (
	// ModeScan runs BatchTableScan + hash aggregation per page range (the
	// FullScan strategy: no usable selection SMAs, or not selective
	// enough).
	ModeScan Mode = iota
	// ModeSMAScan runs SMA_Scan + hash aggregation per bucket partition
	// (aggregates not covered by SMAs; grading only skips buckets).
	ModeSMAScan
	// ModeSMAGAggr runs SMA_GAggr per bucket partition (qualifying buckets
	// answered from aggregate SMAs without page access).
	ModeSMAGAggr
	// ModeMem runs MemScan + hash aggregation over an in-memory relation
	// (a virtual system table). It has no pages to partition: the planner
	// always runs it as one unit.
	ModeMem
)

// Unit is the part of the relation one pipeline covers: a partition's
// graded runs for the SMA modes, a page range for ModeScan. The zero Unit
// is the whole relation, graded by the pipeline itself; a whole-relation
// Unit may still carry pre-computed Runs.
type Unit struct {
	Partition
	PageRange
}

// Fold is an aggregation pipeline over one Unit: a RowIter whose
// merge-ready group states can be read after Open when it was built to
// keep them, and which reports what it measured beside its ScanStats.
type Fold interface {
	exec.RowIter
	Partials() map[core.GroupKey]*exec.Partial
	Work() exec.Work
}

// Source describes what every pipeline of a query computes: the relation,
// the selection, the aggregates, and the SMAs that serve them. Bound is
// their binding, made once per plan: the Source is copied for every
// worker, and every copy shares it.
type Source struct {
	Mode    Mode
	Heap    *storage.HeapFile
	Mem     *exec.MemRelation // the relation of ModeMem; Heap is nil then
	Pred    pred.Predicate    // nil: every bucket qualifies
	Specs   []exec.AggSpec
	GroupBy []string

	// Grader supplies selection grades for the SMA modes.
	Grader *core.Grader
	// AggSMAs and CountSMA parameterize ModeSMAGAggr (see exec.SMAGAggr).
	AggSMAs  []*core.SMA
	CountSMA *core.SMA
	// Bound, when set, is the binding of the fields above
	// (exec.BindSMAGAggr for ModeSMAGAggr, exec.BindGAggr over the heap's
	// schema for the scan modes): every operator of every pipeline takes
	// its checks and compiled programs from it and binds nothing in Open.
	// Nil for ModeMem, and when the plan did not bind; each operator then
	// binds in its Open.
	Bound *exec.AggBinding

	// Ctx, when set, cancels the pipeline at its next bucket or page
	// boundary.
	Ctx context.Context
	// Exec carries the batch size and the prefetch window.
	Exec exec.ExecOptions
}

// Pipeline builds the aggregation pipeline over u — the one place the
// engine constructs aggregation operators. A serial query is Pipeline over
// the whole relation, opened by the caller; Agg runs one Pipeline per
// partition. keep makes the fold retain its Partials instead of finishing
// them into rows. The StatsReporter is the operator that counts the
// pipeline's grades and pages.
func (s *Source) Pipeline(u Unit, keep bool) (Fold, exec.StatsReporter) {
	// Hash aggregation above a scan: all shapes but SMA_GAggr.
	gaggr := func(scan scanOp, schema *tuple.Schema) (Fold, exec.StatsReporter) {
		ga := exec.NewBatchGAggr(scan, schema, s.Specs, s.GroupBy)
		ga.KeepPartials = keep
		ga.Bound = s.Bound
		return ga, scan
	}
	switch s.Mode {
	case ModeSMAGAggr:
		op := exec.NewSMAGAggr(s.Heap, s.Pred, s.Specs, s.GroupBy, s.Grader, s.AggSMAs, s.CountSMA)
		op.Ctx = s.Ctx
		op.Runs = u.Runs
		op.KeepPartials = keep
		op.Opts = s.Exec
		op.Bound = s.Bound
		return op, op
	case ModeSMAScan:
		scan := exec.NewBatchSMAScan(s.Heap, s.Pred, s.Grader, s.Exec)
		scan.Ctx = s.Ctx
		scan.Runs = u.Runs
		scan.Bound = s.Bound
		return gaggr(scan, s.Heap.Schema())
	case ModeMem:
		scan := exec.NewMemScan(s.Mem.Schema, s.Mem.Tuples, s.Pred)
		scan.Ctx = s.Ctx
		scan.Opts = s.Exec
		return gaggr(scan, s.Mem.Schema)
	default:
		scan := exec.NewBatchTableScan(s.Heap, s.Pred, s.Exec)
		scan.Ctx = s.Ctx
		scan.StartPage, scan.EndPage = u.First, u.Last
		scan.Bound = s.Bound
		return gaggr(scan, s.Heap.Schema())
	}
}

// scanOp is what Pipeline needs of a scan: batches and the page counters.
type scanOp interface {
	exec.BatchIter
	exec.StatsReporter
}

// Agg executes a grouping-with-aggregation query across a worker pool, one
// partition per worker, and merges the partial aggregates into one sorted
// result. It is a pipeline breaker like the serial operators: Open
// partitions, executes, and merges; Next streams the merged groups. Agg
// implements exec.RowIter and exec.StatsReporter.
//
// Determinism: partitioning is a pure function of the grades and DOP, the
// merge combines partials per group key, and FinishPartials emits groups
// in sorted key order — so for a given database state the result rows are
// identical for every DOP (up to floating-point summation order, which
// regroups across partition boundaries).
type Agg struct {
	Source

	// Pregraded, when it covers the heap's buckets, is the run list the
	// planner already computed for this query; it saves the grading pass.
	Pregraded []core.Run
	// DOP is the requested degree of parallelism (values < 1 mean 1); the
	// effective degree is capped by the surviving buckets or pages. Each
	// worker's prefetch window is derated by the partition count so
	// concurrent prefetchers cannot crowd the shared buffer pool.
	DOP int

	out   []exec.Row
	pos   int
	stats exec.ScanStats
	// work holds one row per dispatched partition, reset per Open; each
	// worker writes only its own.
	work exec.Work
}

// Open grades the buckets, dispatches the partitions to the worker pool,
// and merges the partial results. Like the serial SMA_GAggr, the whole
// result is computed here; Next merely returns one group after another.
func (a *Agg) Open() error {
	a.out, a.pos = nil, 0
	a.stats = exec.ScanStats{}

	units := a.partition()
	partials := make([]map[core.GroupKey]*exec.Partial, len(units))
	a.work = exec.Work{Workers: make([]exec.Worker, len(units))}
	workerOpts := a.workerExecOptions(len(units))
	err := Run(a.Ctx, len(units), func(ctx context.Context, i int) error {
		row := &a.work.Workers[i]
		defer func(t0 time.Time) { row.Busy = time.Since(t0) }(time.Now())
		// The workers share the predicate, the specs and the plan's
		// binding of them: a parsed statement and a binding are immutable.
		w := a.Source
		w.Ctx, w.Exec = ctx, workerOpts
		op, src := w.Pipeline(units[i], true)
		if err := op.Open(); err != nil {
			op.Close()
			return err
		}
		partials[i], row.ScanStats = op.Partials(), src.Stats()
		return op.Close()
	})
	if err != nil {
		return err
	}

	// Merge stage: fold every worker's partial groups and stats together.
	merged := make(map[core.GroupKey]*exec.Partial)
	for w := range partials {
		for key, p := range partials[w] {
			if dst, ok := merged[key]; ok {
				dst.Merge(p, a.Specs)
			} else {
				merged[key] = p
			}
		}
		a.stats.Add(a.work.Workers[w].ScanStats)
	}
	a.out = exec.FinishPartials(merged, a.Specs, len(a.GroupBy) == 0)
	a.work.Groups = int64(len(a.out))
	return nil
}

// partition cuts the relation into the units the workers run: page ranges
// for ModeScan; for the SMA modes the buckets are graded once into runs and
// the disqualifying ones dropped before dispatch.
func (a *Agg) partition() []Unit {
	var units []Unit
	if a.Mode == ModeScan {
		for _, r := range PartitionPages(a.Heap.NumPages(), a.DOP) {
			units = append(units, Unit{PageRange: r})
		}
		return units
	}
	runs, nb := a.Pregraded, a.Heap.NumBuckets()
	if len(runs) == 0 || int(runs[len(runs)-1].Hi) != nb {
		runs = a.Grader.RunsFor(a.Pred, nb)
	}
	// Disqualified buckets are never dispatched; account for them here so
	// the merged stats match a serial run.
	for _, r := range runs {
		if r.Grade == core.Disqualifies {
			a.stats.Disqualifying += r.Len()
		}
	}
	for _, p := range PartitionRuns(a.Heap, runs, a.DOP, a.Mode == ModeSMAGAggr) {
		units = append(units, Unit{Partition: p})
	}
	return units
}

// workerExecOptions derates the query-level prefetch window for n
// concurrent workers: each worker prefetches its own partition, but the
// combined readahead must leave the shared pool room for the workers'
// demand pins. A derated window below one page disables prefetch. A
// serial query keeps its options as they are.
func (a *Agg) workerExecOptions(n int) exec.ExecOptions {
	opts := a.Exec
	if n <= 1 {
		return opts
	}
	w := min(opts.Readahead(a.Heap.RecordsPerPage()), a.Heap.Pool().Capacity()/(4*n))
	if w < 1 {
		w = -1
	}
	opts.PrefetchWindow = w
	return opts
}

// Next returns the next merged group.
func (a *Agg) Next() (exec.Row, bool, error) {
	if a.pos >= len(a.out) {
		return exec.Row{}, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, true, nil
}

// Close drops the result.
func (a *Agg) Close() error {
	a.out = nil
	return nil
}

// Stats returns the merged per-worker scan statistics plus the buckets the
// partitioner dropped as disqualifying before dispatch.
func (a *Agg) Stats() exec.ScanStats { return a.stats }

// Work reports one row per worker of the last Open and the groups the
// merge produced.
func (a *Agg) Work() exec.Work { return a.work }
