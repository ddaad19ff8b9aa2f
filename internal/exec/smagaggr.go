package exec

import (
	"context"
	"time"

	"sma/internal/core"
	"sma/internal/pred"
	"sma/internal/storage"
)

// SMAGAggr is the paper's SMA_GAggr operator (Fig. 7): it computes a
// grouping with aggregation, using selection SMAs (via the Grader) to grade
// buckets and aggregate SMAs to advance the result aggregates of qualifying
// buckets without touching their pages. Only ambivalent buckets are
// inspected tuple by tuple. The operator is a pipeline breaker: init()
// computes the whole result, next() merely returns one group after another.
//
// What its parameters fix — the checks of the specs against the SMAs, the
// SMA-files resolved to their query-level groups, the fold and selection
// programs — is an AggBinding: the plan's, when Bound is set, which every
// execution and every parallel worker shares; else Open binds them itself
// with BindSMAGAggr. Open then allocates only the statement's accumulators,
// groups map, batch and page stream.
type SMAGAggr struct {
	H       *storage.HeapFile
	Pred    pred.Predicate // nil: every bucket qualifies
	Specs   []AggSpec
	GroupBy []string

	// Grader holds the selection SMAs.
	Grader *core.Grader
	// AggSMAs maps each spec (by position) to the SMA supplying its
	// per-bucket values. The SMA's grouping must equal the query grouping
	// or be finer (a superset of the group-by columns, §2.3: "a SMA has to
	// reflect the grouping of the query or a finer grouping").
	AggSMAs []*core.SMA
	// CountSMA supplies the per-group tuple count used as the AVG divisor;
	// required when any spec is AVG ("If the result aggregates do not
	// contain a count(*) and if averages are demanded by the query, we add
	// it").
	CountSMA *core.SMA
	// Bound, when set, is the binding of the fields above, made by
	// BindSMAGAggr from the same values; Open uses it instead of binding
	// them again.
	Bound *AggBinding
	// Ctx, when set, is checked once per run of equally graded buckets and
	// before every ambivalent page read during init(), so a cancelled query
	// aborts the aggregation pass with the context's error.
	Ctx context.Context
	// Runs, Buckets and Grades are what the operator covers, as for
	// BatchSMAScan: the graded runs, or the same a bucket at a time.
	Runs    []core.Run
	Buckets []int
	Grades  []core.Grade
	// KeepPartials makes Open keep the merge-ready per-group state instead
	// of finishing it into rows; retrieve it with Partials before Close.
	// Next yields nothing in this mode. Parallel partition workers use it.
	KeepPartials bool
	// Opts sizes the batches the ambivalent buckets are inspected in
	// (decode to a reusable batch, predicate kernels over a selection
	// vector, vector fold) and the asynchronous prefetch of their pages.
	Opts ExecOptions

	b *AggBinding // the binding of the last Open
	// accs holds, per target of the binding, its accumulator once it has
	// one: it appears with the first contribution, so a group with nothing
	// in the surviving buckets yields no row.
	accs   []*Partial
	groups map[core.GroupKey]*Partial
	out    []Row
	pos    int
	scan   runScan // the ambivalent runs' pages, during Open
	work   Work
}

// NewSMAGAggr constructs the operator; see the field docs for parameters.
func NewSMAGAggr(h *storage.HeapFile, p pred.Predicate, specs []AggSpec, groupBy []string,
	grader *core.Grader, aggSMAs []*core.SMA, countSMA *core.SMA) *SMAGAggr {
	return &SMAGAggr{H: h, Pred: p, Specs: specs, GroupBy: groupBy,
		Grader: grader, AggSMAs: aggSMAs, CountSMA: countSMA}
}

// Open computes the result, the paper's three phases: initialize, advance
// per bucket, post-process averages.
func (g *SMAGAggr) Open() error {
	b := g.Bound
	if b == nil {
		var err error
		if b, err = BindSMAGAggr(g.H, g.Pred, g.Specs, g.GroupBy, g.AggSMAs, g.CountSMA); err != nil {
			return err
		}
	}
	g.b = b
	g.accs = make([]*Partial, len(b.targets))
	g.groups = make(map[core.GroupKey]*Partial)
	g.work = Work{}
	// The ambivalent runs' pages are the only ones this operator ever
	// touches, and the grades name them before the first access.
	ambivalent := func(gr core.Grade) bool { return gr == core.Ambivalent }
	g.scan.open(g.H, g.Ctx, b.sel, g.Opts, ambivalent, func(runs []run) []run {
		return spanRuns(runs, g.H, gradedRuns(g.H, g.Grader, g.Pred, g.Runs, g.Buckets, g.Grades))
	})
	defer g.scan.Close()
	var folder *groupFolder // made for the first ambivalent run

	for _, r := range g.scan.runs {
		if err := ctxErr(g.Ctx); err != nil {
			return err
		}
		g.scan.stats.count(g.H, &r, 0, r.Len())
		switch r.Grade {
		case core.Disqualifies: // "do nothing"
		case core.Qualifies:
			g.advanceRun(int(r.Lo), int(r.Hi))
		default:
			if folder == nil {
				folder = newGroupFolder(b.fold, g.groups)
			}
			// Inspect the run batch by batch: pages decode into the reusable
			// batch, the compiled predicate narrows the selection vector, and
			// the survivors fold into the shared group map through the same
			// groupFolder kernels a scan's aggregation uses.
			batch := g.scan.batch
			for p, ok := g.scan.stream.Next(); ok && p <= r.pages.Last; p, ok = g.scan.stream.Next() {
				start := time.Now()
				batch.reset()
				var err error
				if batch.data, batch.n, err = g.scan.stream.Read(g.Ctx, batch.data, g.scan.cap, nil); err != nil {
					return err
				}
				if batch.n == 0 {
					continue
				}
				g.scan.stats.Batches++
				batch.selectProg(g.scan.sel)
				g.work.ScanTime += time.Since(start)
				g.work.Scanned += int64(len(batch.Sel))
				folder.fold(batch)
			}
		}
	}
	if !g.KeepPartials {
		g.out = FinishPartials(g.groups, g.Specs, len(g.GroupBy) == 0)
		g.work.Groups = int64(len(g.out))
	}
	g.pos = 0
	return nil
}

// Partials returns the merge-ready group states computed by Open. The map
// is owned by the operator and valid until Close.
func (g *SMAGAggr) Partials() map[core.GroupKey]*Partial { return g.groups }

// Work reports the time spent reading and selecting the ambivalent
// buckets' batches, the tuples they selected, and the groups Open
// produced.
func (g *SMAGAggr) Work() Work { return g.work }

// advanceRun advances the result aggregates over the qualifying buckets
// [lo, hi) using only SMA entries — no page access. Each accumulator slot
// receives its entries in ascending bucket order (SMA-file order within a
// bucket where several files roll up into one group), which is the order a
// bucket-at-a-time pass adds them in: floating-point results do not depend
// on how the buckets fall into runs.
func (g *SMAGAggr) advanceRun(lo, hi int) {
	sources := g.b.sources
	for i := 0; i < len(sources); {
		src := sources[i]
		j := i + 1
		for j < len(sources) && sources[j].slot == src.slot && sources[j].target == src.target {
			j++
		}
		if j-i == 1 {
			g.advanceFile(src, lo, hi)
		} else {
			for b := lo; b < hi; b++ {
				for _, s := range sources[i:j] {
					g.advanceFile(s, b, b+1)
				}
			}
		}
		i = j
	}
}

// advanceFile folds buckets [lo, hi) of one SMA-file into its slot.
func (g *SMAGAggr) advanceFile(src foldSource, lo, hi int) {
	acc := g.accs[src.target]
	if acc == nil {
		// An ambivalent bucket may have created the group meanwhile.
		acc = g.groups[g.b.targets[src.target].key]
		g.accs[src.target] = acc
	}
	var cur float64
	var seen bool
	if acc != nil {
		if src.slot == countSlot {
			cur = acc.Count
		} else {
			cur, seen = acc.Aggs[src.slot], acc.Seen[src.slot]
		}
	}
	v, any := src.gf.FoldRange(src.kind, lo, hi, cur, seen)
	if !any {
		return // nothing present, and nothing seen before either
	}
	if acc == nil {
		t := &g.b.targets[src.target]
		acc = newGroupAcc(t.vals, len(g.Specs))
		g.accs[src.target], g.groups[t.key] = acc, acc
	}
	if src.slot == countSlot {
		acc.Count = v
	} else {
		acc.Aggs[src.slot], acc.Seen[src.slot] = v, true
	}
}

// Next returns the next unseen group.
func (g *SMAGAggr) Next() (Row, bool, error) {
	if g.pos >= len(g.out) {
		return Row{}, false, nil
	}
	r := g.out[g.pos]
	g.pos++
	return r, true, nil
}

// Close drops the result.
func (g *SMAGAggr) Close() error {
	g.b, g.accs = nil, nil
	g.groups = nil
	g.out = nil
	return nil
}

// Stats returns the bucket classification of the completed computation.
func (g *SMAGAggr) Stats() ScanStats { return g.scan.Stats() }
