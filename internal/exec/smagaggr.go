package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// SMAGAggr is the paper's SMA_GAggr operator (Fig. 7): it computes a
// grouping with aggregation, using selection SMAs (via the Grader) to grade
// buckets and aggregate SMAs to advance the result aggregates of qualifying
// buckets without touching their pages. Only ambivalent buckets are
// inspected tuple by tuple. The operator is a pipeline breaker: init()
// computes the whole result, next() merely returns one group after another.
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

	schema *tuple.Schema
	gx     *core.Extractor

	// The resolved fold: the query-level groups the SMA-files roll up into,
	// and every SMA-file bound to the accumulator slot it advances. Sources
	// that share a slot and a target (a grouping finer than the query's)
	// are adjacent, in SMA-file order.
	targets []foldTarget
	sources []foldSource

	groups map[core.GroupKey]*Partial
	out    []Row
	pos    int
	scan   runScan // the ambivalent runs' pages, during Open
	work   Work
}

// foldTarget is one query-level group that SMA-files contribute to. Its
// accumulator appears with the first contribution, so a group with nothing
// in the surviving buckets yields no row.
type foldTarget struct {
	key  core.GroupKey
	vals []core.GroupVal
	acc  *Partial
}

// foldSource binds one SMA-file to what it advances: slot is the spec
// position, or countSlot for the AVG divisor.
type foldSource struct {
	gf     *core.GroupFile
	target int32
	slot   int32
}

const countSlot = -1

// NewSMAGAggr constructs the operator; see the field docs for parameters.
func NewSMAGAggr(h *storage.HeapFile, p pred.Predicate, specs []AggSpec, groupBy []string,
	grader *core.Grader, aggSMAs []*core.SMA, countSMA *core.SMA) *SMAGAggr {
	return &SMAGAggr{H: h, Pred: p, Specs: specs, GroupBy: groupBy,
		Grader: grader, AggSMAs: aggSMAs, CountSMA: countSMA}
}

// addSources validates that s's grouping is equal to or finer than the
// query grouping and binds each of its SMA-files to slot of the query-level
// group it rolls up into.
func (g *SMAGAggr) addSources(s *core.SMA, slot int32, index map[core.GroupKey]int32, pos []int) error {
	same := len(s.Def.GroupBy) == len(g.GroupBy) // same columns in the same order
	for i, q := range g.GroupBy {
		found := -1
		for j, c := range s.Def.GroupBy {
			if strings.EqualFold(q, c) {
				found = j
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("exec: sma %s groups by (%s), which does not cover query group-by column %s",
				s.Def.Name, strings.Join(s.Def.GroupBy, ","), q)
		}
		pos[i] = found
		same = same && found == i
	}
	first := len(g.sources)
	err := s.Groups(func(gf *core.GroupFile) error {
		key, vals := gf.Key, gf.Vals
		if !same {
			vals = make([]core.GroupVal, len(pos))
			for i, j := range pos {
				vals[i] = gf.Vals[j]
			}
			key = core.MakeGroupKey(vals)
		}
		t, ok := index[key]
		if !ok {
			t = int32(len(g.targets))
			index[key] = t
			g.targets = append(g.targets, foldTarget{key: key, vals: vals})
		}
		g.sources = append(g.sources, foldSource{gf: gf, target: t, slot: slot})
		return nil
	})
	if !same {
		// Several files may share a target now: make them adjacent,
		// keeping SMA-file order among them.
		added := g.sources[first:]
		sort.SliceStable(added, func(i, j int) bool { return added[i].target < added[j].target })
	}
	return err
}

// Open computes the result, the paper's three phases: initialize, advance
// per bucket, post-process averages.
func (g *SMAGAggr) Open() error {
	g.schema = g.H.Schema()
	var err error
	for i := range g.Specs {
		if err := g.Specs[i].Validate(g.schema); err != nil {
			return err
		}
	}
	if len(g.AggSMAs) != len(g.Specs) {
		return fmt.Errorf("exec: %d aggregate SMAs for %d specs", len(g.AggSMAs), len(g.Specs))
	}
	needCount := false
	files := 0 // SMA-files to bind
	for i := range g.Specs {
		s := g.AggSMAs[i]
		if s == nil {
			return fmt.Errorf("exec: spec %s has no aggregate SMA", g.Specs[i])
		}
		if want := g.Specs[i].Func.NeededSMAKind(); s.Def.Agg != want {
			return fmt.Errorf("exec: spec %s needs a %s SMA, got %s (%s)", g.Specs[i], want, s.Def.Agg, s.Def.Name)
		}
		if g.Specs[i].Arg != nil && !expr.Equal(g.Specs[i].Arg, s.Def.Expr) {
			return fmt.Errorf("exec: spec %s does not match sma %s over %s",
				g.Specs[i], s.Def.Name, s.Def.ExprString())
		}
		if g.Specs[i].Func == AggAvg {
			needCount = true
		}
		files += s.NumFiles()
	}
	if needCount && g.CountSMA == nil {
		return fmt.Errorf("exec: AVG aggregates require a count SMA")
	}

	if len(g.GroupBy) > 0 {
		g.gx, err = core.NewExtractor(g.schema, g.GroupBy)
		if err != nil {
			return err
		}
	}
	if g.CountSMA != nil {
		files += g.CountSMA.NumFiles()
	}
	g.targets = nil
	g.sources = make([]foldSource, 0, files)
	index := make(map[core.GroupKey]int32)
	pos := make([]int, len(g.GroupBy))
	for i, s := range g.AggSMAs {
		if err := g.addSources(s, int32(i), index, pos); err != nil {
			return err
		}
	}
	if g.CountSMA != nil {
		if err := g.addSources(g.CountSMA, countSlot, index, pos); err != nil {
			return err
		}
	}

	g.groups = make(map[core.GroupKey]*Partial)
	g.work = Work{}
	// The ambivalent runs' pages are the only ones this operator ever
	// touches, and the grades name them before the first access.
	ambivalent := func(gr core.Grade) bool { return gr == core.Ambivalent }
	if err := g.scan.open(g.H, g.Ctx, g.Pred, g.Opts, ambivalent, func(runs []run) []run {
		return spanRuns(runs, g.H, gradedRuns(g.H, g.Grader, g.Pred, g.Runs, g.Buckets, g.Grades))
	}); err != nil {
		return err
	}
	defer g.scan.Close()
	var folder *groupFolder // compiled for the first ambivalent run

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
				if folder, err = newGroupFolder(g.schema, g.Specs, g.gx, g.groups); err != nil {
					return err
				}
			}
			// Inspect the run batch by batch: pages decode into the reusable
			// batch, the compiled predicate narrows the selection vector, and
			// the survivors fold into the shared group map through the same
			// groupFolder kernels a scan's aggregation uses.
			batch := g.scan.batch
			for p, ok := g.scan.stream.Next(); ok && p <= r.pages.Last; p, ok = g.scan.stream.Next() {
				start := time.Now()
				batch.reset()
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
	for i := 0; i < len(g.sources); {
		src := g.sources[i]
		j := i + 1
		for j < len(g.sources) && g.sources[j].slot == src.slot && g.sources[j].target == src.target {
			j++
		}
		if j-i == 1 {
			g.advanceFile(src, lo, hi)
		} else {
			for b := lo; b < hi; b++ {
				for _, s := range g.sources[i:j] {
					g.advanceFile(s, b, b+1)
				}
			}
		}
		i = j
	}
}

// advanceFile folds buckets [lo, hi) of one SMA-file into its slot.
func (g *SMAGAggr) advanceFile(src foldSource, lo, hi int) {
	t := &g.targets[src.target]
	if t.acc == nil {
		// An ambivalent bucket may have created the group meanwhile.
		t.acc = g.groups[t.key]
	}
	acc := t.acc
	kind := core.Count
	if src.slot != countSlot {
		kind = g.Specs[src.slot].Func.NeededSMAKind()
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
	v, any := src.gf.FoldRange(kind, lo, hi, cur, seen)
	if !any {
		return // nothing present, and nothing seen before either
	}
	if acc == nil {
		acc = newGroupAcc(t.vals, len(g.Specs))
		t.acc, g.groups[t.key] = acc, acc
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
	g.targets, g.sources = nil, nil
	g.groups = nil
	g.out = nil
	return nil
}

// Stats returns the bucket classification of the completed computation.
func (g *SMAGAggr) Stats() ScanStats { return g.scan.Stats() }
