// Package exec implements the physical operators of the query engine as
// Volcano-style iterators ("the iterator concept" the paper cites) over
// tuple batches: a table scan and hash aggregation as the baseline, and the
// paper's two SMA-aware operators, SMA_Scan (Fig. 6) and SMA_GAggr (Fig. 7).
// Batches are the only currency between operators; tuples appear at the
// edge of a projection pipeline, through BatchToTuples.
package exec

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// ctxErr reports the context's error, treating a nil context as
// "never cancelled". SMA_GAggr calls it once per run and MemScan once per
// batch, so long-running plans abort promptly without a per-tuple branch;
// the page stream checks before every page.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// TupleIter produces storage tuples.
type TupleIter interface {
	// Open initializes the iterator; it must be called before Next.
	Open() error
	// Next returns the next tuple. ok is false at end of stream. The
	// returned tuple may alias the producer's buffer: it is valid until
	// the next Next or Close call, and callers that retain it Copy it.
	Next() (t tuple.Tuple, ok bool, err error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// Row is an output row of an aggregation operator: the group-by values
// followed by one float64 per aggregate.
type Row struct {
	Key  core.GroupKey
	Vals []core.GroupVal
	Aggs []float64
}

// RowIter produces aggregation rows.
type RowIter interface {
	Open() error
	Next() (r Row, ok bool, err error)
	Close() error
}

// AggFunc enumerates query-level aggregate functions. AVG is rewritten to
// SUM/COUNT internally, as §3.3 prescribes ("we first compute the sum and
// divide by the count in the last phase").
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String renders the SQL name.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// NeededSMAKind returns the SMA aggregate that can supply this function's
// per-bucket contribution (AVG needs Sum, plus a Count SMA for the divisor).
func (f AggFunc) NeededSMAKind() core.AggKind {
	switch f {
	case AggSum, AggAvg:
		return core.Sum
	case AggCount:
		return core.Count
	case AggMin:
		return core.Min
	default:
		return core.Max
	}
}

// AggSpec is one aggregate in a query's select clause.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr // nil for COUNT(*)
	Name string    // output column name / alias
}

// String renders the spec.
func (a AggSpec) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	s := fmt.Sprintf("%s(%s)", a.Func, arg)
	if a.Name != "" && !strings.EqualFold(a.Name, s) {
		s += " AS " + a.Name
	}
	return s
}

// Validate checks the spec against a schema.
func (a *AggSpec) Validate(s *tuple.Schema) error {
	if a.Arg == nil {
		if a.Func != AggCount {
			return fmt.Errorf("exec: %s requires an argument", a.Func)
		}
		return nil
	}
	return a.Arg.Bind(s)
}

// Partial is the mergeable accumulator state of one output group before
// post-processing: the group-by values, one running aggregate per spec
// (AVG slots hold the running sum), per-slot seen flags for min/max
// initialization, and the tuple count that backs AVG. Partition workers
// of the parallel subsystem each produce a map of Partials; Merge folds
// them together, and FinishPartials turns the merged state into rows.
type Partial struct {
	Vals  []core.GroupVal
	Aggs  []float64
	Seen  []bool // per-slot: any contribution yet (for min/max init)
	Count float64

	// id is the dense group id the groupFolder folding into this partial
	// gave it; see groupFolder.idOf.
	id int32
}

func newGroupAcc(vals []core.GroupVal, n int) *Partial {
	return &Partial{Vals: vals, Aggs: make([]float64, n), Seen: make([]bool, n)}
}

// Merge folds another partial of the same group into g: counts and
// additive aggregates (count/sum/avg-sums) add, min/max combine, and the
// seen flags union. Both partials must have been built for the same specs.
func (g *Partial) Merge(o *Partial, specs []AggSpec) {
	g.Count += o.Count
	for i := range specs {
		if !o.Seen[i] {
			continue
		}
		switch specs[i].Func {
		case AggCount, AggSum, AggAvg:
			g.Aggs[i] += o.Aggs[i]
		case AggMin:
			if !g.Seen[i] || o.Aggs[i] < g.Aggs[i] {
				g.Aggs[i] = o.Aggs[i]
			}
		case AggMax:
			if !g.Seen[i] || o.Aggs[i] > g.Aggs[i] {
				g.Aggs[i] = o.Aggs[i]
			}
		}
		g.Seen[i] = true
	}
}

// finish performs the paper's last phase: "we divide the sums which should
// be averages by the computed count".
func (g *Partial) finish(specs []AggSpec) {
	for i := range specs {
		if specs[i].Func == AggAvg && g.Count > 0 {
			g.Aggs[i] /= g.Count
		}
	}
}

// ScanStats reports the bucket classification observed by an SMA scan,
// plus the batch and prefetch activity of the read path.
type ScanStats struct {
	Qualifying    int
	Disqualifying int
	Ambivalent    int
	PagesRead     int // heap pages fetched (disqualified buckets cost none)
	// PagesPruned counts the pages of the disqualified buckets reached: the
	// pages the grades saved, a short last bucket counted by its own pages.
	PagesPruned int
	// Batches counts the tuple batches the scans produced.
	Batches int
	// PagesPrefetched counts the pages the asynchronous prefetcher read
	// ahead of the cursor; populated when the scan closes.
	PagesPrefetched int
	// PrefetchHits counts page fetches that found their page already
	// resident because the prefetcher got there first.
	PrefetchHits int
}

// Add accumulates another worker's statistics into s; the parallel merge
// stage folds per-partition stats into one per-query total with it.
func (s *ScanStats) Add(o ScanStats) {
	s.Qualifying += o.Qualifying
	s.Disqualifying += o.Disqualifying
	s.Ambivalent += o.Ambivalent
	s.PagesRead += o.PagesRead
	s.PagesPruned += o.PagesPruned
	s.Batches += o.Batches
	s.PagesPrefetched += o.PagesPrefetched
	s.PrefetchHits += o.PrefetchHits
}

// count adds the buckets [from, to) of run r, counted from its first
// bucket, to the classification; a disqualified run's pages of them go to
// PagesPruned.
func (s *ScanStats) count(h *storage.HeapFile, r *run, from, to int) {
	n := to - from
	switch r.Grade {
	case core.Disqualifies:
		s.Disqualifying += n
		if n > 0 { // the run's buckets are consecutive on disk; its span ends with the file
			first := r.pages.First + storage.PageID(from*h.BucketPages)
			last := min(r.pages.First+storage.PageID(to*h.BucketPages)-1, r.pages.Last)
			s.PagesPruned += int(last-first) + 1
		}
	case core.Qualifies:
		s.Qualifying += n
	default:
		s.Ambivalent += n
	}
}

// StatsReporter is implemented by operators that track bucket grading and
// heap page I/O (the scans, SMAGAggr, and the parallel aggregation
// executor). Plans expose it for per-query stats.
type StatsReporter interface {
	Stats() ScanStats
}

// Work is what an operator measures beside the ScanStats of what it read.
// Time is kept out of ScanStats so that comparing two of them stays a
// comparison of exact counters.
type Work struct {
	// ScanTime is the wall time spent producing batches: page fetch,
	// decode and selection.
	ScanTime time.Duration
	// Scanned counts the tuples those batches selected.
	Scanned int64
	// Groups counts the result rows an aggregation produced.
	Groups int64
	// Workers holds one row per worker of a parallel run.
	Workers []Worker
}

// Worker is one parallel worker's row: the wall time it spent inside its
// pipeline and what that pipeline counted.
type Worker struct {
	Busy time.Duration
	ScanStats
}

// pull fetches the next batch from in, charging the call to the scan.
func (w *Work) pull(in BatchIter) (*Batch, error) {
	start := time.Now()
	b, err := in.NextBatch()
	w.ScanTime += time.Since(start)
	if b != nil {
		w.Scanned += int64(len(b.Sel))
	}
	return b, err
}

// timed runs an Open or Close of the scan, charging its time to the scan.
func (w *Work) timed(f func() error) error {
	start := time.Now()
	err := f()
	w.ScanTime += time.Since(start)
	return err
}
