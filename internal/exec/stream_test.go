package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// streamOp is what the contract test drives of each scan shape.
type streamOp interface {
	Open() error
	Close() error
	Stats() ScanStats
}

// streamCase is one scan over a heap: how to build it, the scan positions
// and grades it covers, and the pages it must read, in order.
type streamCase struct {
	name      string
	make      func(ctx context.Context, opts ExecOptions) streamOp
	buckets   []int
	grades    []core.Grade
	survivors []storage.PageID
}

// randomGrades draws n grades as runs of random lengths.
func randomGrades(rng *rand.Rand, n int) []core.Grade {
	out := make([]core.Grade, 0, n)
	for len(out) < n {
		g := []core.Grade{core.Qualifies, core.Disqualifies, core.Ambivalent}[rng.Intn(3)]
		for k := 1 + rng.Intn(4); k > 0 && len(out) < n; k-- {
			out = append(out, g)
		}
	}
	return out
}

// TestPageStreamContractAcrossScanShapes holds the page stream to its
// contract under every scan shape: a page-range full scan, an SMA scan over
// all buckets and over a partition with gaps, and SMA_GAggr over random
// grade patterns, with prefetch on and off, at batch sizes 1, 64 and 1 024.
// A disk read hook records the pages read. On a pool that holds the table
// every surviving page is read exactly once and no disqualified page at
// all; a scan closed early has counted exactly the buckets it reached; a
// context cancelled from inside a page read stops the scan within one page;
// and no page stays pinned and no reader goroutine outlives the scan.
func TestPageStreamContractAcrossScanShapes(t *testing.T) {
	const bucketPages, perPage, pages = 3, 8, 90
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "F", Type: tuple.TFloat64},
		{Name: "G", Type: tuple.TChar, Len: 1},
		{Name: "V", Type: tuple.TFloat64},
		{Name: "PAD", Type: tuple.TChar, Len: testutil.RecordSize(perPage) - 17},
	})
	h := testutil.NewHeap(t, schema, bucketPages, 4*pages)
	tp := tuple.NewTuple(schema)
	for i := 0; i < pages*perPage; i++ {
		tp.SetFloat64(0, float64(i))
		tp.SetChar(1, string("ab"[i%2]))
		tp.SetFloat64(2, float64(i%13))
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	smas, err := core.BuildMany(h, []core.Def{
		core.NewDef("fmin", "T", core.Min, expr.NewCol("F")),
		core.NewDef("fmax", "T", core.Max, expr.NewCol("F")),
		core.NewDef("sv", "T", core.Sum, expr.NewCol("V"), "G"),
		core.NewDef("cnt", "T", core.Count, nil, "G"),
	})
	if err != nil {
		t.Fatal(err)
	}
	grader := core.NewGrader(smas[0], smas[1])
	everything := func() pred.Predicate { return pred.NewAtom("F", pred.Ge, 0) } // selects all, needs the kernels
	specs := []AggSpec{{Func: AggSum, Arg: expr.NewCol("V"), Name: "S"}, {Func: AggCount, Name: "N"}}
	nb := h.NumBuckets()

	rng := rand.New(rand.NewSource(29))
	pagesOf := func(buckets []int, grades []core.Grade, read func(core.Grade) bool) []storage.PageID {
		var out []storage.PageID
		for i, g := range grades {
			b := i
			if buckets != nil {
				b = buckets[i]
			}
			if first, last := h.BucketRange(b); read(g) {
				for p := first; p <= last; p++ {
					out = append(out, p)
				}
			}
		}
		return out
	}
	scanned := func(g core.Grade) bool { return g != core.Disqualifies }
	var cases []streamCase
	for k := 0; k < 3; k++ {
		start := storage.PageID(rng.Intn(pages / 3))
		end := storage.PageID(pages - rng.Intn(pages/3))
		var rangePages []storage.PageID
		for p := start; p < end; p++ {
			rangePages = append(rangePages, p)
		}
		cases = append(cases, streamCase{name: fmt.Sprintf("FullScan[%d,%d)", start, end),
			make: func(ctx context.Context, opts ExecOptions) streamOp {
				s := NewBatchTableScan(h, everything(), opts)
				s.Ctx, s.StartPage, s.EndPage = ctx, start, end
				return s
			}, survivors: rangePages})

		all := randomGrades(rng, nb)
		cases = append(cases, streamCase{name: fmt.Sprintf("SMA_Scan/all/%d", k),
			make: func(ctx context.Context, opts ExecOptions) streamOp {
				s := NewBatchSMAScan(h, everything(), grader, opts)
				s.Ctx, s.Runs = ctx, core.RunsOf(nil, all)
				return s
			}, grades: all, survivors: pagesOf(nil, all, scanned)})

		var part []int
		for b := 0; b < nb; b++ {
			if rng.Intn(4) != 0 {
				part = append(part, b)
			}
		}
		partGrades := randomGrades(rng, len(part))
		cases = append(cases, streamCase{name: fmt.Sprintf("SMA_Scan/partition/%d", k),
			make: func(ctx context.Context, opts ExecOptions) streamOp {
				s := NewBatchSMAScan(h, everything(), grader, opts)
				s.Ctx, s.Buckets, s.Grades = ctx, part, partGrades
				return s
			}, buckets: part, grades: partGrades, survivors: pagesOf(part, partGrades, scanned)})

		aggGrades, aggBuckets := all, []int(nil)
		if k > 0 {
			aggGrades, aggBuckets = partGrades, part
		}
		cases = append(cases, streamCase{name: fmt.Sprintf("SMA_GAggr/%d", k),
			make: func(ctx context.Context, opts ExecOptions) streamOp {
				g := NewSMAGAggr(h, everything(), specs, []string{"G"}, grader, []*core.SMA{smas[2], smas[3]}, nil)
				g.Ctx, g.Runs, g.Opts, g.KeepPartials = ctx, core.RunsOf(aggBuckets, aggGrades), opts, true
				return g
			}, buckets: aggBuckets, grades: aggGrades,
			survivors: pagesOf(aggBuckets, aggGrades, func(g core.Grade) bool { return g == core.Ambivalent })})
	}

	var mu sync.Mutex
	reads := make(map[storage.PageID]int)
	var onRead func(storage.PageID)
	h.Pool().Disk().SetFault(func(op string, id storage.PageID) error {
		if op == "read" {
			mu.Lock()
			reads[id]++
			f := onRead
			mu.Unlock()
			if f != nil {
				f(id)
			}
		}
		return nil
	})
	defer h.Pool().Disk().SetFault(nil)
	// cold empties the pool, which fails while a page is pinned, and
	// forgets the reads so far.
	cold := func(t *testing.T) {
		t.Helper()
		if err := h.Pool().DropAll(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		clear(reads)
		onRead = nil
		mu.Unlock()
	}
	// drain opens the scan and pulls up to stopAfter batches (all when
	// negative); it returns the last batch's record count, the batches
	// pulled, and whether the scan reported its end.
	drain := func(op streamOp, stopAfter int) (last, batches int, end bool, err error) {
		if err := op.Open(); err != nil {
			return 0, 0, false, err
		}
		it, ok := op.(BatchIter)
		for ok && batches != stopAfter {
			b, err := it.NextBatch()
			if err != nil || b == nil {
				return last, batches, b == nil, err
			}
			last, batches = b.Len(), batches+1
		}
		return last, batches, !ok, nil
	}
	goroutines := runtime.NumGoroutine()
	// tally adds scan position i of c, graded g, to st: a disqualified
	// bucket's pages are pruned.
	tally := func(st *ScanStats, c streamCase, i int, g core.Grade) {
		b := i
		if c.buckets != nil {
			b = c.buckets[i]
		}
		switch g {
		case core.Disqualifies:
			first, last := h.BucketRange(b)
			st.Disqualifying++
			st.PagesPruned += int(last-first) + 1
		case core.Qualifies:
			st.Qualifying++
		default:
			st.Ambivalent++
		}
	}

	for _, c := range cases {
		var want ScanStats
		for i, g := range c.grades {
			tally(&want, c, i, g)
		}
		position := make(map[storage.PageID]int, len(c.survivors))
		for i, p := range c.survivors {
			position[p] = i
		}
		for _, window := range []int{-1, 0} {
			for _, size := range []int{1, 64, 1024} {
				opts := ExecOptions{BatchSize: size, PrefetchWindow: window}
				t.Run(fmt.Sprintf("%s/window=%d/batch=%d", c.name, window, size), func(t *testing.T) {
					// A whole scan reads every surviving page once, and
					// nothing else.
					cold(t)
					op := c.make(nil, opts)
					if _, _, _, err := drain(op, -1); err != nil {
						t.Fatal(err)
					}
					op.Close()
					st := op.Stats()
					mu.Lock()
					if len(reads) != len(c.survivors) {
						t.Errorf("%d pages read, want the %d surviving ones", len(reads), len(c.survivors))
					}
					for p, n := range reads {
						if _, ok := position[p]; !ok || n != 1 {
							t.Errorf("page %d read %d times, surviving %v", p, n, ok)
						}
					}
					mu.Unlock()
					if st.PagesRead != len(c.survivors) || st.Qualifying != want.Qualifying ||
						st.Disqualifying != want.Disqualifying || st.Ambivalent != want.Ambivalent ||
						st.PagesPruned != want.PagesPruned {
						t.Errorf("stats %+v, want %d pages and grades %+v", st, len(c.survivors), want)
					}
					if window < 0 && st.PagesPrefetched != 0 {
						t.Errorf("%d pages prefetched with prefetch off", st.PagesPrefetched)
					}

					// Closed early, a scan has counted the buckets it reached:
					// those starting at or before the last page read, and, when
					// a change of grade class rather than a full batch ended
					// its last batch, those up to the one the next starts in.
					if _, isScan := op.(BatchIter); isScan && len(c.survivors) > 0 {
						cold(t)
						op := c.make(nil, opts)
						last, batches, end, err := drain(op, 1+rng.Intn(3))
						if err != nil {
							t.Fatal(err)
						}
						op.Close()
						st := op.Stats()
						reached := ScanStats{}
						if end {
							reached = want
						} else if batches > 0 {
							limit := c.survivors[st.PagesRead-1]
							if cp := batchCap(opts, perPage); last+perPage <= cp {
								limit = math.MaxInt64
								if st.PagesRead < len(c.survivors) {
									limit = c.survivors[st.PagesRead]
								}
							}
							for i, g := range c.grades {
								b := i
								if c.buckets != nil {
									b = c.buckets[i]
								}
								if first, _ := h.BucketRange(b); first <= limit {
									tally(&reached, c, i, g)
								}
							}
						}
						if st.Qualifying != reached.Qualifying || st.Disqualifying != reached.Disqualifying ||
							st.Ambivalent != reached.Ambivalent || st.PagesPruned != reached.PagesPruned {
							t.Errorf("closed after %d batches and %d pages: grades %+v, want %+v", batches, st.PagesRead, st, reached)
						}
					}

					// A context cancelled inside the read of one page stops the
					// scan before the page after it.
					if len(c.survivors) > 0 {
						cold(t)
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						at := 1 + rng.Intn(len(c.survivors))
						var hit storage.PageID
						var n int
						mu.Lock()
						onRead = func(id storage.PageID) {
							mu.Lock()
							if n++; n == at {
								hit = id
								cancel()
							}
							mu.Unlock()
						}
						mu.Unlock()
						op := c.make(ctx, opts)
						_, _, _, err := drain(op, -1)
						op.Close()
						st := op.Stats()
						mu.Lock()
						limit := position[hit] + 1
						mu.Unlock()
						if !errors.Is(err, context.Canceled) || st.PagesRead > limit || window < 0 && st.PagesRead != limit {
							t.Errorf("cancelled in the read of page %d (read %d of the scan): error %v after %d pages", hit, limit, err, st.PagesRead)
						}
					}
					cold(t)
				})
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the scans, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
}
