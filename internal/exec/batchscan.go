package exec

import (
	"context"
	"math"

	"sma/internal/core"
	"sma/internal/pred"
	"sma/internal/storage"
)

// BatchTableScan reads every page of its range in physical order — the
// baseline the paper's "Query 1 without SMAs" runs on, and the one-run case
// of the SMA scan below. It decodes pages into a reusable batch (one memcpy
// per page when no records are deleted), runs the predicate, compiled into
// per-atom compare kernels, over the batch to produce a selection vector,
// and — unless prefetch is disabled — streams the pages of its range into
// the buffer pool two batches ahead of the cursor.
type BatchTableScan struct {
	H    *storage.HeapFile
	Pred pred.Predicate // nil means no filter
	// Ctx, when set, is checked before every page read so a cancelled
	// query aborts mid-batch with the context's error.
	Ctx context.Context
	// StartPage and EndPage bound the scan to pages [StartPage, EndPage);
	// EndPage 0 means the end of the file. The parallel subsystem assigns
	// one page range per worker.
	StartPage storage.PageID
	EndPage   storage.PageID
	// Opts carries the batch size and prefetch window.
	Opts ExecOptions
	// Bound, when set, is the plan's binding of Pred over the heap's
	// schema (see AggBinding): Open takes its selection kernels instead of
	// compiling Pred.
	Bound *AggBinding

	runScan
}

// NewBatchTableScan creates a batched full scan with an optional filter.
func NewBatchTableScan(h *storage.HeapFile, p pred.Predicate, opts ExecOptions) *BatchTableScan {
	return &BatchTableScan{H: h, Pred: p, Opts: opts}
}

// Open binds and compiles the predicate, unless Bound has, and starts
// reading the scan's page range as one run.
func (s *BatchTableScan) Open() error {
	sel, err := s.Bound.selection(s.Pred, s.H.Schema())
	if err != nil {
		return err
	}
	end := s.EndPage
	if end == 0 || int64(end) > s.H.NumPages() {
		end = storage.PageID(s.H.NumPages())
	}
	pages := storage.PageSpan{First: s.StartPage, Last: end - 1}
	s.open(s.H, s.Ctx, sel, s.Opts, surviving, func(runs []run) []run {
		return append(runs, run{Run: core.Run{Grade: core.Ambivalent}, pages: pages})
	})
	return nil
}

// BatchSMAScan is the paper's SMA_Scan operator (Fig. 6), whose "three
// parameters ... are the relation R to be scanned, the predicate to be
// evaluated on its tuples and a set of SMAs useful for partitioning the
// buckets of R": buckets are graded up front, disqualifying buckets are
// skipped without touching a page, qualifying buckets are decoded straight
// into batches with an all-selected vector, and only ambivalent buckets pay
// the predicate kernels. Because grading precedes the first page access, the
// exact surviving page list feeds the asynchronous prefetcher before the
// cursor starts.
type BatchSMAScan struct {
	H      *storage.HeapFile
	Pred   pred.Predicate
	Grader *core.Grader
	// Ctx, when set, is checked before every page read.
	Ctx context.Context
	// Runs, when non-nil, are the graded runs the scan covers, in bucket
	// order: the planner's grading pass, or one partition of the parallel
	// subsystem (which may have gaps). Buckets and Grades are the same input
	// a bucket at a time, Grades[i] grading bucket Buckets[i] (bucket i when
	// Buckets is nil); they are read when Runs is nil, and without Grades
	// Open grades the buckets listed, or every bucket.
	Runs    []core.Run
	Buckets []int
	Grades  []core.Grade
	// RIDs makes every batch carry the heap position of each record
	// (Batch.RID), read with the page: what UPDATE and DELETE write back to.
	RIDs bool
	// Opts carries the batch size and prefetch window.
	Opts ExecOptions
	// Bound, when set, is the plan's binding of Pred over the heap's
	// schema (see AggBinding): Open takes its selection kernels instead of
	// compiling Pred.
	Bound *AggBinding

	runScan
}

// NewBatchSMAScan creates the operator. grader must cover the heap's
// buckets unless pre-computed Runs are supplied.
func NewBatchSMAScan(h *storage.HeapFile, p pred.Predicate, grader *core.Grader, opts ExecOptions) *BatchSMAScan {
	return &BatchSMAScan{H: h, Pred: p, Grader: grader, Opts: opts}
}

// Open binds and compiles the predicate, unless Bound has, grades the
// buckets (reusing pre-computed runs when given), and starts reading the
// runs that survive.
func (s *BatchSMAScan) Open() error {
	sel, err := s.Bound.selection(s.Pred, s.H.Schema())
	if err != nil {
		return err
	}
	s.open(s.H, s.Ctx, sel, s.Opts, surviving, func(runs []run) []run {
		return spanRuns(runs, s.H, gradedRuns(s.H, s.Grader, s.Pred, s.Runs, s.Buckets, s.Grades))
	})
	if s.RIDs {
		s.rids = &s.batch.rids
	}
	return nil
}

// run is a stretch of pages a scan reads under one grade: a graded run of
// buckets with the pages they cover, or a full scan's page range, which no
// SMA graded and which covers no bucket to count.
type run struct {
	core.Run
	pages storage.PageSpan
}

// gradedRuns returns the runs an SMA operator covers: runs when given,
// else the listed buckets (every bucket of h when buckets is nil) with the
// given grades, or graded against p when grades is nil, folded into runs.
func gradedRuns(h *storage.HeapFile, g *core.Grader, p pred.Predicate, runs []core.Run, buckets []int, grades []core.Grade) []core.Run {
	switch {
	case runs != nil:
		return runs
	case grades == nil && buckets == nil:
		return g.RunsFor(p, h.NumBuckets())
	case grades == nil:
		all := g.RunsFor(p, h.NumBuckets())
		grades = make([]core.Grade, len(buckets))
		for i, j := 0, 0; i < len(buckets); i++ {
			for int(all[j].Hi) <= buckets[i] {
				j++
			}
			grades[i] = all[j].Grade
		}
	}
	return core.RunsOf(buckets, grades)
}

// spanRuns appends graded runs to out with the pages they cover: the only
// thing a scan adds to the grader's run list.
func spanRuns(out []run, h *storage.HeapFile, runs []core.Run) []run {
	for _, r := range runs {
		first, _ := h.BucketRange(int(r.Lo))
		_, last := h.BucketRange(int(r.Hi) - 1)
		out = append(out, run{Run: r, pages: storage.PageSpan{First: first, Last: last}})
	}
	return out
}

// runScan reads the pages of a run list through one storage.PageStream
// into a reusable batch. The heap scans pull its batches with NextBatch:
// disqualified runs are never read, and only runs that do not fully qualify
// get the predicate. A batch never mixes pages that need the predicate with
// pages that do not, and it spans the disqualified gaps between runs. The
// stream pins a batch's pages a lock round at a time, with the batch's pin
// list, and NextBatch releases them before it returns: no page stays
// pinned between calls. SMA_GAggr reads its ambivalent runs' batches from
// the stream itself, all inside its Open, whose deferred Close releases the
// pins.
type runScan struct {
	h      *storage.HeapFile
	ctx    context.Context
	sel    *selProgram
	runs   []run
	at     int // the run holding the page tally last reached
	done   int // buckets of runs[at] counted so far
	stream storage.PageStream
	cap    int
	batch  *Batch
	rids   *[]storage.RID // the batch's positions, when it collects them
	stats  ScanStats
}

// open leases the batch, lets cut append the run list to the batch's, and
// opens the stream over the pages of the runs whose grade read accepts,
// reading ahead as opts says; sel is the compiled predicate.
func (s *runScan) open(h *storage.HeapFile, ctx context.Context, sel *selProgram, opts ExecOptions,
	read func(core.Grade) bool, cut func([]run) []run) {
	per := h.RecordsPerPage()
	*s = runScan{h: h, ctx: ctx, sel: sel, cap: batchCap(opts, per)}
	b := getBatch(h.Schema(), s.cap)
	b.runs, b.spans = cut(b.runs[:0]), b.spans[:0]
	for _, r := range b.runs {
		if read(r.Grade) {
			b.spans = append(b.spans, r.pages)
		}
	}
	if pages := s.cap / per; cap(b.pins) < pages {
		b.pins = make([]*storage.Frame, 0, pages)
	}
	s.batch, s.runs = b, b.runs
	s.stream.Open(h, b.spans, opts.Readahead(per), b.pins)
}

// surviving accepts the runs a scan reads: all but the disqualified.
func surviving(g core.Grade) bool { return g != core.Disqualifies }

// NextBatch fills the batch from the runs' pages and selects the
// qualifying tuples. It skips over batches whose selection comes up empty,
// so a returned batch always carries at least one selected tuple.
func (s *runScan) NextBatch() (*Batch, error) {
	per := s.h.RecordsPerPage()
	for {
		b := s.batch
		b.reset()
		filtered := false
		var err error
		for b.n+per <= s.cap && s.reach() {
			r := &s.runs[s.at]
			needPred := s.sel != nil && r.Grade != core.Qualifies
			if b.n > 0 && needPred != filtered {
				break // grade class changed: flush the batch first
			}
			filtered = needPred
			var n int
			b.data, n, err = s.stream.Read(s.ctx, b.data, s.cap-b.n, s.rids)
			if b.n += n; err != nil {
				break
			}
			// Count what the read passed: up to the page before the cursor,
			// or the whole run when the cursor left it.
			last := r.pages.Last
			if p, ok := s.stream.Next(); ok && p <= last {
				last = p - 1
			}
			s.tally(last)
		}
		// The batch holds copies: the pages pinned for it go back now.
		s.stream.Release()
		if err != nil {
			return nil, err
		}
		if b.n == 0 {
			return nil, nil
		}
		s.stats.Batches++
		if filtered {
			b.selectProg(s.sel)
		} else {
			b.selectAll()
		}
		if len(b.Sel) > 0 {
			return b, nil
		}
	}
}

// reach counts the buckets up to the one holding the stream's cursor —
// every bucket once the stream is drained — and reports whether pages
// remain. A bucket is counted when the scan reaches it, so a scan closed
// early reports only the buckets it got to.
func (s *runScan) reach() bool {
	p, ok := s.stream.Next()
	if !ok {
		p = math.MaxInt64
	}
	s.tally(p)
	return ok
}

// tally counts the grades of the buckets whose first page is at or before
// page p, and leaves s.at at the run holding p.
func (s *runScan) tally(p storage.PageID) {
	for ; s.at < len(s.runs); s.at, s.done = s.at+1, 0 {
		r := &s.runs[s.at]
		if p <= r.pages.Last {
			n := min(r.Len(), max(0, s.h.BucketOf(p)+1-int(r.Lo)))
			s.stats.count(s.h, r, s.done, n)
			s.done = n
			return
		}
		s.stats.count(s.h, r, s.done, r.Len())
	}
}

// Close stops the stream and returns the batch buffer to the pool.
func (s *runScan) Close() error {
	s.stats.PagesPrefetched += s.stream.Close()
	putBatch(s.batch)
	s.batch = nil
	return nil
}

// Stats reports the grades of the buckets reached, the pages read, the
// batches produced, and the prefetch activity.
func (s *runScan) Stats() ScanStats {
	st := s.stats
	st.PagesRead, st.PrefetchHits = s.stream.Counts()
	return st
}
