package exec

import (
	"context"

	"sma/internal/core"
	"sma/internal/pred"
	"sma/internal/storage"
)

// BatchTableScan reads every page of its range in physical order — the
// baseline the paper's "Query 1 without SMAs" runs on. It decodes pages into
// a reusable batch (one memcpy per page when no records are deleted), runs
// the predicate, compiled into per-atom compare kernels, over the batch to
// produce a selection vector, and — unless prefetch is disabled — streams
// the pages of its range into the buffer pool two batches ahead of the
// cursor. No page stays pinned between calls.
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

	page  storage.PageID
	end   storage.PageID
	cap   int
	sel   *selProgram
	batch *Batch
	pf    *storage.Prefetcher
	stats ScanStats
}

// NewBatchTableScan creates a batched full scan with an optional filter.
func NewBatchTableScan(h *storage.HeapFile, p pred.Predicate, opts ExecOptions) *BatchTableScan {
	return &BatchTableScan{H: h, Pred: p, Opts: opts}
}

// Open binds and compiles the predicate, leases the batch, and starts the
// prefetcher over the scan's page range.
func (s *BatchTableScan) Open() error {
	var err error
	if s.sel, err = compileSelect(s.Pred, s.H.Schema()); err != nil {
		return err
	}
	s.page = s.StartPage
	s.end = s.EndPage
	if s.end == 0 || int64(s.end) > s.H.NumPages() {
		s.end = storage.PageID(s.H.NumPages())
	}
	s.cap = batchCap(s.Opts, s.H.RecordsPerPage())
	s.batch = getBatch(s.H.Schema(), s.cap)
	s.stats = ScanStats{}
	if w := s.Opts.Readahead(s.H.RecordsPerPage()); w > 0 && s.page < s.end {
		span := []storage.PageSpan{{First: s.page, Last: s.end - 1}}
		s.pf = s.H.Pool().StartPrefetch(span, w)
	}
	return nil
}

// NextBatch fills the batch from the next pages of the range and selects
// the qualifying tuples. It skips over batches whose selection comes up
// empty, so a returned batch always carries at least one selected tuple.
func (s *BatchTableScan) NextBatch() (*Batch, error) {
	per := s.H.RecordsPerPage()
	for {
		b := s.batch
		b.reset()
		for s.page < s.end && b.n+per <= s.cap {
			if err := ctxErr(s.Ctx); err != nil {
				return nil, err
			}
			if s.pf.Claim(s.page) {
				s.stats.PrefetchHits++
			}
			data, n, err := s.H.ReadPageInto(s.page, b.data)
			if err != nil {
				return nil, err
			}
			b.data, b.n = data, b.n+n
			s.page++
			s.stats.PagesRead++
			s.pf.Advance()
		}
		if b.n == 0 {
			return nil, nil
		}
		s.stats.Batches++
		b.selectProg(s.sel)
		if len(b.Sel) > 0 {
			return b, nil
		}
	}
}

// Close stops the prefetcher and returns the batch buffer to the pool.
func (s *BatchTableScan) Close() error {
	if s.pf != nil {
		s.pf.Close()
		s.stats.PagesPrefetched += s.pf.Issued()
		s.pf = nil
	}
	putBatch(s.batch)
	s.batch = nil
	return nil
}

// Stats reports pages read, batches produced, and prefetch activity.
func (s *BatchTableScan) Stats() ScanStats { return s.stats }

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
	// Buckets, when non-nil, restricts the scan to the given ascending
	// bucket numbers (one partition of the parallel subsystem); Grades,
	// when non-nil, runs parallel to Buckets (or to all buckets) and
	// carries pre-computed grades, saving the grading pass in Open.
	Buckets []int
	Grades  []core.Grade
	// Opts carries the batch size and prefetch window.
	Opts ExecOptions

	grades    []core.Grade // effective grades, one per scan position
	bucket    int          // next scan position
	numBucket int

	grade    core.Grade
	page     storage.PageID
	lastPage storage.PageID
	inBucket bool

	cap   int
	sel   *selProgram
	batch *Batch
	pf    *storage.Prefetcher
	stats ScanStats
}

// GradeBuckets returns one grade per scan position — the buckets listed in
// buckets, or buckets 0..nb-1 when it is nil — from a single GradeAll pass
// over the grader's SMA vectors. A nil predicate qualifies every bucket; a
// bucket the SMAs do not cover is Ambivalent (core.PadGrades).
func GradeBuckets(g *core.Grader, p pred.Predicate, buckets []int, nb int) []core.Grade {
	if buckets != nil {
		nb = len(buckets)
	}
	if p == nil {
		out := make([]core.Grade, nb)
		for i := range out {
			out[i] = core.Qualifies
		}
		return out
	}
	all := g.GradeAll(p)
	if buckets == nil {
		return core.PadGrades(all, nb)
	}
	out := make([]core.Grade, nb)
	for i, b := range buckets {
		if b < len(all) {
			out[i] = all[b]
		}
	}
	return out
}

// NewBatchSMAScan creates the operator. grader must cover the heap's
// buckets unless pre-computed Grades are supplied.
func NewBatchSMAScan(h *storage.HeapFile, p pred.Predicate, grader *core.Grader, opts ExecOptions) *BatchSMAScan {
	return &BatchSMAScan{H: h, Pred: p, Grader: grader, Opts: opts}
}

// bucketAt maps a scan position to a bucket number.
func (s *BatchSMAScan) bucketAt(i int) int {
	if s.Buckets != nil {
		return s.Buckets[i]
	}
	return i
}

// Open binds and compiles the predicate, grades the buckets (reusing
// pre-computed grades when given), and hands the surviving page list to the
// prefetcher.
func (s *BatchSMAScan) Open() error {
	var err error
	if s.sel, err = compileSelect(s.Pred, s.H.Schema()); err != nil {
		return err
	}
	s.bucket = 0
	if s.Buckets != nil {
		s.numBucket = len(s.Buckets)
	} else {
		s.numBucket = s.H.NumBuckets()
	}
	s.grades = s.Grades
	if s.grades == nil {
		s.grades = GradeBuckets(s.Grader, s.Pred, s.Buckets, s.numBucket)
	}
	s.inBucket = false
	s.cap = batchCap(s.Opts, s.H.RecordsPerPage())
	s.batch = getBatch(s.H.Schema(), s.cap)
	s.stats = ScanStats{}
	if w := s.Opts.Readahead(s.H.RecordsPerPage()); w > 0 {
		var spans []storage.PageSpan
		for i := 0; i < s.numBucket; i++ {
			if s.grades[i] == core.Disqualifies {
				continue
			}
			first, last := s.H.BucketRange(s.bucketAt(i))
			spans = append(spans, storage.PageSpan{First: first, Last: last})
		}
		s.pf = s.H.Pool().StartPrefetch(spans, w)
	}
	return nil
}

// getBucket advances past disqualifying buckets to the next surviving one,
// mirroring Fig. 6's getBucket subroutine.
func (s *BatchSMAScan) getBucket() bool {
	for ; s.bucket < s.numBucket; s.bucket++ {
		grade := s.grades[s.bucket]
		switch grade {
		case core.Disqualifies:
			s.stats.Disqualifying++
			continue // skipped without reading any page
		case core.Qualifies:
			s.stats.Qualifying++
		default:
			s.stats.Ambivalent++
		}
		s.grade = grade
		s.page, s.lastPage = s.H.BucketRange(s.bucketAt(s.bucket))
		s.inBucket = true
		s.bucket++
		return true
	}
	return false
}

// NextBatch fills the batch from surviving buckets. A batch never mixes
// qualifying pages (no predicate needed) with ambivalent pages (predicate
// kernels), so the selection step is decided once per batch.
func (s *BatchSMAScan) NextBatch() (*Batch, error) {
	per := s.H.RecordsPerPage()
	for {
		b := s.batch
		b.reset()
		filtered := false
		for {
			if !s.inBucket {
				if !s.getBucket() {
					break
				}
			}
			needPred := s.Pred != nil && s.grade != core.Qualifies
			if b.n > 0 && needPred != filtered {
				break // grade class changed: flush the batch first
			}
			filtered = needPred
			for s.page <= s.lastPage && b.n+per <= s.cap {
				if err := ctxErr(s.Ctx); err != nil {
					return nil, err
				}
				if s.pf.Claim(s.page) {
					s.stats.PrefetchHits++
				}
				data, n, err := s.H.ReadPageInto(s.page, b.data)
				if err != nil {
					return nil, err
				}
				b.data, b.n = data, b.n+n
				s.page++
				s.stats.PagesRead++
				s.pf.Advance()
			}
			if s.page > s.lastPage {
				s.inBucket = false
			}
			if b.n+per > s.cap {
				break // full
			}
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

// Close stops the prefetcher and returns the batch buffer to the pool.
func (s *BatchSMAScan) Close() error {
	if s.pf != nil {
		s.pf.Close()
		s.stats.PagesPrefetched += s.pf.Issued()
		s.pf = nil
	}
	putBatch(s.batch)
	s.batch = nil
	return nil
}

// Stats returns the bucket classification and page/prefetch counters.
func (s *BatchSMAScan) Stats() ScanStats { return s.stats }
