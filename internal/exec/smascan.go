package exec

import (
	"context"

	"sma/internal/core"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// SMAScan is the paper's SMA_Scan operator (Fig. 6): a scan that grades
// every bucket with the selection SMAs, skips disqualifying buckets without
// touching their pages, returns the tuples of qualifying buckets without
// evaluating the predicate, and filters only inside ambivalent buckets.
//
// "The three parameters of the iterator are the relation R to be scanned,
// the predicate to be evaluated on its tuples and a set of SMAs useful for
// partitioning the buckets of R."
//
// Returned tuples alias buffer-pool memory and are valid until the next
// Next or Close call; callers that retain tuples must Copy them.
type SMAScan struct {
	H      *storage.HeapFile
	Pred   pred.Predicate
	Grader *core.Grader
	// Ctx, when set, is checked before every page read so a cancelled
	// query aborts mid-scan with the context's error.
	Ctx context.Context
	// Buckets, when non-nil, restricts the scan to the given ascending
	// bucket numbers; the parallel subsystem dispatches one partition of
	// buckets per worker this way. Grades, when non-nil, runs parallel to
	// Buckets (or to all buckets when Buckets is nil) and carries each
	// bucket's pre-computed grade, saving the grading pass in Open.
	Buckets []int
	Grades  []core.Grade
	// PrefetchWindow, when > 0, starts an asynchronous prefetcher over the
	// surviving buckets' pages. 0 keeps the legacy synchronous behaviour.
	PrefetchWindow int

	grades    []core.Grade // effective grades, one per scan position
	bucket    int          // currBucketNo (an index into Buckets when set)
	numBucket int

	grade    core.Grade
	page     storage.PageID // next page within the current bucket
	lastPage storage.PageID // last page of the current bucket
	inBucket bool
	cur      *storage.PageCursor
	pf       *storage.Prefetcher

	stats ScanStats
}

// ScanStats reports the bucket classification observed by an SMA scan,
// plus the batch and prefetch activity of the vectorized read path.
type ScanStats struct {
	Qualifying    int
	Disqualifying int
	Ambivalent    int
	PagesRead     int // heap pages fetched (disqualified buckets cost none)
	// Batches counts the tuple batches the batched operators produced
	// (0 on the legacy row path).
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
	s.Batches += o.Batches
	s.PagesPrefetched += o.PagesPrefetched
	s.PrefetchHits += o.PrefetchHits
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

// NewSMAScan creates the operator. grader must cover the heap's buckets.
func NewSMAScan(h *storage.HeapFile, p pred.Predicate, grader *core.Grader) *SMAScan {
	return &SMAScan{H: h, Pred: p, Grader: grader}
}

// Open implements the paper's init(): grade the buckets (reusing
// pre-computed grades when given) and position before bucket 0.
func (s *SMAScan) Open() error {
	if s.Pred != nil {
		if err := s.Pred.Bind(s.H.Schema()); err != nil {
			return err
		}
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
	s.cur = nil
	s.stats = ScanStats{}
	if s.PrefetchWindow > 0 {
		var spans []storage.PageSpan
		for i := 0; i < s.numBucket; i++ {
			if s.grades[i] == core.Disqualifies {
				continue
			}
			first, last := s.H.BucketRange(s.bucketAt(i))
			spans = append(spans, storage.PageSpan{First: first, Last: last})
		}
		s.pf = s.H.Pool().StartPrefetch(spans, s.PrefetchWindow)
	}
	return nil
}

// bucketAt maps a scan position to a bucket number.
func (s *SMAScan) bucketAt(i int) int {
	if s.Buckets != nil {
		return s.Buckets[i]
	}
	return i
}

// getBucket advances currBucketNo past disqualifying buckets, mirroring
// Fig. 6's getBucket subroutine ("advance currBucketNo; advance all smas;
// currGrade = grade(...)" until qualifying or ambivalent).
func (s *SMAScan) getBucket() bool {
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

// Next returns pointers to qualifying tuples, in physical order: every
// tuple of a qualifying bucket, and predicate-checked tuples of ambivalent
// buckets.
func (s *SMAScan) Next() (tuple.Tuple, bool, error) {
	for {
		if s.cur != nil {
			for {
				t, ok := s.cur.Next()
				if !ok {
					break
				}
				// "if(currGrade == qualifies) return tuple; else if
				// (pred(tuple)) return tuple".
				if s.grade == core.Qualifies || s.Pred == nil || s.Pred.Eval(t) {
					return t, true, nil
				}
			}
			if err := s.cur.Close(); err != nil {
				return tuple.Tuple{}, false, err
			}
			s.cur = nil
		}
		if s.inBucket && s.page <= s.lastPage {
			if err := ctxErr(s.Ctx); err != nil {
				return tuple.Tuple{}, false, err
			}
			if s.pf.Claim(s.page) {
				s.stats.PrefetchHits++
			}
			cur, err := s.H.OpenPage(s.page)
			if err != nil {
				return tuple.Tuple{}, false, err
			}
			s.cur = cur
			s.page++
			s.stats.PagesRead++
			s.pf.Advance()
			continue
		}
		s.inBucket = false
		if !s.getBucket() {
			return tuple.Tuple{}, false, nil
		}
	}
}

// Close unpins any current page and stops the prefetcher.
func (s *SMAScan) Close() error {
	if s.pf != nil {
		s.pf.Close()
		s.stats.PagesPrefetched += s.pf.Issued()
		s.pf = nil
	}
	if s.cur != nil {
		err := s.cur.Close()
		s.cur = nil
		return err
	}
	return nil
}

// Stats returns the bucket classification of the completed scan.
func (s *SMAScan) Stats() ScanStats { return s.stats }
