package exec

import (
	"time"

	"sma/internal/obs"
)

// This file adapts the iterator interfaces to the obs span tree: each
// wrapper accumulates the wall time spent inside its operator's calls
// (not the time the operator sat idle in the pipeline), counts the
// rows/batches it yields, and — for stats-reporting operators — copies
// the final ScanStats into the span when the operator closes, attaching
// a "prefetch" child span carrying the readahead counters. Every
// constructor returns the input unchanged when the span is nil, so the
// disabled path adds no wrapping at all.

// TraceRowIter instruments a RowIter with sp; nil sp is the identity.
func TraceRowIter(it RowIter, sp *obs.Span) RowIter {
	if sp == nil {
		return it
	}
	return &tracedRowIter{inner: it, sp: sp}
}

type tracedRowIter struct {
	inner  RowIter
	sp     *obs.Span
	closed bool
}

func (t *tracedRowIter) Open() error {
	start := time.Now()
	err := t.inner.Open()
	t.sp.AddTime(time.Since(start))
	return err
}

func (t *tracedRowIter) Next() (Row, bool, error) {
	start := time.Now()
	r, ok, err := t.inner.Next()
	t.sp.AddTime(time.Since(start))
	if ok {
		t.sp.AddRows(1)
	}
	return r, ok, err
}

func (t *tracedRowIter) Close() error {
	start := time.Now()
	err := t.inner.Close()
	t.sp.AddTime(time.Since(start))
	t.finishSpan()
	return err
}

func (t *tracedRowIter) finishSpan() {
	if t.closed {
		return
	}
	t.closed = true
	spanCopyStats(t.sp, t.inner)
	t.sp.End()
}

// Stats forwards the inner operator's stats so the wrapper is
// transparent to the plan's stats plumbing.
func (t *tracedRowIter) Stats() ScanStats {
	if sr, ok := t.inner.(StatsReporter); ok {
		return sr.Stats()
	}
	return ScanStats{}
}

// TraceBatchIter instruments a BatchIter with sp; nil sp is the
// identity.
func TraceBatchIter(it BatchIter, sp *obs.Span) BatchIter {
	if sp == nil {
		return it
	}
	return &tracedBatchIter{inner: it, sp: sp}
}

type tracedBatchIter struct {
	inner  BatchIter
	sp     *obs.Span
	closed bool
}

func (t *tracedBatchIter) Open() error {
	start := time.Now()
	err := t.inner.Open()
	t.sp.AddTime(time.Since(start))
	return err
}

func (t *tracedBatchIter) NextBatch() (*Batch, error) {
	start := time.Now()
	b, err := t.inner.NextBatch()
	t.sp.AddTime(time.Since(start))
	if b != nil {
		t.sp.AddRows(int64(len(b.Sel)))
	}
	return b, err
}

func (t *tracedBatchIter) Close() error {
	start := time.Now()
	err := t.inner.Close()
	t.sp.AddTime(time.Since(start))
	if !t.closed {
		t.closed = true
		spanCopyStats(t.sp, t.inner)
		t.sp.End()
	}
	return err
}

func (t *tracedBatchIter) Stats() ScanStats {
	if sr, ok := t.inner.(StatsReporter); ok {
		return sr.Stats()
	}
	return ScanStats{}
}

// spanCopyStats copies an operator's final ScanStats into its span and
// hangs the readahead counters off a "prefetch" child, so the trace tree
// mirrors the paper's pipeline: grading outcomes and page I/O on the
// scan node, prefetch traffic one level below it.
func spanCopyStats(sp *obs.Span, op any) {
	sr, ok := op.(StatsReporter)
	if !ok {
		return
	}
	st := sr.Stats()
	sp.AddPages(int64(st.PagesRead), 0, 0)
	sp.AddGrades(int64(st.Qualifying), int64(st.Disqualifying), int64(st.Ambivalent))
	sp.AddBatches(int64(st.Batches))
	if st.PagesPrefetched > 0 || st.PrefetchHits > 0 {
		pf := sp.Child("prefetch")
		pf.AddPages(0, int64(st.PagesPrefetched), int64(st.PrefetchHits))
		pf.AddTime(0) // asynchronous readers; wall time is not attributable
		pf.End()
	}
}
