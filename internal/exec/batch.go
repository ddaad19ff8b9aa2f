package exec

import (
	"sync"

	"sma/internal/storage"
	"sma/internal/tuple"
)

// DefaultBatchSize is the target number of tuples per batch of the
// vectorized operators. ~1k tuples amortizes the per-batch bookkeeping
// while the batch (a few hundred KB for wide schemas) stays cache-friendly.
const DefaultBatchSize = 1024

// DefaultPrefetchWindow is the least default page readahead per scan: how
// many pages the asynchronous prefetcher keeps in flight ahead of the
// cursor. A scan whose batch spans more pages reads ahead two batches (see
// ExecOptions.Readahead).
const DefaultPrefetchWindow = 16

// ExecOptions sizes the read path. The zero value means the default batch
// size and prefetch window; the engine maps its user-facing options onto it.
type ExecOptions struct {
	// BatchSize is the tuples-per-batch target; values <= 0 mean
	// DefaultBatchSize. Scans raise it to one full page.
	BatchSize int
	// PrefetchWindow is the page readahead per scan; 0 means the computed
	// default (see Readahead), negative disables prefetch.
	PrefetchWindow int
}

// EffectiveBatchSize resolves the tuples-per-batch target.
func (o ExecOptions) EffectiveBatchSize() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return DefaultBatchSize
}

// Readahead resolves the page readahead (0 = disabled) of a scan over pages
// of perPage records. An explicit window wins. The default covers two
// batches: a scan reads one batch's pages in a burst and then computes on
// them, so the readers need a second batch of room to work in during the
// computation — with less, every burst overtakes them and the scan issues
// the reads itself. The buffer pool clamps the window to half its capacity.
func (o ExecOptions) Readahead(perPage int) int {
	switch {
	case o.PrefetchWindow < 0:
		return 0
	case o.PrefetchWindow > 0:
		return o.PrefetchWindow
	}
	return max(DefaultPrefetchWindow, 2*(batchCap(o, perPage)/perPage))
}

// Batch is a column-of-records unit of batched execution: up to ~BatchSize
// fixed-width records packed contiguously, plus a selection vector naming
// the records that survived the predicate. Tuples returned by Tuple alias
// the batch's buffer, which the producing scan reuses: a batch is valid
// until the next NextBatch or Close call on its iterator.
type Batch struct {
	Schema *tuple.Schema
	// Sel lists the indexes of the selected records, ascending.
	Sel []int32

	data    []byte
	recSize int
	n       int
	rids    []storage.RID // the records' positions, when the scan collects them

	// Working memory of the selection and fold kernels. It lives here, not
	// in the operators, because batches are pooled: a statement that
	// inspects one 31-row bucket borrows the vectors the last scan grew
	// instead of allocating its own, and in steady state nothing is
	// allocated per batch.
	f64  []float64 // value vectors of the aggregate-argument program
	u64  []uint64  // packed raw group keys, one per selected record
	i32  []int32   // group ids; candidate lists of nested Or/Not predicates
	mark []bool    // record marks of nested Or/Not predicates, all false at rest

	// The run list of the scan that leased the batch, the page spans its
	// stream reads, and the stream's pin list: one batch's pages at most.
	runs  []run
	spans []storage.PageSpan
	pins  []*storage.Frame
}

// Len returns the number of decoded records (before selection).
func (b *Batch) Len() int { return b.n }

// Tuple returns record i, aliasing the batch buffer.
func (b *Batch) Tuple(i int32) tuple.Tuple {
	off := int(i) * b.recSize
	return tuple.Tuple{Schema: b.Schema, Data: b.data[off : off+b.recSize]}
}

// RID returns the heap position of record i. Only the batches of a scan
// asked for positions (BatchSMAScan.RIDs) carry them.
func (b *Batch) RID(i int32) storage.RID { return b.rids[i] }

// reset empties the batch for refilling.
func (b *Batch) reset() {
	b.data = b.data[:0]
	b.Sel = b.Sel[:0]
	b.rids = b.rids[:0]
	b.n = 0
}

// grow returns s with length n, reallocating only when the capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// batchPool recycles batch buffers across scans and partition workers, so
// steady-state batched execution allocates no per-batch memory.
var batchPool = sync.Pool{New: func() any { return &Batch{} }}

// getBatch leases a batch sized for capTuples records of schema s.
func getBatch(s *tuple.Schema, capTuples int) *Batch {
	b := batchPool.Get().(*Batch)
	b.Schema = s
	b.recSize = s.RecordSize()
	if need := capTuples * b.recSize; cap(b.data) < need {
		b.data = make([]byte, 0, need)
	}
	b.reset()
	return b
}

// putBatch returns a batch to the pool.
func putBatch(b *Batch) {
	if b != nil {
		b.Schema = nil
		batchPool.Put(b)
	}
}

// batchCap returns the record capacity of a scan batch: the configured
// batch size, raised to one full page so a page always fits.
func batchCap(opts ExecOptions, perPage int) int {
	n := opts.EffectiveBatchSize()
	if n < perPage {
		n = perPage
	}
	return n
}

// BatchIter produces tuple batches: the interface between operators.
type BatchIter interface {
	// Open initializes the iterator; it must be called before NextBatch.
	Open() error
	// NextBatch returns the next batch with a non-empty selection vector,
	// or nil at end of stream. The batch and its tuples are valid until
	// the next NextBatch or Close call.
	NextBatch() (*Batch, error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// BatchToTuples adapts a batch iterator to the TupleIter contract: the edge
// of a projection pipeline, where the cursor pulls one tuple at a time.
type BatchToTuples struct {
	Input BatchIter

	batch *Batch
	pos   int
	work  Work
}

// NewBatchToTuples wraps input.
func NewBatchToTuples(input BatchIter) *BatchToTuples {
	return &BatchToTuples{Input: input}
}

// Open opens the underlying batch iterator.
func (a *BatchToTuples) Open() error {
	a.batch, a.pos, a.work = nil, 0, Work{}
	return a.work.timed(a.Input.Open)
}

// Next returns the next selected tuple of the current batch, pulling the
// next batch when exhausted. Tuples alias the batch buffer and are valid
// until the following Next or Close call.
func (a *BatchToTuples) Next() (tuple.Tuple, bool, error) {
	for a.batch == nil || a.pos >= len(a.batch.Sel) {
		b, err := a.work.pull(a.Input)
		if err != nil {
			return tuple.Tuple{}, false, err
		}
		if b == nil {
			return tuple.Tuple{}, false, nil
		}
		a.batch, a.pos = b, 0
	}
	t := a.batch.Tuple(a.batch.Sel[a.pos])
	a.pos++
	return t, true, nil
}

// Close closes the underlying batch iterator.
func (a *BatchToTuples) Close() error {
	a.batch = nil
	return a.work.timed(a.Input.Close)
}

// Work reports the time spent in the input scan and the tuples it
// selected.
func (a *BatchToTuples) Work() Work { return a.work }
