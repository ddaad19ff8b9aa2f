package exec

import (
	"bytes"
	"sync"

	"sma/internal/core"
	"sma/internal/pred"
	"sma/internal/tuple"
)

// DefaultBatchSize is the target number of tuples per batch of the
// vectorized operators. ~1k tuples amortizes the per-batch bookkeeping
// while the batch (a few hundred KB for wide schemas) stays cache-friendly.
const DefaultBatchSize = 1024

// DefaultPrefetchWindow is the default page readahead per scan: how many
// pages the asynchronous prefetcher keeps in flight ahead of the cursor.
const DefaultPrefetchWindow = 16

// ExecOptions sizes the read path. The zero value means the default batch
// size and prefetch window; the engine maps its user-facing options onto it.
type ExecOptions struct {
	// BatchSize is the tuples-per-batch target; values <= 0 mean
	// DefaultBatchSize. Scans raise it to one full page.
	BatchSize int
	// PrefetchWindow is the page readahead per scan; 0 means
	// DefaultPrefetchWindow, negative disables prefetch.
	PrefetchWindow int
}

// EffectiveBatchSize resolves the tuples-per-batch target.
func (o ExecOptions) EffectiveBatchSize() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return DefaultBatchSize
}

// EffectivePrefetchWindow resolves the page readahead (0 = disabled).
func (o ExecOptions) EffectivePrefetchWindow() int {
	switch {
	case o.PrefetchWindow < 0:
		return 0
	case o.PrefetchWindow == 0:
		return DefaultPrefetchWindow
	default:
		return o.PrefetchWindow
	}
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
}

// Len returns the number of decoded records (before selection).
func (b *Batch) Len() int { return b.n }

// Tuple returns record i, aliasing the batch buffer.
func (b *Batch) Tuple(i int32) tuple.Tuple {
	off := int(i) * b.recSize
	return tuple.Tuple{Schema: b.Schema, Data: b.data[off : off+b.recSize]}
}

// reset empties the batch for refilling.
func (b *Batch) reset() {
	b.data = b.data[:0]
	b.Sel = b.Sel[:0]
	b.n = 0
}

// selectAll marks every record selected.
func (b *Batch) selectAll() {
	b.Sel = b.Sel[:0]
	for i := 0; i < b.n; i++ {
		b.Sel = append(b.Sel, int32(i))
	}
}

// selectPred runs the predicate over the batch in a tight loop, producing
// the selection vector.
func (b *Batch) selectPred(p pred.Predicate) {
	b.Sel = b.Sel[:0]
	rs := b.recSize
	t := tuple.Tuple{Schema: b.Schema}
	for i, off := 0, 0; i < b.n; i, off = i+1, off+rs {
		t.Data = b.data[off : off+rs]
		if p.Eval(t) {
			b.Sel = append(b.Sel, int32(i))
		}
	}
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
}

// NewBatchToTuples wraps input.
func NewBatchToTuples(input BatchIter) *BatchToTuples {
	return &BatchToTuples{Input: input}
}

// Open opens the underlying batch iterator.
func (a *BatchToTuples) Open() error {
	a.batch, a.pos = nil, 0
	return a.Input.Open()
}

// Next returns the next selected tuple of the current batch, pulling the
// next batch when exhausted. Tuples alias the batch buffer and are valid
// until the following Next or Close call.
func (a *BatchToTuples) Next() (tuple.Tuple, bool, error) {
	for a.batch == nil || a.pos >= len(a.batch.Sel) {
		b, err := a.Input.NextBatch()
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
	return a.Input.Close()
}

// groupCacheSize bounds the raw-bytes group cache. Warehouse group-bys
// (Q1 has four groups) fit comfortably; workloads with more groups fall
// through to the canonical-key map, which stays correct for any count.
const groupCacheSize = 8

// colRegion is the byte region one group-by column occupies within a
// fixed-width record.
type colRegion struct{ off, width int }

// groupRegions computes the record regions of the given column indexes
// from the schema's stored layout.
func groupRegions(s *tuple.Schema, cols []int) []colRegion {
	out := make([]colRegion, len(cols))
	for i, j := range cols {
		out[i] = colRegion{off: s.ColumnOffset(j), width: s.Column(j).Width()}
	}
	return out
}

// groupCacheEntry pairs a group's raw key bytes (the concatenated group
// columns exactly as stored) with its accumulator. Raw equality implies
// canonical-key equality, so a cache hit resolves the group without
// building the canonical key at all; raw misses (including exotic cases
// like two NaN encodings of one canonical group) fall through to the map.
type groupCacheEntry struct {
	raw []byte
	acc *Partial
}

// groupFolder folds selected batch records into per-group Partials without
// allocating per tuple. Group resolution tries a small MRU cache keyed by
// the raw group-column bytes first; on a miss the canonical key is built in
// a reused scratch buffer and looked up through the allocation-free
// []byte→string map index. Accumulation is spec-major: the batch resolves
// every tuple's accumulator once, then each aggregate spec runs as its own
// tight loop, hoisting the per-spec dispatch out of the per-tuple path.
type groupFolder struct {
	specs   []AggSpec
	gx      *core.Extractor // nil for a global aggregate
	regions []colRegion
	groups  map[core.GroupKey]*Partial

	keyBuf []byte
	cache  []groupCacheEntry // MRU order
	accs   []*Partial        // per-selected-tuple scratch, reused
}

// newGroupFolder prepares a folder over an existing groups map (shared with
// SMA-side advancement in SMA_GAggr) or a fresh one when groups is nil.
func newGroupFolder(specs []AggSpec, gx *core.Extractor, groups map[core.GroupKey]*Partial) *groupFolder {
	if groups == nil {
		groups = make(map[core.GroupKey]*Partial)
	}
	return &groupFolder{specs: specs, gx: gx, groups: groups}
}

// cachedAcc resolves the accumulator for t through the raw-bytes cache,
// falling back to (and refilling from) the canonical-key map.
func (f *groupFolder) cachedAcc(t tuple.Tuple) *Partial {
	data := t.Data
	for e := range f.cache {
		raw := f.cache[e].raw
		pos := 0
		match := true
		for _, r := range f.regions {
			if !bytes.Equal(data[r.off:r.off+r.width], raw[pos:pos+r.width]) {
				match = false
				break
			}
			pos += r.width
		}
		if match {
			acc := f.cache[e].acc
			if e != 0 {
				hit := f.cache[e]
				copy(f.cache[1:e+1], f.cache[:e])
				f.cache[0] = hit
			}
			return acc
		}
	}
	f.keyBuf = f.gx.AppendKey(f.keyBuf[:0], t)
	acc := f.groups[core.GroupKey(f.keyBuf)]
	if acc == nil {
		acc = newGroupAcc(f.gx.Vals(t), len(f.specs))
		f.groups[core.GroupKey(f.keyBuf)] = acc
	}
	raw := make([]byte, 0, 16)
	for _, r := range f.regions {
		raw = append(raw, data[r.off:r.off+r.width]...)
	}
	if len(f.cache) < groupCacheSize {
		f.cache = append(f.cache, groupCacheEntry{})
	}
	copy(f.cache[1:], f.cache[:len(f.cache)-1])
	f.cache[0] = groupCacheEntry{raw: raw, acc: acc}
	return acc
}

// fold accumulates every selected record of the batch.
func (f *groupFolder) fold(b *Batch) {
	if len(b.Sel) == 0 {
		return
	}
	// Phase 1: resolve each selected tuple's accumulator (and count it).
	if cap(f.accs) < len(b.Sel) {
		f.accs = make([]*Partial, len(b.Sel))
	}
	accs := f.accs[:len(b.Sel)]
	if f.gx == nil {
		acc := f.groups[""]
		if acc == nil {
			acc = newGroupAcc(nil, len(f.specs))
			f.groups[""] = acc
		}
		acc.Count += float64(len(b.Sel))
		for k := range accs {
			accs[k] = acc
		}
	} else {
		if f.regions == nil {
			f.regions = groupRegions(b.Schema, f.gx.Cols())
		}
		for k, i := range b.Sel {
			acc := f.cachedAcc(b.Tuple(i))
			acc.Count++
			accs[k] = acc
		}
	}
	// Phase 2: one tight loop per aggregate spec. Each group accumulates
	// its tuples in selection order, whatever the batch boundaries.
	for i := range f.specs {
		sp := &f.specs[i]
		switch sp.Func {
		case AggCount:
			for _, acc := range accs {
				acc.Aggs[i]++
				acc.Seen[i] = true
			}
		case AggSum, AggAvg:
			for k, acc := range accs {
				acc.Aggs[i] += sp.Arg.Eval(b.Tuple(b.Sel[k]))
				acc.Seen[i] = true
			}
		case AggMin:
			for k, acc := range accs {
				v := sp.Arg.Eval(b.Tuple(b.Sel[k]))
				if !acc.Seen[i] || v < acc.Aggs[i] {
					acc.Aggs[i] = v
				}
				acc.Seen[i] = true
			}
		case AggMax:
			for k, acc := range accs {
				v := sp.Arg.Eval(b.Tuple(b.Sel[k]))
				if !acc.Seen[i] || v > acc.Aggs[i] {
					acc.Aggs[i] = v
				}
				acc.Seen[i] = true
			}
		}
	}
}
