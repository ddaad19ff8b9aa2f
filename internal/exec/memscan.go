package exec

import (
	"context"
	"fmt"
	"sort"

	"sma/internal/pred"
	"sma/internal/tuple"
)

// MemRelation is an in-memory relation: the scan source for virtual system
// tables, whose snapshots are materialized at plan time rather than read
// from heap pages.
type MemRelation struct {
	Name   string
	Schema *tuple.Schema
	Tuples []tuple.Tuple
}

// MemScan scans an in-memory tuple slice as a BatchIter: the tuples are
// copied into a pooled batch and the predicate runs as the same compiled
// selection kernels, so a virtual table flows through BatchGAggr and BatchToTuples like
// a heap. It reads no pages, so its ScanStats are all zero; introspection
// queries deliberately do not pollute the page counters they report on.
type MemScan struct {
	Schema *tuple.Schema
	Tuples []tuple.Tuple
	Pred   pred.Predicate // nil means no filter
	// Ctx, when set, is checked before every batch.
	Ctx context.Context
	// Opts carries the batch size.
	Opts ExecOptions

	i     int
	sel   *selProgram
	batch *Batch
}

// NewMemScan builds a scan over an in-memory relation.
func NewMemScan(schema *tuple.Schema, tuples []tuple.Tuple, p pred.Predicate) *MemScan {
	return &MemScan{Schema: schema, Tuples: tuples, Pred: p}
}

// Open binds and compiles the predicate and leases the batch.
func (s *MemScan) Open() error {
	s.i = 0
	var err error
	if s.sel, err = compileSelect(s.Pred, s.Schema); err != nil {
		return err
	}
	s.batch = getBatch(s.Schema, s.Opts.EffectiveBatchSize())
	return nil
}

// NextBatch copies the next tuples into the batch and selects the
// qualifying ones, skipping batches whose selection comes up empty.
func (s *MemScan) NextBatch() (*Batch, error) {
	size := s.Opts.EffectiveBatchSize()
	for s.i < len(s.Tuples) {
		if err := ctxErr(s.Ctx); err != nil {
			return nil, err
		}
		b := s.batch
		b.reset()
		for ; s.i < len(s.Tuples) && b.n < size; s.i++ {
			b.data = append(b.data, s.Tuples[s.i].Data...)
			b.n++
		}
		b.selectProg(s.sel)
		if len(b.Sel) > 0 {
			return b, nil
		}
	}
	return nil, nil
}

// Close returns the batch buffer to the pool; the snapshot is
// garbage-collected.
func (s *MemScan) Close() error {
	putBatch(s.batch)
	s.batch = nil
	return nil
}

// Stats reports zero page activity (nothing is read from disk).
func (s *MemScan) Stats() ScanStats { return ScanStats{} }

// SortTuples is a materializing ORDER BY over a tuple stream: it drains
// its input on Open, sorts by the given columns (each ascending or
// descending), and replays. Only projections use it — aggregation output
// is already ordered by group key.
type SortTuples struct {
	Input  TupleIter
	Schema *tuple.Schema

	cols []int
	desc []bool
	strs []bool // per sort column: compare as string (TChar) vs numeric

	buf []tuple.Tuple
	i   int
}

// NewSortTuples resolves the sort columns against the schema.
func NewSortTuples(input TupleIter, schema *tuple.Schema, by []string, desc []bool) (*SortTuples, error) {
	s := &SortTuples{Input: input, Schema: schema}
	for i, name := range by {
		j := schema.ColumnIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("exec: ORDER BY references unknown column %q", name)
		}
		s.cols = append(s.cols, j)
		s.strs = append(s.strs, schema.Column(j).Type == tuple.TChar)
		d := false
		if i < len(desc) {
			d = desc[i]
		}
		s.desc = append(s.desc, d)
	}
	return s, nil
}

// Open drains and sorts the input. Each tuple is copied: scan iterators
// hand out tuples that alias page or batch buffers valid only until the
// next Next call, and the sort buffer outlives all of them.
func (s *SortTuples) Open() error {
	if err := s.Input.Open(); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	s.i = 0
	for {
		t, ok, err := s.Input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.buf = append(s.buf, t.Copy())
	}
	sort.SliceStable(s.buf, func(a, b int) bool {
		ta, tb := s.buf[a], s.buf[b]
		for k, j := range s.cols {
			var c int
			if s.strs[k] {
				x, y := ta.Char(j), tb.Char(j)
				switch {
				case x < y:
					c = -1
				case x > y:
					c = 1
				}
			} else {
				x, y := ta.Numeric(j), tb.Numeric(j)
				switch {
				case x < y:
					c = -1
				case x > y:
					c = 1
				}
			}
			if c == 0 {
				continue
			}
			if s.desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// Next replays the sorted buffer.
func (s *SortTuples) Next() (tuple.Tuple, bool, error) {
	if s.i >= len(s.buf) {
		return tuple.Tuple{}, false, nil
	}
	t := s.buf[s.i]
	s.i++
	return t, true, nil
}

// Close closes the input.
func (s *SortTuples) Close() error {
	s.buf = nil
	return s.Input.Close()
}
