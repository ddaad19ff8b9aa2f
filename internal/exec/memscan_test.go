package exec

import (
	"context"
	"strings"
	"testing"

	"sma/internal/pred"
	"sma/internal/tuple"
)

func memFixture(t *testing.T) (*tuple.Schema, []tuple.Tuple) {
	t.Helper()
	schema, err := tuple.NewSchema([]tuple.Column{
		{Name: "K", Type: tuple.TInt64},
		{Name: "NAME", Type: tuple.TChar, Len: 4},
		{Name: "V", Type: tuple.TFloat64},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		k    int64
		name string
		v    float64
	}{
		{3, "c", 30}, {1, "a", 10}, {2, "b", 20}, {1, "d", 40},
	}
	var tuples []tuple.Tuple
	for _, r := range rows {
		tp := tuple.NewTuple(schema)
		tp.SetInt64(0, r.k)
		tp.SetChar(1, r.name)
		tp.SetFloat64(2, r.v)
		tuples = append(tuples, tp)
	}
	return schema, tuples
}

func TestMemScanAll(t *testing.T) {
	schema, tuples := memFixture(t)
	s := NewMemScan(schema, tuples, nil)
	got := drainTuples(t, NewBatchToTuples(s))
	if len(got) != 4 {
		t.Errorf("rows = %d, want 4", len(got))
	}
	if st := s.Stats(); st != (ScanStats{}) {
		t.Errorf("mem scan reported page activity: %+v", st)
	}
}

func TestMemScanPredicate(t *testing.T) {
	schema, tuples := memFixture(t)
	s := NewMemScan(schema, tuples, pred.NewAtom("K", pred.Le, 2))
	s.Opts = ExecOptions{BatchSize: 1} // four batches; the first selects nothing
	got := drainTuples(t, NewBatchToTuples(s))
	if len(got) != 3 {
		t.Fatalf("rows = %d, want 3", len(got))
	}
	for _, tp := range got {
		if tp.Int64(0) > 2 {
			t.Errorf("unfiltered row K=%d", tp.Int64(0))
		}
	}
}

func TestMemScanContextCancel(t *testing.T) {
	schema, tuples := memFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewMemScan(schema, tuples, nil)
	s.Ctx = ctx
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NextBatch(); err == nil {
		t.Error("expected context error from cancelled scan")
	}
}

func TestSortTuplesNumericAsc(t *testing.T) {
	schema, tuples := memFixture(t)
	s, err := NewSortTuples(NewBatchToTuples(NewMemScan(schema, tuples, nil)), schema, []string{"K"}, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	got := drainTuples(t, s)
	want := []int64{1, 1, 2, 3}
	for i, tp := range got {
		if tp.Int64(0) != want[i] {
			t.Errorf("row %d: K=%d, want %d", i, tp.Int64(0), want[i])
		}
	}
	// Stability: the two K=1 rows keep input order (a before d).
	if got[0].Char(1) != "a" || got[1].Char(1) != "d" {
		t.Errorf("unstable sort: %q then %q", got[0].Char(1), got[1].Char(1))
	}
}

func TestSortTuplesDescAndString(t *testing.T) {
	schema, tuples := memFixture(t)
	s, err := NewSortTuples(NewBatchToTuples(NewMemScan(schema, tuples, nil)), schema, []string{"NAME"}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	got := drainTuples(t, s)
	names := make([]string, len(got))
	for i, tp := range got {
		names[i] = tp.Char(1)
	}
	if strings.Join(names, "") != "dcba" {
		t.Errorf("order = %v", names)
	}
}

func TestSortTuplesMultiColumn(t *testing.T) {
	schema, tuples := memFixture(t)
	s, err := NewSortTuples(NewBatchToTuples(NewMemScan(schema, tuples, nil)), schema,
		[]string{"K", "V"}, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	got := drainTuples(t, s)
	// K asc, then V desc within the K=1 pair: (1,40) before (1,10).
	if got[0].Float64(2) != 40 || got[1].Float64(2) != 10 {
		t.Errorf("tie-break order: %v then %v", got[0].Float64(2), got[1].Float64(2))
	}
}

func TestSortTuplesUnknownColumn(t *testing.T) {
	schema, tuples := memFixture(t)
	_, err := NewSortTuples(NewBatchToTuples(NewMemScan(schema, tuples, nil)), schema, []string{"NOPE"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Errorf("err = %v", err)
	}
}

// TestSortTuplesCopiesInput: iterators may reuse their tuple buffer between
// Next calls; the sort buffer must not alias it.
func TestSortTuplesCopiesInput(t *testing.T) {
	schema, tuples := memFixture(t)
	src := &reusingIter{schema: schema, tuples: tuples}
	s, err := NewSortTuples(src, schema, []string{"K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drainTuples(t, s)
	if len(got) != 4 {
		t.Fatalf("rows = %d", len(got))
	}
	seen := map[int64]bool{}
	for _, tp := range got {
		seen[tp.Int64(0)] = true
	}
	if len(seen) != 3 { // keys 1, 2, 3
		t.Errorf("sorted rows alias the reused buffer: keys = %v", seen)
	}
}

// reusingIter replays tuples through one shared buffer, like a page scan.
type reusingIter struct {
	schema *tuple.Schema
	tuples []tuple.Tuple
	buf    tuple.Tuple
	i      int
}

func (r *reusingIter) Open() error {
	r.buf = tuple.NewTuple(r.schema)
	r.i = 0
	return nil
}

func (r *reusingIter) Next() (tuple.Tuple, bool, error) {
	if r.i >= len(r.tuples) {
		return tuple.Tuple{}, false, nil
	}
	copy(r.buf.Data, r.tuples[r.i].Data)
	r.i++
	return r.buf, true, nil
}

func (r *reusingIter) Close() error { return nil }

func drainTuples(t *testing.T, it TupleIter) []tuple.Tuple {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	var out []tuple.Tuple
	for {
		tp, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, tp.Copy())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}
