package exec

import (
	"testing"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// mustBindPred returns a bound predicate over the synthetic batch schema.
func mustBindPred(t *testing.T, schema *tuple.Schema) pred.Predicate {
	t.Helper()
	p := pred.NewAnd(pred.NewAtom("B", pred.Ge, 100), pred.NewAtom("A", pred.Lt, 400))
	if err := p.Bind(schema); err != nil {
		t.Fatal(err)
	}
	return p
}

// mustFolder compiles specs grouped by groupBy into a folder over a fresh
// groups map.
func mustFolder(t *testing.T, schema *tuple.Schema, specs []AggSpec, groupBy []string) *groupFolder {
	t.Helper()
	p, err := compileFold(schema, specs, groupBy)
	if err != nil {
		t.Fatal(err)
	}
	return newGroupFolder(p, nil)
}

// fillTestBatch packs n synthetic records into a leased batch: a CHAR(1)
// group column cycling through k values and two numeric columns.
func fillTestBatch(t *testing.T, n, k int) (*Batch, *tuple.Schema) {
	t.Helper()
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "G", Type: tuple.TChar, Len: 1},
		{Name: "A", Type: tuple.TFloat64},
		{Name: "B", Type: tuple.TInt32},
	})
	b := getBatch(schema, n)
	rec := tuple.NewTuple(schema)
	for i := 0; i < n; i++ {
		rec.SetChar(0, string(rune('A'+i%k)))
		rec.SetFloat64(1, float64(i)*0.5)
		rec.SetInt32(2, int32(i))
		b.data = append(b.data, rec.Data...)
		b.n++
	}
	b.selectAll()
	return b, schema
}

// naiveAdd folds one tuple into acc the plain way, spec by spec, through
// testutil.EvalExpr: the reference the vector fold is compared against.
func naiveAdd(acc *Partial, specs []AggSpec, t tuple.Tuple) {
	acc.Count++
	for i, sp := range specs {
		switch sp.Func {
		case AggCount:
			acc.Aggs[i]++
		case AggSum, AggAvg:
			acc.Aggs[i] += testutil.EvalExpr(sp.Arg, t)
		case AggMin:
			if v := testutil.EvalExpr(sp.Arg, t); !acc.Seen[i] || v < acc.Aggs[i] {
				acc.Aggs[i] = v
			}
		case AggMax:
			if v := testutil.EvalExpr(sp.Arg, t); !acc.Seen[i] || v > acc.Aggs[i] {
				acc.Aggs[i] = v
			}
		}
		acc.Seen[i] = true
	}
}

// TestGroupFolderMatchesRowAccumulation cross-checks the vector fold
// against tuple-at-a-time accumulation of the same records.
func TestGroupFolderMatchesRowAccumulation(t *testing.T) {
	b, schema := fillTestBatch(t, 500, 3)
	defer putBatch(b)
	specs := []AggSpec{
		{Func: AggSum, Arg: expr.NewCol("A"), Name: "S"},
		{Func: AggCount, Name: "N"},
		{Func: AggMin, Arg: expr.NewCol("B"), Name: "MN"},
		{Func: AggMax, Arg: expr.NewCol("B"), Name: "MX"},
	}
	for i := range specs {
		if err := specs[i].Validate(schema); err != nil {
			t.Fatal(err)
		}
	}
	folder := mustFolder(t, schema, specs, []string{"G"})
	folder.fold(b)

	want := make(map[core.GroupKey]*Partial)
	for i := 0; i < b.Len(); i++ {
		tp := b.Tuple(int32(i))
		vals := folder.gx.Vals(tp)
		key := core.MakeGroupKey(vals)
		acc := want[key]
		if acc == nil {
			acc = newGroupAcc(vals, len(specs))
			want[key] = acc
		}
		naiveAdd(acc, specs, tp)
	}
	if len(folder.groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(folder.groups), len(want))
	}
	for key, w := range want {
		g, ok := folder.groups[key]
		if !ok {
			t.Fatalf("missing group %q", key)
		}
		if g.Count != w.Count {
			t.Fatalf("group %q count %v, want %v", key, g.Count, w.Count)
		}
		for j := range w.Aggs {
			if g.Aggs[j] != w.Aggs[j] {
				t.Fatalf("group %q agg %d = %v, want %v", key, j, g.Aggs[j], w.Aggs[j])
			}
		}
	}
}

// TestBatchFoldZeroAllocs asserts the batched aggregation allocates
// nothing per batch in steady state: once every group exists and the
// batch's scratch has been sized, folding a full batch — argument vectors
// with a shared sub-tree and a constant, group ids, aggregate updates —
// runs at zero allocations, with few groups, with more groups than the
// probe table holds, and with no grouping.
func TestBatchFoldZeroAllocs(t *testing.T) {
	b, schema := fillTestBatch(t, 1024, 4)
	defer putBatch(b)
	half := func() expr.Expr { return expr.Mul(expr.NewCol("A"), expr.Sub(expr.NewConst(1), expr.NewCol("B"))) }
	specs := []AggSpec{
		{Func: AggSum, Arg: expr.NewCol("A"), Name: "S"},
		{Func: AggAvg, Arg: expr.NewCol("B"), Name: "AV"},
		{Func: AggSum, Arg: half(), Name: "H"},
		{Func: AggMin, Arg: expr.Add(half(), expr.NewConst(2)), Name: "M"},
		{Func: AggMax, Arg: expr.NewConst(3), Name: "C"},
		{Func: AggCount, Name: "N"},
	}
	for i := range specs {
		if err := specs[i].Validate(schema); err != nil {
			t.Fatal(err)
		}
	}
	folder := mustFolder(t, schema, specs, []string{"G"})
	folder.fold(b) // warm-up creates the groups and sizes the scratch buffers

	if avg := testing.AllocsPerRun(10, func() { folder.fold(b) }); avg != 0 {
		t.Fatalf("batched fold allocates %.1f times per batch of %d tuples; want 0", avg, b.Len())
	}

	// The global (no group-by) fold must be allocation-free too.
	global := mustFolder(t, schema, specs, nil)
	global.fold(b)
	if avg := testing.AllocsPerRun(10, func() { global.fold(b) }); avg != 0 {
		t.Fatalf("global batched fold allocates %.1f times per batch; want 0", avg)
	}

	// So must one whose groups (1 024 of them, 8 bytes of key and 5) miss
	// the probe table on every record and resolve through the canonical key.
	for _, cols := range [][]string{{"A"}, {"B", "G"}} {
		many := mustFolder(t, schema, specs, cols)
		many.fold(b)
		if len(many.groups) != 1024 {
			t.Fatalf("group by %v: %d groups, want 1024", cols, len(many.groups))
		}
		if avg := testing.AllocsPerRun(10, func() { many.fold(b) }); avg != 0 {
			t.Fatalf("fold into %d groups by %v allocates %.1f times per batch; want 0", len(many.groups), cols, avg)
		}
	}
}

// TestBatchSelectionZeroAllocs asserts the predicate kernels over a batch
// do not allocate once the batch's scratch has been sized: a conjunction of
// atoms, and nested Or/Not, which borrow candidate lists and marks.
func TestBatchSelectionZeroAllocs(t *testing.T) {
	b, schema := fillTestBatch(t, 1024, 4)
	defer putBatch(b)
	nested := pred.NewOr(mustBindPred(t, schema),
		pred.NewNot(pred.NewOr(pred.NewAtom("G", pred.Eq, pred.CharConst('A')), pred.NewColAtom("A", pred.Lt, "B"))))
	for _, bound := range []pred.Predicate{mustBindPred(t, schema), nested} {
		if err := bound.Bind(schema); err != nil {
			t.Fatal(err)
		}
		p, err := compileSelect(bound, schema)
		if err != nil {
			t.Fatal(err)
		}
		b.selectProg(p) // sizes the scratch
		if len(b.Sel) == 0 || len(b.Sel) == b.Len() {
			t.Fatalf("%s selects %d of %d records: not a test", bound, len(b.Sel), b.Len())
		}
		if avg := testing.AllocsPerRun(10, func() { b.selectProg(p) }); avg != 0 {
			t.Fatalf("selecting %s allocates %.1f times per batch; want 0", bound, avg)
		}
	}
}
