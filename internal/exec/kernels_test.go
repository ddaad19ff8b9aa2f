package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// The tests of this file hold the batch kernels (select.go, fold.go) against
// a fold that shares no code with them: HeapFile.PageRecords one tuple at a
// time, pred.Eval, core.Extractor.Vals + MakeGroupKey, and naiveAdd's
// expr.Eval — bit for bit.

const kernelPerPage = 24

// kernelSchema has a column of every type, as argument and as group key:
// I/D/L/F/X are aggregated and grouped by, C/K/W only grouped by (K and F
// together, or W alone, are wider than the 8 bytes a packed raw key holds).
func kernelSchema() *tuple.Schema {
	const fixed = 4 + 4 + 8 + 8 + 8 + 1 + 4 + 12
	return tuple.MustSchema([]tuple.Column{
		{Name: "I", Type: tuple.TInt32},
		{Name: "D", Type: tuple.TDate},
		{Name: "L", Type: tuple.TInt64},
		{Name: "F", Type: tuple.TFloat64},
		{Name: "X", Type: tuple.TFloat64},
		{Name: "C", Type: tuple.TChar, Len: 1},
		{Name: "K", Type: tuple.TInt32},
		{Name: "W", Type: tuple.TChar, Len: 12},
		{Name: "PAD", Type: tuple.TChar, Len: testutil.RecordSize(kernelPerPage) - fixed},
	})
}

// Two encodings of NaN: one canonical group ("n:NaN"), two raw keys.
var nanA, nanB = math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc)

// loadKernelRelation fills rows records with the values the kernels must
// not get wrong: zero divisors, NaN and infinite inputs, negative zero,
// int64s beyond 2^53 (where float64 rounds: 2^53 and 2^53+1 are one value,
// so one canonical group under two raw keys), more distinct K values than
// the probe table holds, and group values that repeat in runs and alternate.
func loadKernelRelation(t testing.TB, rng *rand.Rand, rows int) *storage.HeapFile {
	t.Helper()
	schema := kernelSchema()
	h := testutil.NewHeap(t, schema, 1, 256)
	tp := tuple.NewTuple(schema)
	fs := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e300, math.Inf(1), nanA, nanB}
	ls := []int64{0, -7, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64, math.MinInt64}
	ws := []string{"", "a", "ab", "abcdefghijkl", "abcdefghijkm"}
	run := 0
	for i := 0; i < rows; i++ {
		if i%3 == 0 {
			run = rng.Intn(40)
		}
		tp.SetInt32(0, int32(rng.Intn(7)-3))
		tp.SetInt32(1, int32(9000+rng.Intn(5)))
		tp.SetInt64(2, ls[rng.Intn(len(ls))])
		if rng.Intn(3) == 0 {
			tp.SetInt64(2, rng.Int63n(2000)-1000)
		}
		tp.SetFloat64(3, fs[rng.Intn(len(fs))])
		if rng.Intn(2) == 0 {
			tp.SetFloat64(3, (rng.Float64()-0.4)*1000/3)
		}
		tp.SetFloat64(4, []float64{0, 0.25, -0.1, 3, nanA}[rng.Intn(5)])
		tp.SetChar(5, string(rune('a'+rng.Intn(3))))
		tp.SetInt32(6, int32(run)) // 40 groups, in runs of three
		tp.SetChar(7, ws[rng.Intn(len(ws))])
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// naiveFold is the reference: pages [first, end) of h, one live tuple at a
// time.
func naiveFold(t testing.TB, h *storage.HeapFile, p pred.Predicate, specs []AggSpec, groupBy []string,
	first, end storage.PageID) map[core.GroupKey]*Partial {
	t.Helper()
	var gx *core.Extractor
	if len(groupBy) > 0 {
		var err error
		if gx, err = core.NewExtractor(h.Schema(), groupBy); err != nil {
			t.Fatal(err)
		}
	}
	groups := make(map[core.GroupKey]*Partial)
	for pg := first; pg < end; pg++ {
		err := h.PageRecords(pg, func(tp tuple.Tuple, _ storage.RID) error {
			if p != nil && !testutil.EvalPred(p, tp) {
				return nil
			}
			var key core.GroupKey
			var vals []core.GroupVal
			if gx != nil {
				vals = gx.Vals(tp)
				key = core.MakeGroupKey(vals)
			}
			acc := groups[key]
			if acc == nil {
				acc = newGroupAcc(vals, len(specs))
				groups[key] = acc
			}
			naiveAdd(acc, specs, tp)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return groups
}

// kernelSpecLists are the argument shapes the value program distinguishes.
func kernelSpecLists() map[string][]AggSpec {
	col, c := expr.NewCol, expr.NewConst
	discounted := func() expr.Expr { return expr.Mul(col("F"), expr.Sub(c(1), col("X"))) }
	return map[string][]AggSpec{
		"every type": {
			{Func: AggSum, Arg: col("I")}, {Func: AggSum, Arg: col("D")}, {Func: AggSum, Arg: col("L")},
			{Func: AggSum, Arg: col("F")}, {Func: AggCount},
			{Func: AggMin, Arg: col("I")}, {Func: AggMax, Arg: col("D")}, {Func: AggMin, Arg: col("L")},
			{Func: AggMax, Arg: col("L")}, {Func: AggMin, Arg: col("F")}, {Func: AggMax, Arg: col("F")},
			{Func: AggAvg, Arg: col("L")}, {Func: AggCount, Arg: col("F")},
		},
		"shared sub-trees": { // Query 1's shape: one product under two sums, columns under sum and avg
			{Func: AggSum, Arg: col("X")},
			{Func: AggSum, Arg: discounted()},
			{Func: AggSum, Arg: expr.Mul(discounted(), expr.Add(c(1), col("I")))},
			{Func: AggAvg, Arg: col("X")},
			{Func: AggMin, Arg: discounted()},
			{Func: AggMax, Arg: expr.Sub(c(1), col("X"))},
		},
		"constants": {
			{Func: AggSum, Arg: c(0.1)}, {Func: AggMin, Arg: c(3)}, {Func: AggMax, Arg: c(-3)},
			{Func: AggAvg, Arg: expr.Div(c(1), c(3))}, // folded at compile time
			{Func: AggSum, Arg: expr.Sub(c(1), col("F"))}, {Func: AggSum, Arg: expr.Sub(col("F"), c(1))},
			{Func: AggSum, Arg: expr.Mul(c(0.1), col("I"))}, {Func: AggSum, Arg: expr.Add(col("D"), c(0.1))},
			{Func: AggMax, Arg: expr.Div(c(2), col("I"))}, {Func: AggMin, Arg: expr.Div(col("L"), c(3))},
			{Func: AggMin, Arg: c(math.NaN())},
		},
		"zero divisors and NaN": {
			{Func: AggSum, Arg: expr.Div(col("F"), col("X"))}, // x/0, 0/0, NaN/x
			{Func: AggMin, Arg: expr.Div(col("F"), col("X"))},
			{Func: AggMax, Arg: expr.Div(col("X"), col("X"))},
			{Func: AggSum, Arg: expr.Div(col("I"), c(0))},
			{Func: AggMin, Arg: col("X")}, {Func: AggMax, Arg: col("X")}, // NaN first, NaN later
			{Func: AggSum, Arg: expr.Mul(col("F"), col("L"))},
		},
	}
}

// TestFoldKernelsBitIdenticalToNaiveFold runs BatchGAggr over BatchTableScan
// for every argument shape, group key shape, batch size and page range, with
// and without a predicate and deleted records, and requires every Partial to
// equal the naive fold's in Aggs, Seen, Count and group values.
func TestFoldKernelsBitIdenticalToNaiveFold(t *testing.T) {
	groupBys := [][]string{
		nil,
		{"C"},        // CHAR(1): one packed byte
		{"I"}, {"D"}, // 4 bytes
		{"L"},           // 8 bytes; 2^53 and 2^53+1 are one group
		{"F"},           // 8 bytes; two NaN encodings are one group
		{"K"},           // 40 groups: past the probe table
		{"C", "D"},      // 5 bytes packed
		{"D", "K"},      // 8 bytes packed
		{"W"},           // 12 bytes: wide
		{"K", "F"},      // 12 bytes: wide, many groups, NaN encodings
		{"C", "L", "W"}, // 21 bytes
	}
	preds := []func() pred.Predicate{
		func() pred.Predicate { return nil },
		func() pred.Predicate {
			return pred.NewOr(pred.NewAtom("I", pred.Ge, 0), pred.NewNot(pred.NewAtom("C", pred.Eq, pred.CharConst('a'))))
		},
	}
	specLists := kernelSpecLists()
	for _, deletes := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		h := loadKernelRelation(t, rng, 60*kernelPerPage+5)
		if deletes {
			n := 0
			var rids []storage.RID
			if err := h.Scan(func(_ tuple.Tuple, rid storage.RID) error {
				if n++; n%4 == 0 || rid.Page == 7 { // page 7 ends up empty
					rids = append(rids, rid)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for _, rid := range rids {
				if err := h.Delete(rid); err != nil {
					t.Fatal(err)
				}
			}
		}
		pages := storage.PageID(h.NumPages())
		for name, specs := range specLists {
			for _, groupBy := range groupBys {
				for pi, newPred := range preds {
					// The whole relation, and the halves two workers would take.
					for _, rg := range [][2]storage.PageID{{0, pages}, {0, pages / 2}, {pages / 2, pages}} {
						refSpecs := specs
						for i := range refSpecs {
							if err := refSpecs[i].Validate(h.Schema()); err != nil {
								t.Fatal(err)
							}
						}
						refPred := newPred()
						if refPred != nil {
							if err := refPred.Bind(h.Schema()); err != nil {
								t.Fatal(err)
							}
						}
						want := naiveFold(t, h, refPred, refSpecs, groupBy, rg[0], rg[1])
						for _, batch := range []int{1, 64, 1024} { // 1: raised to one page
							what := fmt.Sprintf("deletes %v, %s, group by %v, pred %d, batch %d, pages %v",
								deletes, name, groupBy, pi, batch, rg)
							scan := NewBatchTableScan(h, newPred(), ExecOptions{BatchSize: batch, PrefetchWindow: -1})
							scan.StartPage, scan.EndPage = rg[0], rg[1]
							ga := NewBatchGAggr(scan, h.Schema(), specs, groupBy)
							ga.KeepPartials = true
							if err := ga.Open(); err != nil {
								t.Fatalf("%s: %v", what, err)
							}
							samePartials(t, what, ga.Partials(), want)
							if err := ga.Close(); err != nil {
								t.Fatal(err)
							}
							if t.Failed() {
								t.FailNow()
							}
						}
					}
				}
			}
		}
	}
}

// TestSharedSubtreesAreOneNode pins the sharing itself: Query 1's eight
// aggregates compile to nine nodes (QTY, PRICE, DISC, TAX, 1, 1-DISC,
// PRICE*(1-DISC), 1+TAX, the charge product — and nothing twice), and a
// constant sub-tree is folded away.
func TestSharedSubtreesAreOneNode(t *testing.T) {
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "QTY", Type: tuple.TFloat64}, {Name: "PRICE", Type: tuple.TFloat64},
		{Name: "DISC", Type: tuple.TFloat64}, {Name: "TAX", Type: tuple.TFloat64},
	})
	col, c := expr.NewCol, expr.NewConst
	disc := func() expr.Expr { return expr.Mul(col("PRICE"), expr.Sub(c(1), col("disc"))) } // names fold case
	specs := []AggSpec{
		{Func: AggSum, Arg: col("QTY")}, {Func: AggSum, Arg: col("PRICE")},
		{Func: AggSum, Arg: disc()}, {Func: AggSum, Arg: expr.Mul(disc(), expr.Add(c(1), col("TAX")))},
		{Func: AggAvg, Arg: col("QTY")}, {Func: AggAvg, Arg: col("PRICE")}, {Func: AggAvg, Arg: col("DISC")},
		{Func: AggCount},
	}
	f := mustFolder(t, schema, specs, nil)
	if n := f.prog.Len(); n != 9 {
		t.Errorf("Query 1 compiles to %d nodes, want 9", n)
	}
	// An Eval over one record returns one value per vector it fills.
	vectors := func(p *expr.Program) int {
		var scratch []float64
		return len(p.Eval(&scratch, make([]byte, schema.RecordSize()), schema.RecordSize(), nil, 1))
	}
	if n := vectors(&f.prog); n != 8 {
		t.Errorf("Query 1 fills %d vectors, want 8 (the constant 1 fills none)", n)
	}
	if f.arg[0] != f.arg[4] || f.arg[1] != f.arg[5] || f.arg[7] != -1 {
		t.Errorf("sum and avg of one column are different nodes: %v", f.arg)
	}
	folded := mustFolder(t, schema, []AggSpec{{Func: AggSum, Arg: expr.Mul(expr.Add(c(1), c(2)), col("QTY"))}}, nil)
	if n := vectors(&folded.prog); n != 2 {
		t.Errorf("1+2 was not folded at compile time: (1+2)*QTY fills %d vectors, want 2", n)
	}
}

// TestFoldSeesWhatOthersWroteBetweenBatches: SMA_GAggr advances the shared
// Partials from SMA entries between two ambivalent buckets, and may create
// a group the folder has not met. The folder keeps no aggregate value across
// fold calls, so the second fold continues from what was written.
func TestFoldSeesWhatOthersWroteBetweenBatches(t *testing.T) {
	b, schema := fillTestBatch(t, 90, 3)
	defer putBatch(b)
	specs := []AggSpec{
		{Func: AggSum, Arg: expr.NewCol("A")}, {Func: AggMin, Arg: expr.NewCol("B")},
		{Func: AggMax, Arg: expr.NewCol("B")}, {Func: AggCount},
	}
	for i := range specs {
		if err := specs[i].Validate(schema); err != nil {
			t.Fatal(err)
		}
	}
	fp, err := compileFold(schema, specs, []string{"G"})
	if err != nil {
		t.Fatal(err)
	}
	groups := make(map[core.GroupKey]*Partial)
	f := newGroupFolder(fp, groups)
	f.fold(b)
	// Somebody else advances group A and creates group Z.
	keyA := core.MakeGroupKey([]core.GroupVal{core.StrVal("A")})
	groups[keyA].Aggs[0] += 1000
	groups[keyA].Aggs[1] = -5
	groups[keyA].Count += 10
	keyZ := core.MakeGroupKey([]core.GroupVal{core.StrVal("Z")})
	groups[keyZ] = newGroupAcc([]core.GroupVal{core.StrVal("Z")}, len(specs))
	groups[keyZ].Aggs[0], groups[keyZ].Seen[0] = 7, true
	want := map[core.GroupKey]Partial{}
	for k, p := range groups {
		want[k] = Partial{Aggs: append([]float64(nil), p.Aggs...), Seen: append([]bool(nil), p.Seen...), Count: p.Count}
	}
	// A second batch whose records are all of group Z, then the first again.
	z, _ := fillTestBatch(t, 10, 1)
	defer putBatch(z)
	for i := int32(0); i < 10; i++ {
		z.Tuple(i).SetChar(0, "Z")
	}
	f.fold(z)
	f.fold(b)
	for _, batch := range []*Batch{z, b} {
		for _, i := range batch.Sel {
			tp := batch.Tuple(i)
			w := want[f.gx.Key(tp)]
			naiveAdd(&w, specs, tp)
			want[f.gx.Key(tp)] = w
		}
	}
	for k, w := range want {
		g := groups[k]
		if g.Count != w.Count {
			t.Errorf("group %q: count %v, want %v", k, g.Count, w.Count)
		}
		for i := range w.Aggs {
			if !sameBits(g.Aggs[i], w.Aggs[i]) || g.Seen[i] != w.Seen[i] {
				t.Errorf("group %q slot %d: %v (seen %v), want %v (seen %v)", k, i, g.Aggs[i], g.Seen[i], w.Aggs[i], w.Seen[i])
			}
		}
	}
}

// fuzzPred decodes a predicate tree over kernelSchema from fuzz bytes:
// col-const and col-col atoms over every comparable type, all six
// operators, constants around the stored values, beyond 2^53 and NaN, and
// And/Or/Not nesting.
type fuzzPred struct {
	data []byte
	pos  int
}

func (f *fuzzPred) next() int {
	if f.pos >= len(f.data) {
		return 0
	}
	f.pos++
	return int(f.data[f.pos-1])
}

func (f *fuzzPred) build(depth int) pred.Predicate {
	cols := []string{"I", "D", "L", "F", "X", "C", "K"}
	consts := []float64{0, -1, 1.5, 9002, 'a', 'b', 1 << 53, 1<<53 + 2, math.MaxInt64, -math.MaxInt64,
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 20}
	kind := f.next() % 8
	if depth >= 4 {
		kind %= 4
	}
	switch kind {
	case 0, 1, 2:
		return pred.NewAtom(cols[f.next()%len(cols)], pred.CmpOp(f.next()%6), consts[f.next()%len(consts)])
	case 3:
		return pred.NewColAtom(cols[f.next()%len(cols)], pred.CmpOp(f.next()%6), cols[f.next()%len(cols)])
	case 4, 5:
		kids := make([]pred.Predicate, f.next()%4) // zero operands included
		for i := range kids {
			kids[i] = f.build(depth + 1)
		}
		if kind == 4 {
			return pred.NewAnd(kids...)
		}
		return pred.NewOr(kids...)
	case 6:
		return pred.NewNot(f.build(depth + 1))
	default:
		return pred.True{}
	}
}

// FuzzSelectKernel: for a random predicate tree over a batch of awkward
// values, the compiled kernels' selection vector equals the pred.Eval
// loop's — ascending, no duplicates — and the batch's marks are clean again.
func FuzzSelectKernel(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 3, 0})
	f.Add(int64(2), []byte{4, 3, 0, 2, 1, 6, 6, 0, 5, 5, 10, 3, 2, 4, 3})
	f.Add(int64(3), []byte{5, 3, 6, 5, 2, 0, 3, 9, 3, 5, 0, 6, 7, 4, 0, 6, 4, 2, 0, 1, 1, 1, 2, 2})
	f.Add(int64(4), []byte{6, 6, 6, 5, 3, 1, 2, 1, 2, 1, 1, 6, 3, 3, 4, 5, 7})
	f.Add(int64(5), []byte{4, 0})
	f.Add(int64(6), []byte{5, 0})
	f.Fuzz(func(t *testing.T, seed int64, tree []byte) {
		schema := kernelSchema()
		p := (&fuzzPred{data: tree}).build(0)
		if err := p.Bind(schema); err != nil {
			t.Fatal(err)
		}
		prog, err := compileSelect(p, schema)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(70)
		b := getBatch(schema, n)
		defer putBatch(b)
		tp := tuple.NewTuple(schema)
		fs := []float64{0, math.Copysign(0, -1), 1.5, -1, 9002, nanA, nanB, math.Inf(1), 1 << 53}
		ls := []int64{0, -1, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64, math.MinInt64, 9002}
		for i := 0; i < n; i++ {
			tp.SetInt32(0, int32(rng.Intn(5)-2))
			tp.SetInt32(1, int32(9000+rng.Intn(5)))
			tp.SetInt64(2, ls[rng.Intn(len(ls))])
			tp.SetFloat64(3, fs[rng.Intn(len(fs))])
			tp.SetFloat64(4, fs[rng.Intn(len(fs))])
			tp.SetChar(5, string(rune('a'+rng.Intn(3))))
			tp.SetInt32(6, int32(rng.Intn(40)))
			b.data = append(b.data, tp.Data...)
			b.n++
		}
		var want []int32
		for i := 0; i < n; i++ {
			if testutil.EvalPred(p, b.Tuple(int32(i))) {
				want = append(want, int32(i))
			}
		}
		for round := 0; round < 2; round++ { // the second run meets the first's scratch
			b.selectProg(prog)
			if len(b.Sel) != len(want) {
				t.Fatalf("%s: selected %v, want %v", p, b.Sel, want)
			}
			for k := range want {
				if b.Sel[k] != want[k] {
					t.Fatalf("%s: selected %v, want %v", p, b.Sel, want)
				}
			}
			for i, m := range b.mark[:cap(b.mark)] {
				if m {
					t.Fatalf("%s: mark %d left set", p, i)
				}
			}
		}
	})
}
