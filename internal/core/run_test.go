package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// runSchema has a column of every numeric width, two group-by columns and
// padding that puts seven records on a page.
func runSchema() *tuple.Schema {
	return tuple.MustSchema([]tuple.Column{
		{Name: "I", Type: tuple.TInt32}, {Name: "L", Type: tuple.TInt64},
		{Name: "F", Type: tuple.TFloat64}, {Name: "D", Type: tuple.TDate},
		{Name: "K", Type: tuple.TChar, Len: 1}, {Name: "N", Type: tuple.TInt32},
		{Name: "PAD", Type: tuple.TChar, Len: 550},
	})
}

// runDefs covers the four aggregates over every entry width (i32 for dates,
// int32 columns and counts, i64 for an int64 column, f64 for the rest),
// ungrouped, grouped by one column and by two, and an expression argument.
func runDefs() []core.Def {
	col := expr.NewCol
	var defs []core.Def
	for _, by := range [][]string{nil, {"K"}, {"K", "N"}} {
		tag := fmt.Sprint(len(by))
		for _, a := range []core.AggKind{core.Min, core.Max, core.Sum} {
			for _, c := range []string{"I", "L", "F", "D"} {
				defs = append(defs, core.NewDef(a.String()+c+tag, "T", a, col(c), by...))
			}
			defs = append(defs, core.NewDef(a.String()+"x"+tag, "T", a,
				expr.Mul(col("F"), expr.Sub(expr.NewConst(1), col("I"))), by...))
		}
		defs = append(defs, core.NewDef("n"+tag, "T", core.Count, nil, by...))
	}
	return defs
}

// randomRecord fills a record with values chosen to make float addition
// order visible (non-dyadic fractions, mixed magnitudes) and groups that are
// few at first and grow: key 'E' and N = 3 do not occur in the first rows.
func randomRecord(rng *rand.Rand, s *tuple.Schema, i int) tuple.Tuple {
	t := tuple.NewTuple(s)
	t.SetInt32(0, int32(rng.Intn(2001)-1000))
	t.SetInt64(1, rng.Int63n(1<<40)-1<<39)
	t.SetFloat64(2, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(9)-2))+0.1)
	t.SetInt32(3, int32(9000+rng.Intn(3000)))
	keys, ns := 4, 3
	if i > 40 {
		keys, ns = 5, 4
	}
	t.SetChar(4, string(rune('A'+rng.Intn(keys))))
	t.SetInt32(5, int32(rng.Intn(ns)))
	t.SetChar(6, "p")
	return t
}

// refEntry is one (group, bucket) entry of the row-at-a-time reference, its
// value held as Vector.Get returns it.
type refEntry struct {
	present bool
	v       float64
}

// refStep folds one row into an entry the way one OnAppend did before there
// was a run kernel: the first row of an absent entry sets it, every later
// one steps it in float64 and narrows the result to the entry's width.
func refStep(e *refEntry, elem core.ElemType, agg core.AggKind, v float64) {
	narrow := func(x float64) float64 {
		switch elem {
		case core.EInt32:
			return float64(int32(x))
		case core.EInt64:
			return float64(int64(x))
		}
		return x
	}
	switch {
	case !e.present && agg == core.Count:
		e.present, e.v = true, 1
	case !e.present:
		e.present, e.v = true, narrow(v)
	case agg == core.Min && v < e.v, agg == core.Max && v > e.v:
		e.v = narrow(v)
	case agg == core.Sum:
		e.v = narrow(e.v + v)
	case agg == core.Count:
		e.v = narrow(e.v + 1)
	}
}

// reference folds every live record of h into per-(group, bucket) entries,
// one row at a time in physical order.
func reference(t *testing.T, h *storage.HeapFile, s *core.SMA) map[core.GroupKey][]refEntry {
	t.Helper()
	gx, err := core.NewExtractor(h.Schema(), s.Def.GroupBy)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[core.GroupKey][]refEntry)
	if err := h.Scan(func(tp tuple.Tuple, rid storage.RID) error {
		key := gx.Key(tp)
		if out[key] == nil {
			out[key] = make([]refEntry, h.NumBuckets())
		}
		v := 0.0
		if s.Def.Expr != nil {
			v = testutil.EvalExpr(s.Def.Expr, tp)
		}
		refStep(&out[key][h.BucketOf(rid.Page)], s.ElemType(), s.Def.Agg, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameAsReference holds s to the reference bit for bit: every group the
// heap has, present exactly where the reference is and with the same
// float64 bits; groups only s knows (they died out) present nowhere.
func sameAsReference(t *testing.T, when string, h *storage.HeapFile, s *core.SMA) {
	t.Helper()
	want := reference(t, h, s)
	if s.NumBuckets != h.NumBuckets() {
		t.Fatalf("%s: sma %s has %d buckets, heap %d", when, s.Def.Name, s.NumBuckets, h.NumBuckets())
	}
	for key, entries := range want {
		g := s.Group(key)
		if g == nil {
			t.Fatalf("%s: sma %s misses group %q", when, s.Def.Name, key)
		}
		for b, e := range entries {
			v, present := g.ValueAt(b)
			if present != e.present || present && math.Float64bits(v) != math.Float64bits(e.v) {
				t.Fatalf("%s: sma %s group %q bucket %d = %v (present %v), row-at-a-time reference %v (present %v)",
					when, s.Def.Name, key, b, v, present, e.v, e.present)
			}
		}
	}
	for _, key := range s.GroupKeys() {
		if _, ok := want[key]; ok {
			continue
		}
		for b := 0; b < s.NumBuckets; b++ {
			if _, present := s.Group(key).ValueAt(b); present {
				t.Fatalf("%s: sma %s group %q present in bucket %d, the heap has no such row", when, s.Def.Name, key, b)
			}
		}
	}
}

// TestRunKernelEqualsRowHooks: maintaining SMAs run-wise (statements of
// random length appended a page run at a time, as the engine's journal
// does), row-wise (OnAppend), by statements of updates and deletes each
// followed by the refold of the buckets it touched, and by bulk load
// (Build, BuildMany, Refold of every bucket, with deleted slots to skip)
// yields vectors and presence bitmaps == to a row-at-a-time reference, float
// bits included — all four aggregates, every entry width, grouped and not,
// groups first met mid-run, BucketPages 1 and 4, and a table that ends
// exactly on a bucket boundary.
func TestRunKernelEqualsRowHooks(t *testing.T) {
	for _, bucketPages := range []int{1, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			schema := runSchema()
			h := testutil.NewHeap(t, schema, bucketPages, 64)
			perBucket := h.RecordsPerPage() * bucketPages
			total := perBucket * (3 + rng.Intn(3)) // ends exactly on a bucket boundary
			if seed%2 == 0 {
				total += 1 + rng.Intn(perBucket-1) // or inside one
			}
			runwise, err := core.BuildMany(h, runDefs())
			if err != nil {
				t.Fatal(err)
			}
			rowwise, err := core.BuildMany(h, runDefs())
			if err != nil {
				t.Fatal(err)
			}
			rs := schema.RecordSize()
			for done := 0; done < total; {
				// One statement: 1..2.5 pages of records in one buffer.
				n := min(1+rng.Intn(5*h.RecordsPerPage()/2), total-done)
				recs := make([]byte, 0, n*rs)
				for i := 0; i < n; i++ {
					recs = append(recs, randomRecord(rng, schema, done+i).Data...)
				}
				for rest := recs; len(rest) > 0; {
					rid, placed, err := h.AppendRun(rest)
					if err != nil {
						t.Fatal(err)
					}
					run := rest[:placed*rs]
					for _, s := range runwise {
						if err := s.AppendRun(h.BucketOf(rid.Page), run); err != nil {
							t.Fatal(err)
						}
					}
					for i := 0; i < placed; i++ {
						tp := tuple.Tuple{Schema: schema, Data: run[i*rs : (i+1)*rs]}
						for _, s := range rowwise {
							if err := s.OnAppend(h, tp, storage.RID{Page: rid.Page, Slot: rid.Slot + i}); err != nil {
								t.Fatal(err)
							}
						}
					}
					rest = rest[placed*rs:]
				}
				done += n
			}
			when := fmt.Sprintf("bucketPages %d seed %d, %d rows", bucketPages, seed, total)
			for i, s := range runwise {
				sameAsReference(t, when+", run-wise appends", h, s)
				sameAsReference(t, when+", row-wise appends", h, rowwise[i])
			}

			// Statements of updates and deletes, as the engine's journal runs
			// them: the heap changes row by row, then every bucket the
			// statement touched is refolded once. Updates may move a row to
			// another group, or to one the SMAs have never seen.
			for stmt := 0; stmt < 8; stmt++ {
				var touched []int
				for k := 1 + rng.Intn(3*h.RecordsPerPage()); k > 0; k-- {
					rid := storage.RID{Page: storage.PageID(rng.Int63n(h.NumPages())), Slot: rng.Intn(h.RecordsPerPage())}
					if _, err := h.Get(rid); err != nil {
						continue // deleted, or a slot past the last page's end
					}
					if rng.Intn(2) == 0 {
						err = h.Delete(rid)
					} else {
						err = h.Update(rid, randomRecord(rng, schema, total))
					}
					if err != nil {
						t.Fatal(err)
					}
					touched = append(touched, h.BucketOf(rid.Page))
				}
				slices.Sort(touched)
				if err := core.Refold(h, runwise, slices.Compact(touched)); err != nil {
					t.Fatal(err)
				}
				for _, s := range runwise {
					sameAsReference(t, fmt.Sprintf("%s, update/delete statement %d", when, stmt), h, s)
				}
			}

			// Delete a fifth of the rows, among them every row of one page,
			// under the SMAs' feet: bulk loads and bucket refolds must skip
			// the dead slots.
			for p := int64(0); p < h.NumPages(); p++ {
				for slot := 0; slot < h.RecordsPerPage(); slot++ {
					if p != 1 && rng.Intn(5) != 0 {
						continue
					}
					rid := storage.RID{Page: storage.PageID(p), Slot: slot}
					if _, err := h.Get(rid); err != nil {
						continue // deleted already, or past the last page's end
					}
					if err := h.Delete(rid); err != nil {
						t.Fatal(err)
					}
				}
			}
			built, err := core.BuildMany(h, runDefs())
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range runwise {
				sameAsReference(t, when+", BuildMany after deletes", h, built[i])
				one, err := core.Build(h, s.Def)
				if err != nil {
					t.Fatal(err)
				}
				sameAsReference(t, when+", Build after deletes", h, one)
			}
			all := make([]int, h.NumBuckets())
			for b := range all {
				all[b] = b
			}
			if err := core.Refold(h, runwise, all); err != nil {
				t.Fatal(err)
			}
			for _, s := range runwise {
				sameAsReference(t, when+", Refold of every bucket after deletes", h, s)
			}
		}
	}
}
