package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// refProjected is one SMA-file with the query-level group it rolls up into,
// as the reference fold resolves it.
type refProjected struct {
	gf   *core.GroupFile
	key  core.GroupKey
	vals []core.GroupVal
}

func refProject(t *testing.T, s *core.SMA, groupBy []string) []refProjected {
	t.Helper()
	var out []refProjected
	err := s.Groups(func(gf *core.GroupFile) error {
		vals := make([]core.GroupVal, len(groupBy))
		for i, q := range groupBy {
			found := -1
			for j, c := range s.Def.GroupBy {
				if strings.EqualFold(q, c) {
					found = j
				}
			}
			if found < 0 {
				return fmt.Errorf("sma %s does not cover %s", s.Def.Name, q)
			}
			vals[i] = gf.Vals[found]
		}
		out = append(out, refProjected{gf: gf, key: core.MakeGroupKey(vals), vals: vals})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceFold is the bucket-major map fold SMA_GAggr used before it
// became a run-wise vector fold, kept as the test's reference: one bucket
// at a time, one map lookup per present SMA entry, ambivalent buckets tuple
// by tuple. Every accumulator therefore receives its contributions in
// ascending bucket order, SMA-file order within a bucket.
func referenceFold(t *testing.T, h *storage.HeapFile, p pred.Predicate, specs []AggSpec, groupBy []string,
	aggSMAs []*core.SMA, countSMA *core.SMA, buckets []int, grades []core.Grade) (map[core.GroupKey]*Partial, ScanStats) {
	t.Helper()
	groups := make(map[core.GroupKey]*Partial)
	acc := func(key core.GroupKey, vals []core.GroupVal) *Partial {
		a := groups[key]
		if a == nil {
			a = newGroupAcc(vals, len(specs))
			groups[key] = a
		}
		return a
	}
	projected := make([][]refProjected, len(specs))
	for i, s := range aggSMAs {
		projected[i] = refProject(t, s, groupBy)
	}
	var countProj []refProjected
	if countSMA != nil {
		countProj = refProject(t, countSMA, groupBy)
	}
	var gx *core.Extractor
	if len(groupBy) > 0 {
		var err error
		if gx, err = core.NewExtractor(h.Schema(), groupBy); err != nil {
			t.Fatal(err)
		}
	}
	var stats ScanStats
	for i, grade := range grades {
		b := i
		if buckets != nil {
			b = buckets[i]
		}
		switch grade {
		case core.Disqualifies:
			stats.Disqualifying++
			first, last := h.BucketRange(b)
			stats.PagesPruned += int(last-first) + 1
		case core.Qualifies:
			stats.Qualifying++
			for i := range specs {
				for _, pg := range projected[i] {
					v, ok := pg.gf.ValueAt(b)
					if !ok {
						continue
					}
					a := acc(pg.key, pg.vals)
					switch specs[i].Func {
					case AggCount, AggSum, AggAvg:
						a.Aggs[i] += v
					case AggMin:
						if !a.Seen[i] || v < a.Aggs[i] {
							a.Aggs[i] = v
						}
					case AggMax:
						if !a.Seen[i] || v > a.Aggs[i] {
							a.Aggs[i] = v
						}
					}
					a.Seen[i] = true
				}
			}
			for _, pg := range countProj {
				if v, ok := pg.gf.ValueAt(b); ok {
					acc(pg.key, pg.vals).Count += v
				}
			}
		default:
			stats.Ambivalent++
			first, last := h.BucketRange(b)
			stats.PagesRead += int(last-first) + 1
			err := testutil.BucketRecords(h, b, func(tp tuple.Tuple, _ storage.RID) error {
				if p != nil && !testutil.EvalPred(p, tp) {
					return nil
				}
				var key core.GroupKey
				var vals []core.GroupVal
				if gx != nil {
					vals = gx.Vals(tp)
					key = core.MakeGroupKey(vals)
				}
				naiveAdd(acc(key, vals), specs, tp)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return groups, stats
}

// foldSchema: F drives the grading, G1/G2 the grouping, and VF/VI/VD are
// aggregated (min/max SMAs over them have f64, i64 and i32 entries).
func foldSchema(perPage int) *tuple.Schema {
	const fixed = 8 + 1 + 1 + 8 + 8 + 4
	return tuple.MustSchema([]tuple.Column{
		{Name: "F", Type: tuple.TFloat64},
		{Name: "G1", Type: tuple.TChar, Len: 1},
		{Name: "G2", Type: tuple.TChar, Len: 1},
		{Name: "VF", Type: tuple.TFloat64},
		{Name: "VI", Type: tuple.TInt64},
		{Name: "VD", Type: tuple.TInt32},
		{Name: "PAD", Type: tuple.TChar, Len: testutil.RecordSize(perPage) - fixed},
	})
}

// foldSMAs are the SMAs of one grouping, by "<agg>_<column>", plus "count"
// and the selection SMAs "fmin" and "fmax".
type foldSMAs map[string]*core.SMA

// buildFoldSMAs bulkloads the aggregate SMAs grouped by smaGroupBy and the
// ungrouped min/max selection SMAs on F.
func buildFoldSMAs(t testing.TB, h *storage.HeapFile, smaGroupBy []string) foldSMAs {
	t.Helper()
	names := []string{"fmin", "fmax", "count"}
	defs := []core.Def{
		core.NewDef("fmin", "T", core.Min, expr.NewCol("F")),
		core.NewDef("fmax", "T", core.Max, expr.NewCol("F")),
		core.NewDef("count", "T", core.Count, nil, smaGroupBy...),
	}
	for _, col := range []string{"VF", "VI", "VD"} {
		for _, agg := range []core.AggKind{core.Sum, core.Min, core.Max} {
			name := agg.String() + "_" + col
			names = append(names, name)
			defs = append(defs, core.NewDef(name, "T", agg, expr.NewCol(col), smaGroupBy...))
		}
	}
	built, err := core.BuildMany(h, defs)
	if err != nil {
		t.Fatal(err)
	}
	m := make(foldSMAs)
	for i, s := range built {
		m[names[i]] = s
	}
	return m
}

// loadFoldRelation fills a heap of 4-tuple buckets whose groups cover the
// presence patterns the range kernels distinguish: one group in every
// bucket (all-present words), one in every seventh (sparse words), one only
// in buckets [100, 140) (a stretch across the 128 word edge between
// all-absent words), one in a random half. F rises with the bucket number
// except in scattered wide buckets, so a cutoff on F grades long qualifying
// and disqualifying runs with ambivalent buckets strewn in.
func loadFoldRelation(t testing.TB, rng *rand.Rand, buckets int) *storage.HeapFile {
	t.Helper()
	const perPage = 4
	schema := foldSchema(perPage)
	h := testutil.NewHeap(t, schema, 1, 64)
	tp := tuple.NewTuple(schema)
	for b := 0; b < buckets; b++ {
		wide := rng.Intn(10) == 0
		for k := 0; k < perPage; k++ {
			g1, g2 := "a", "x"
			switch {
			case k == 0:
			case k == 1 && b%7 == 0:
				g1 = "b"
			case k == 2 && b >= 100 && b < 140:
				g1, g2 = "b", "y"
			case k == 3 && rng.Intn(2) == 0:
				g1, g2 = "c", "y"
			case rng.Intn(2) == 0:
				g2 = "y"
			}
			f := float64(b*10) + rng.Float64()*5
			if wide && k == 0 {
				f = rng.Float64() * float64(buckets*10)
			}
			tp.SetFloat64(0, f)
			tp.SetChar(1, g1)
			tp.SetChar(2, g2)
			tp.SetFloat64(3, (rng.Float64()-0.3)*1000/3) // non-dyadic, mixed sign
			tp.SetInt64(4, rng.Int63n(2_000_000)-1_000_000)
			tp.SetInt32(5, int32(rng.Intn(20_000)-10_000))
			if _, err := h.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if h.NumBuckets() != buckets {
		t.Fatalf("%d buckets, want %d", h.NumBuckets(), buckets)
	}
	return h
}

// foldSpecs exercises every aggregate function over every element type.
func foldSpecs(m foldSMAs) ([]AggSpec, []*core.SMA) {
	col := expr.NewCol
	specs := []AggSpec{
		{Func: AggSum, Arg: col("VF"), Name: "S"},
		{Func: AggCount, Name: "N"},
		{Func: AggAvg, Arg: col("VF"), Name: "A"},
		{Func: AggMin, Arg: col("VF"), Name: "MINF"},
		{Func: AggMin, Arg: col("VI"), Name: "MINI"},
		{Func: AggMax, Arg: col("VI"), Name: "MAXI"},
		{Func: AggMax, Arg: col("VD"), Name: "MAXD"},
		{Func: AggMin, Arg: col("VD"), Name: "MIND"},
		{Func: AggSum, Arg: col("VI"), Name: "SI"},
	}
	return specs, []*core.SMA{m["sum_VF"], m["count"], m["sum_VF"], m["min_VF"],
		m["min_VI"], m["max_VI"], m["max_VD"], m["min_VD"], m["sum_VI"]}
}

// sameBits reports whether a and b are the same float64 bit for bit. Any
// two NaNs count as the same: which operand's payload an addition of two
// NaNs returns is the instruction's choice (x86 keeps its destination
// operand's), and the compiler picks the operand order of a commutative
// operation per loop.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// sameGroupVal compares group values bit for bit, so that a NaN group
// equals itself.
func sameGroupVal(a, b core.GroupVal) bool {
	return a.IsStr == b.IsStr && a.Str == b.Str && sameBits(a.Num, b.Num)
}

func samePartials(t *testing.T, what string, got, want map[core.GroupKey]*Partial) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d groups, want %d", what, len(got), len(want))
	}
	for key, w := range want {
		g := got[key]
		if g == nil {
			t.Errorf("%s: group %q missing", what, key)
			continue
		}
		if len(g.Vals) != len(w.Vals) {
			t.Errorf("%s group %q: vals %v, want %v", what, key, g.Vals, w.Vals)
		}
		for i := range w.Vals {
			if i < len(g.Vals) && !sameGroupVal(g.Vals[i], w.Vals[i]) {
				t.Errorf("%s group %q: vals %v, want %v", what, key, g.Vals, w.Vals)
			}
		}
		if !sameBits(g.Count, w.Count) {
			t.Errorf("%s group %q: count %v, want %v", what, key, g.Count, w.Count)
		}
		for i := range w.Aggs {
			if !sameBits(g.Aggs[i], w.Aggs[i]) || g.Seen[i] != w.Seen[i] {
				t.Errorf("%s group %q slot %d: %v (seen %v), want %v (seen %v): not bit-identical",
					what, key, i, g.Aggs[i], g.Seen[i], w.Aggs[i], w.Seen[i])
			}
		}
	}
}

// TestFoldBitIdenticalToBucketMajorReference compares the run-wise vector
// fold against the bucket-major map fold bit for bit — every Partial's
// Aggs, Seen and Count, and the grade counts — over random relations,
// groupings (equal, permuted, coarser than the SMAs', none), grade
// patterns, bucket subsets with gaps, and both execution modes.
func TestFoldBitIdenticalToBucketMajorReference(t *testing.T) {
	const buckets = 330 // five presence words and a ragged sixth
	type grouping struct{ sma, query []string }
	groupings := []grouping{
		{[]string{"G1", "G2"}, []string{"G1", "G2"}},
		{[]string{"G1", "G2"}, []string{"G2", "G1"}},
		{[]string{"G1", "G2"}, []string{"G1"}},
		{[]string{"G1", "G2"}, []string{"G2"}},
		{[]string{"G1", "G2"}, nil},
		{[]string{"G1"}, []string{"G1"}},
		{nil, nil},
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := loadFoldRelation(t, rng, buckets)
		fixtures := make(map[string]foldSMAs)
		for _, gr := range groupings {
			key := strings.Join(gr.sma, ",")
			if _, ok := fixtures[key]; !ok {
				fixtures[key] = buildFoldSMAs(t, h, gr.sma)
			}
		}
		for gi, gr := range groupings {
			fx := fixtures[strings.Join(gr.sma, ",")]
			specs, aggSMAs := foldSpecs(fx)
			grader := core.NewGrader(fx["fmin"], fx["fmax"])
			cutoff := float64(rng.Intn(buckets * 10))
			newPred := func() pred.Predicate {
				p := pred.NewAtom("F", pred.Le, cutoff)
				if err := p.Bind(h.Schema()); err != nil {
					t.Fatal(err)
				}
				return p
			}

			// The grade vectors to run: what the grader says, and random
			// patterns of runs with lengths from 1 to several words.
			graded := make([]core.Grade, buckets)
			for b, p := 0, newPred(); b < buckets; b++ {
				graded[b] = grader.Grade(b, p)
			}
			patterns := [][]core.Grade{graded}
			for k := 0; k < 3; k++ {
				pat := make([]core.Grade, 0, buckets)
				for len(pat) < buckets {
					g := []core.Grade{core.Qualifies, core.Qualifies, core.Disqualifies, core.Ambivalent}[rng.Intn(4)]
					n := 1 + rng.Intn([]int{2, 20, 150}[rng.Intn(3)])
					if g == core.Ambivalent {
						n = 1 + rng.Intn(3)
					}
					for ; n > 0 && len(pat) < buckets; n-- {
						pat = append(pat, g)
					}
				}
				patterns = append(patterns, pat)
			}

			for pi, pat := range patterns {
				// All buckets, then a subset with gaps.
				var subset []int
				var subGrades []core.Grade
				for b := 0; b < buckets; b++ {
					if rng.Intn(12) != 0 {
						subset = append(subset, b)
						subGrades = append(subGrades, pat[b])
					}
				}
				for _, part := range []struct {
					buckets []int
					grades  []core.Grade
				}{{nil, pat}, {subset, subGrades}} {
					want, wantStats := referenceFold(t, h, newPred(), specs, gr.query, aggSMAs, fx["count"], part.buckets, part.grades)
					what := fmt.Sprintf("seed %d grouping %d pattern %d subset %v", seed, gi, pi, part.buckets != nil)
					op := NewSMAGAggr(h, newPred(), specs, gr.query, grader, aggSMAs, fx["count"])
					op.Buckets, op.Grades, op.KeepPartials = part.buckets, part.grades, true
					if pi == 0 {
						op.Grades = nil // graded in Open
					}
					if err := op.Open(); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					samePartials(t, what, op.Partials(), want)
					st := op.Stats()
					if st.Qualifying != wantStats.Qualifying || st.Disqualifying != wantStats.Disqualifying ||
						st.Ambivalent != wantStats.Ambivalent || st.PagesRead != wantStats.PagesRead || st.PagesPruned != wantStats.PagesPruned {
						t.Errorf("%s: stats %+v, want %+v", what, st, wantStats)
					}
					if err := op.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// q1Cutoff is the first of the two dates of bucket 3686.
const q1Cutoff = 9000 + 2*3686

// q1Fixture builds the Query 1 shape for the benchmark and the allocation
// pin: sorted dates (two per bucket) over 4 096 one-page buckets, four
// (RF, LS) groups present in nearly every bucket, five sum/count SMAs
// grouped by them. The cutoff leaves no bucket ambivalent.
func q1Fixture(t testing.TB) (*SMAGAggr, int) {
	t.Helper()
	const buckets, perPage = 4096, 16
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "D", Type: tuple.TDate},
		{Name: "RF", Type: tuple.TChar, Len: 1},
		{Name: "LS", Type: tuple.TChar, Len: 1},
		{Name: "Q", Type: tuple.TFloat64},
		{Name: "E", Type: tuple.TFloat64},
		{Name: "DI", Type: tuple.TFloat64},
		{Name: "T", Type: tuple.TFloat64},
		{Name: "PAD", Type: tuple.TChar, Len: testutil.RecordSize(perPage) - 38},
	})
	h := testutil.NewHeap(t, schema, 1, 64)
	rng := rand.New(rand.NewSource(7))
	tp := tuple.NewTuple(schema)
	for i := 0; i < buckets*perPage; i++ {
		tp.SetInt32(0, int32(9000+i/(perPage/2)))
		g := [][2]string{{"A", "F"}, {"N", "F"}, {"N", "O"}, {"R", "F"}}[rng.Intn(4)]
		tp.SetChar(1, g[0])
		tp.SetChar(2, g[1])
		for c := 3; c <= 6; c++ {
			tp.SetFloat64(c, rng.Float64()*100)
		}
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	col := expr.NewCol
	defs := []core.Def{
		core.NewDef("dmin", "T", core.Min, col("D")),
		core.NewDef("dmax", "T", core.Max, col("D")),
		core.NewDef("cnt", "T", core.Count, nil, "RF", "LS"),
		core.NewDef("q", "T", core.Sum, col("Q"), "RF", "LS"),
		core.NewDef("e", "T", core.Sum, col("E"), "RF", "LS"),
		core.NewDef("di", "T", core.Sum, col("DI"), "RF", "LS"),
		core.NewDef("t", "T", core.Sum, col("T"), "RF", "LS"),
	}
	s, err := core.BuildMany(h, defs)
	if err != nil {
		t.Fatal(err)
	}
	cnt, q, e, di, tx := s[2], s[3], s[4], s[5], s[6]
	specs := []AggSpec{
		{Func: AggSum, Arg: col("Q"), Name: "SQ"}, {Func: AggSum, Arg: col("E"), Name: "SE"},
		{Func: AggSum, Arg: col("DI"), Name: "SD"}, {Func: AggSum, Arg: col("T"), Name: "ST"},
		{Func: AggAvg, Arg: col("Q"), Name: "AQ"}, {Func: AggAvg, Arg: col("E"), Name: "AE"},
		{Func: AggAvg, Arg: col("DI"), Name: "AD"}, {Func: AggCount, Name: "N"},
	}
	p := pred.NewAtom("D", pred.Lt, q1Cutoff)
	op := NewSMAGAggr(h, p, specs, []string{"RF", "LS"}, core.NewGrader(s[0], s[1]),
		[]*core.SMA{q, e, di, tx, q, e, di, cnt}, cnt)
	op.KeepPartials = true
	return op, buckets
}

// TestAdvanceRunAllocatesNothing pins the fold of a qualifying run — the
// operator's inner loop — at zero allocations once the groups exist.
func TestAdvanceRunAllocatesNothing(t *testing.T) {
	op, buckets := q1Fixture(t)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if st := op.Stats(); st.Ambivalent != 0 || st.Qualifying == 0 || st.Disqualifying == 0 {
		t.Fatalf("stats %+v: want qualifying and disqualifying runs only", st)
	}
	if len(op.Partials()) != 4 {
		t.Fatalf("%d groups, want 4", len(op.Partials()))
	}
	if n := testing.AllocsPerRun(20, func() { op.advanceRun(0, buckets) }); n != 0 {
		t.Errorf("advancing a qualifying run allocates %v times, want 0", n)
	}
}

// BenchmarkSMAGAggrOpen times the whole operator on the Query 1 shape: four
// groups, eight specs, 4 096 buckets, the grading pass included.
func BenchmarkSMAGAggrOpen(b *testing.B) {
	op, _ := q1Fixture(b)
	// Including the cutoff date splits its bucket: one ambivalent bucket.
	op.Pred = pred.NewAtom("D", pred.Le, q1Cutoff)
	if err := op.Open(); err != nil {
		b.Fatal(err)
	}
	if st := op.Stats(); st.Ambivalent != 1 {
		b.Fatalf("stats %+v, want one ambivalent bucket", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.Open(); err != nil {
			b.Fatal(err)
		}
	}
}
