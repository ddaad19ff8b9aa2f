package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// fuzzPred decodes a predicate tree over columns A and B from fuzz bytes:
// constant atoms (the count SMA grouped by A makes those on A value-count
// atoms too), column-to-column atoms, And, Or, Not and True. Exhausted
// input and the depth limit both end in an atom.
func fuzzPred(data *[]byte, depth int) pred.Predicate {
	next := func() byte {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return b
	}
	ops := []pred.CmpOp{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge}
	cols := []string{"A", "B"}
	kind := next()
	if depth == 0 {
		kind %= 6
	}
	switch kind % 11 {
	case 6, 7:
		kids := make([]pred.Predicate, 1+next()%3)
		for i := range kids {
			kids[i] = fuzzPred(data, depth-1)
		}
		if kind%11 == 6 {
			return pred.NewAnd(kids...)
		}
		return pred.NewOr(kids...)
	case 8, 9:
		return pred.NewNot(fuzzPred(data, depth-1))
	case 10:
		return pred.True{}
	case 5:
		c := next()
		return pred.NewColAtom(cols[c&1], ops[int(c>>1)%6], cols[c>>4&1])
	default:
		c := next()
		return pred.NewAtom(cols[c&1], ops[int(c>>1)%6], float64(next())/2-8)
	}
}

// FuzzGradeAll checks the grader against the tuples themselves, for fuzzed
// bucket contents, predicate trees and sets of available SMAs:
//
//   - GradeAll(p) is a run list: sorted, maximal (no two adjacent runs
//     share a grade) and covering every bucket without a gap, and RunsFor
//     cuts it or extends it with one Ambivalent run;
//   - every bucket's run grade is Grade(b, p) (the run pass and the
//     one-bucket case are the same function, although only the former
//     grades a whole presence word by its level-2 summary);
//   - soundness (§3.1): a disqualified bucket holds no tuple satisfying p,
//     a qualified bucket only tuples satisfying it.
//
// All hold after the build, again after rows are appended, after a bucket
// in the middle is updated and refolded and after one is emptied, so a
// summary that missed a change shows as a grade of its own.
//
// Rows are (A, B, group) byte triples, four to a bucket; byte 0xFF stands
// for NaN and 0xFE for -0, every other byte b for b mod 64. The group
// byte's low bit picks the group and its bit 1 deletes the row before the
// build, so a bucket can have no entry from the start. smaMask picks
// which of min(A), max(A), min(B), max(B), count(*) group by A the grader
// gets and whether the SMAs on A are grouped by G.
//
// A NaN that is not the first value of its bucket does not reach the
// bucket's min or max entry, so the min/max rules can grade a bucket that
// holds one Qualifies for a comparison NaN fails. The engine refuses NaN at
// every write (INSERT, Table.Append and UPDATE), so no table holds one;
// this heap is written below the engine, and soundness is checked on the
// buckets without NaN, while the agreement of the two gradings is checked
// on all of them.
func FuzzGradeAll(f *testing.F) {
	// Seeds: the data shape and predicates of TestQuickGradeSoundness
	// (clustered A, noisy B; random trees over both), more than 64 buckets
	// so vectors cross a presence-word edge, under several SMA sets.
	rng := rand.New(rand.NewSource(1998))
	for _, mask := range []byte{0x1f, 0x3f, 0x03, 0x10, 0x0c, 0x00} {
		rows := make([]byte, 0, 3*280)
		for i := 0; i < 280; i++ {
			rows = append(rows, byte(i/10+rng.Intn(5)), byte(rng.Intn(100)), byte(rng.Intn(2)))
		}
		p := make([]byte, 24)
		rng.Read(p)
		f.Add(rows, p, mask)
	}
	f.Add([]byte{1, 2, 0, 3, 4, 1}, []byte{6, 1, 0, 0, 40, 5, 0x12}, byte(0x1f)) // And(A = 12, A >= B)
	f.Add([]byte{}, []byte{10}, byte(0x1f))                                      // no buckets, True
	// Seeds over more than four whole presence words of A sorted in runs
	// of 40 rows (ten buckets), so most words grade whole, with -0 and +0
	// planted in the first two words and a NaN in the third and the fifth:
	// a constant atom on A of every operator, and a tree.
	for i, mask := range []byte{0x03, 0x23, 0x1f, 0x3f} {
		rows := make([]byte, 0, 3*1200)
		for r := 0; r < 1200; r++ {
			a := byte(r / 40)
			switch {
			case r == 700, r == 1100:
				a = 0xFF // NaN
			case r < 512 && r%89 == 7:
				a = 0xFE // -0
			case r < 512 && r%83 == 9:
				a = 0
			}
			rows = append(rows, a, byte(rng.Intn(100)), byte(rng.Intn(2)))
		}
		for op := byte(0); op < 6; op++ {
			f.Add(rows, []byte{0, op << 1, byte(2*(3+5*int(op)+i) + 16)}, mask)
		}
		p := make([]byte, 24)
		rng.Read(p)
		f.Add(rows, p, mask)
	}
	// Seeds with about a third of the rows deleted before the build and
	// buckets 62 to 65 emptied, so empty buckets lie on both sides of a
	// presence-word edge: A <= 24 under min(A) and max(A) alone, and a tree
	// under every SMA.
	for _, mask := range []byte{0x03, 0x1f} {
		rows := make([]byte, 0, 3*400)
		for r := 0; r < 400; r++ {
			del := byte(0)
			if rng.Intn(3) == 0 || r/4 >= 62 && r/4 < 66 {
				del = 2
			}
			rows = append(rows, byte(r/8+rng.Intn(6)), byte(rng.Intn(100)), del|byte(rng.Intn(2)))
		}
		f.Add(rows, []byte{0, 3 << 1, 64}, mask)
		p := make([]byte, 24)
		rng.Read(p)
		f.Add(rows, p, mask)
	}

	schema := tuple.MustSchema([]tuple.Column{
		{Name: "A", Type: tuple.TFloat64},
		{Name: "B", Type: tuple.TFloat64},
		{Name: "G", Type: tuple.TChar, Len: 1},
		{Name: "PAD", Type: tuple.TChar, Len: testutil.RecordSize(4) - 17}, // 4 tuples per page
	})
	value := func(b byte) float64 {
		switch b {
		case 0xFF:
			return math.NaN()
		case 0xFE:
			return math.Copysign(0, -1)
		}
		return float64(b % 64)
	}
	f.Fuzz(func(t *testing.T, rows, predBytes []byte, smaMask byte) {
		if len(rows) > 3*1200 {
			rows = rows[:3*1200]
		}
		h := testutil.NewHeap(t, schema, 1, 64)
		tp := tuple.NewTuple(schema)
		setRow := func(r []byte) tuple.Tuple {
			tp.SetFloat64(0, value(r[0]))
			tp.SetFloat64(1, value(r[1]))
			tp.SetChar(2, string(rune('x'+r[2]%2)))
			return tp
		}
		dead := make(map[storage.RID]bool)
		for r := rows; len(r) >= 3; r = r[3:] {
			rid, err := h.Append(setRow(r))
			if err != nil {
				t.Fatal(err)
			}
			if r[2]&2 != 0 {
				dead[rid] = true
			}
		}
		for rid := range dead {
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
		var groupA []string
		if smaMask&0x20 != 0 {
			groupA = []string{"G"}
		}
		defs := []core.Def{
			core.NewDef("mna", "T", core.Min, expr.NewCol("A"), groupA...),
			core.NewDef("mxa", "T", core.Max, expr.NewCol("A"), groupA...),
			core.NewDef("mnb", "T", core.Min, expr.NewCol("B")),
			core.NewDef("mxb", "T", core.Max, expr.NewCol("B")),
			core.NewDef("cta", "T", core.Count, nil, "A"),
		}
		var smas []*core.SMA
		for i, def := range defs {
			if smaMask>>i&1 != 0 {
				smas = append(smas, build(t, h, def))
			}
		}

		p := fuzzPred(&predBytes, 4)
		if err := p.Bind(schema); err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			g := core.NewGrader(smas...)
			nb := g.NumBuckets()
			if len(smas) > 0 && nb != h.NumBuckets() {
				t.Fatalf("%s: the grader covers %d buckets of %d", when, nb, h.NumBuckets())
			}
			grades := runGrades(t, g.GradeAll(p), nb)
			for _, n := range []int{nb / 2, nb + 2} {
				want := append(grades[:min(n, nb):min(n, nb)], make([]core.Grade, max(0, n-nb))...) // the zero Grade is Ambivalent
				if got := runGrades(t, g.RunsFor(p, n), n); !slices.Equal(got, want) {
					t.Fatalf("%s: RunsFor(%d) grades %v, want %v", when, n, got, want)
				}
			}
			for b, grade := range grades {
				if one := g.Grade(b, p); one != grade {
					t.Fatalf("%s: bucket %d: GradeAll says %s, Grade says %s, for %s", when, b, grade, one, p)
				}
				bad, nan := "", false // the first tuple the grade is wrong for
				err := testutil.BucketRecords(h, b, func(tp tuple.Tuple, _ storage.RID) error {
					x, y := tp.Float64(0), tp.Float64(1)
					nan = nan || x != x || y != y
					if sat := testutil.EvalPred(p, tp); bad == "" && ((grade == core.Qualifies && !sat) || (grade == core.Disqualifies && sat)) {
						bad = fmt.Sprintf("a tuple (A=%v, B=%v) evaluates to %v", x, y, sat)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if bad != "" && !nan {
					t.Errorf("%s: bucket %d graded %s for %s, but %s", when, b, grade, p, bad)
				}
			}
		}
		check("after build")
		if len(rows) < 3 {
			return
		}

		// Appends: the first rows again, into the last bucket and past it.
		for r := rows[:min(len(rows), 3*70)]; len(r) >= 3; r = r[3:] {
			rid, err := h.Append(setRow(r))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range smas {
				if err := s.OnAppend(h, tp, rid); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("after append")

		// A refold: the middle bucket's first row takes the last input row's
		// values with A and B swapped.
		last := rows[len(rows)/3*3-3:]
		rid := storage.RID{Page: storage.PageID(h.NumPages() / 2)}
		if err := h.Update(rid, setRow([]byte{last[1], last[0], last[2]})); err != nil {
			t.Fatal(err)
		}
		if err := core.Refold(h, smas, []int{h.BucketOf(rid.Page)}); err != nil {
			t.Fatal(err)
		}
		check("after refold")

		// An emptied bucket has no entry in any SMA-file: its word is graded
		// bucket by bucket.
		if h.NumPages() < 2 {
			return
		}
		page := storage.PageID(h.NumPages() / 4)
		for slot := 0; slot < 4; slot++ {
			if rid := (storage.RID{Page: page, Slot: slot}); !dead[rid] {
				if err := h.Delete(rid); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := core.Refold(h, smas, []int{h.BucketOf(page)}); err != nil {
			t.Fatal(err)
		}
		check("after emptying a bucket")
	})
}

// runGrades checks that runs is a run list over buckets [0, nb) — sorted,
// maximal and covering every bucket without a gap — and returns its grades
// a bucket at a time.
func runGrades(t *testing.T, runs []core.Run, nb int) []core.Grade {
	t.Helper()
	out := make([]core.Grade, 0, nb)
	for i, r := range runs {
		if int(r.Lo) != len(out) || r.Hi <= r.Lo {
			t.Fatalf("run %d is [%d, %d) after %d buckets: %v", i, r.Lo, r.Hi, len(out), runs)
		}
		if i > 0 && runs[i-1].Grade == r.Grade {
			t.Fatalf("runs %d and %d are both %s: not maximal: %v", i-1, i, r.Grade, runs)
		}
		for range r.Len() {
			out = append(out, r.Grade)
		}
	}
	if len(out) != nb {
		t.Fatalf("runs cover %d of %d buckets: %v", len(out), nb, runs)
	}
	return out
}

// BenchmarkGradeAll times one grading pass over 4 096 one-page buckets of
// sorted dates. minmax is the Query 1 shape: a date cutoff graded against
// ungrouped min and max SMAs (one ambivalent bucket at the cutoff).
// countBehindRange puts a value-count atom (F = c against count(*) group by
// F, 200 SMA-files to walk per bucket) behind a date cutoff that disqualifies
// 99 % of the buckets: the conjunction must pay that walk only for the
// buckets the cutoff leaves open.
func BenchmarkGradeAll(b *testing.B) {
	const buckets = 4096
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "D", Type: tuple.TDate},
		{Name: "F", Type: tuple.TInt32},
		{Name: "PAD", Type: tuple.TChar, Len: testutil.RecordSize(2) - 8}, // 2 tuples per page
	})
	h := testutil.NewHeap(b, schema, 1, 64)
	tp := tuple.NewTuple(schema)
	for i := 0; i < 2*buckets; i++ {
		tp.SetInt32(0, int32(9000+i))
		tp.SetInt32(1, int32(i*7%200))
		if _, err := h.Append(tp); err != nil {
			b.Fatal(err)
		}
	}
	dmin := build(b, h, core.NewDef("dmin", "T", core.Min, expr.NewCol("D")))
	dmax := build(b, h, core.NewDef("dmax", "T", core.Max, expr.NewCol("D")))
	run := func(name string, g *core.Grader, p pred.Predicate, want core.GradeCounts) {
		b.Run(name, func(b *testing.B) {
			if c := core.CountGrades(g.GradeAll(p)); c != want {
				b.Fatalf("grades %+v, want %+v", c, want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gradeSink = g.GradeAll(p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/buckets, "ns/bucket")
		})
	}
	run("minmax", core.NewGrader(dmin, dmax),
		pred.NewAtom("D", pred.Le, 9000+2*buckets*0.9),
		core.GradeCounts{Qualifying: 3686, Disqualifying: 409, Ambivalent: 1})
	run("countBehindRange",
		core.NewGrader(dmin, dmax, build(b, h, core.NewDef("fcnt", "T", core.Count, nil, "F"))),
		pred.NewAnd(pred.NewAtom("D", pred.Lt, 9000+2*buckets*0.01), pred.NewAtom("F", pred.Eq, 7)),
		core.GradeCounts{Disqualifying: 4095, Ambivalent: 1})
}

var gradeSink []core.Run
