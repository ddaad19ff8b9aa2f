package core_test

import (
	"math/rand"
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
//   - GradeAll(p)[b] == Grade(b, p) for every bucket (the whole-vector pass
//     and the one-bucket case are the same function);
//   - soundness (§3.1): a disqualified bucket holds no tuple satisfying p,
//     a qualified bucket only tuples satisfying it.
//
// Rows are (A, B, group) byte triples, four to a bucket; smaMask picks which
// of min(A), max(A), min(B), max(B), count(*) group by A the grader gets and
// whether the SMAs on A are grouped by G.
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

	schema := tuple.MustSchema([]tuple.Column{
		{Name: "A", Type: tuple.TFloat64},
		{Name: "B", Type: tuple.TFloat64},
		{Name: "G", Type: tuple.TChar, Len: 1},
		{Name: "PAD", Type: tuple.TChar, Len: (storage.PageSize-16)/4 - 17}, // 4 tuples per page
	})
	f.Fuzz(func(t *testing.T, rows, predBytes []byte, smaMask byte) {
		if len(rows) > 3*1200 {
			rows = rows[:3*1200]
		}
		h := testutil.NewHeap(t, schema, 1, 64)
		tp := tuple.NewTuple(schema)
		for ; len(rows) >= 3; rows = rows[3:] {
			tp.SetFloat64(0, float64(rows[0]%64))
			tp.SetFloat64(1, float64(rows[1]%64))
			tp.SetChar(2, string(rune('x'+rows[2]%2)))
			if _, err := h.Append(tp); err != nil {
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
		g := core.NewGrader(smas...)

		p := fuzzPred(&predBytes, 4)
		if err := p.Bind(schema); err != nil {
			t.Fatal(err)
		}
		all := g.GradeAll(p)
		if len(smas) > 0 && len(all) != h.NumBuckets() {
			t.Fatalf("GradeAll returned %d grades for %d buckets", len(all), h.NumBuckets())
		}
		for b, grade := range all {
			if one := g.Grade(b, p); one != grade {
				t.Fatalf("bucket %d: GradeAll says %s, Grade says %s, for %s", b, grade, one, p)
			}
			err := h.ScanBucket(b, func(tp tuple.Tuple, _ storage.RID) error {
				if sat := p.Eval(tp); (grade == core.Qualifies && !sat) || (grade == core.Disqualifies && sat) {
					t.Errorf("bucket %d graded %s for %s, but a tuple (A=%v, B=%v) evaluates to %v",
						b, grade, p, tp.Float64(0), tp.Float64(1), sat)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
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
		{Name: "PAD", Type: tuple.TChar, Len: (storage.PageSize-16)/2 - 8}, // 2 tuples per page
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

var gradeSink []core.Grade
