package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// buildMinMax loads n random values (16 per page, so n/16 buckets) and
// builds the min/max SMA pair.
func buildMinMax(t testing.TB, seed int64, n int) (*core.SMA, *core.SMA, *core.Grader) {
	t.Helper()
	h := testutil.NewHeap(t, testutil.PaddedFloatSchema(t, 16), 1, 64)
	rng := rand.New(rand.NewSource(seed))
	tpl := tuple.NewTuple(h.Schema())
	for i := 0; i < n; i++ {
		// Mildly clustered values so some runs are decidable at level 2.
		tpl.SetFloat64(0, float64(i)+rng.Float64()*50)
		if _, err := h.Append(tpl); err != nil {
			t.Fatal(err)
		}
	}
	mn := build(t, h, core.NewDef("mn", "T", core.Min, expr.NewCol("A")))
	mx := build(t, h, core.NewDef("mx", "T", core.Max, expr.NewCol("A")))
	return mn, mx, core.NewGrader(mn, mx)
}

// TestTwoLevelEquivalence: hierarchical grading must agree with flat
// grading on every bucket for every operator.
func TestTwoLevelEquivalence(t *testing.T) {
	mn, mx, g := buildMinMax(t, 11, 5000)
	tl, err := core.NewTwoLevel(mn, mx, 16)
	if err != nil {
		t.Fatal(err)
	}
	grades := make([]core.Grade, tl.NumBuckets())
	for _, op := range []pred.CmpOp{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge} {
		for _, c := range []float64{-10, 100, 2500, 6000} {
			atom := pred.NewAtom("A", op, c)
			stats, err := tl.GradeAtom(atom, grades)
			if err != nil {
				t.Fatal(err)
			}
			for b := range grades {
				if want := g.Grade(b, atom); grades[b] != want {
					t.Fatalf("A %s %g bucket %d: hierarchical %s, flat %s", op, c, b, grades[b], want)
				}
			}
			if stats.L1EntriesRead > stats.L1EntriesTotal {
				t.Fatalf("stats inconsistent: %+v", stats)
			}
		}
	}
}

// TestTwoLevelSavesL1 on clustered data: a selective cutoff decides most
// runs at level 2.
func TestTwoLevelSavesL1(t *testing.T) {
	mn, mx, _ := buildMinMax(t, 5, 5000)
	tl, err := core.NewTwoLevel(mn, mx, 32)
	if err != nil {
		t.Fatal(err)
	}
	grades := make([]core.Grade, tl.NumBuckets())
	stats, err := tl.GradeAtom(pred.NewAtom("A", pred.Le, 500), grades)
	if err != nil {
		t.Fatal(err)
	}
	if stats.L1EntriesRead*2 > stats.L1EntriesTotal {
		t.Errorf("two-level read %d of %d L1 entries; expected at least 50%% savings on clustered data",
			stats.L1EntriesRead, stats.L1EntriesTotal)
	}
	if stats.RunsDecided == 0 {
		t.Errorf("no runs decided at level 2")
	}
}

// TestTwoLevelValidation covers constructor error cases.
func TestTwoLevelValidation(t *testing.T) {
	mn, mx, _ := buildMinMax(t, 7, 100)
	if _, err := core.NewTwoLevel(mn, mx, 1); err == nil {
		t.Errorf("fanout 1 should be rejected")
	}
	if _, err := core.NewTwoLevel(mx, mn, 8); err == nil {
		t.Errorf("swapped (max, min) pair should be rejected")
	}
	if _, err := core.NewTwoLevel(mn, mn, 8); err == nil {
		t.Errorf("(min, min) pair should be rejected")
	}
}

// TestTwoLevelOtherColumnAmbivalent: atoms on a different column grade
// everything ambivalent.
func TestTwoLevelOtherColumnAmbivalent(t *testing.T) {
	mn, mx, _ := buildMinMax(t, 7, 200)
	tl, err := core.NewTwoLevel(mn, mx, 8)
	if err != nil {
		t.Fatal(err)
	}
	grades := make([]core.Grade, tl.NumBuckets())
	if _, err := tl.GradeAtom(pred.NewAtom("OTHER", pred.Le, 1), grades); err != nil {
		t.Fatal(err)
	}
	for b, g := range grades {
		if g != core.Ambivalent {
			t.Fatalf("bucket %d: %s, want ambivalent", b, g)
		}
	}
	if _, err := tl.GradeAtom(pred.NewAtom("A", pred.Le, 1), grades[:1]); err == nil {
		t.Errorf("short grades slice should be rejected")
	}
}

// TestQuickTwoLevelEquivalence: random data, fanout and cutoffs.
func TestQuickTwoLevelEquivalence(t *testing.T) {
	f := func(seed int64, fan uint8, cut float64) bool {
		fanout := 2 + int(fan%30)
		mn, mx, g := buildMinMax(t, seed, 600)
		tl, err := core.NewTwoLevel(mn, mx, fanout)
		if err != nil {
			return false
		}
		atom := pred.NewAtom("A", pred.Le, cut)
		grades := make([]core.Grade, tl.NumBuckets())
		if _, err := tl.GradeAtom(atom, grades); err != nil {
			return false
		}
		for b := range grades {
			if grades[b] != g.Grade(b, atom) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// FuzzTwoLevelGrade checks the hierarchical grader for fuzzed bucket
// contents, fanout and one atom A op c:
//
//   - soundness (§3.1) against the tuples: a disqualified bucket holds no
//     tuple satisfying the atom, a qualified bucket only tuples satisfying
//     it;
//   - the flat Grader.GradeAll is a run list over every bucket (sorted,
//     maximal, without a gap) whose run grade is Grader.Grade on every
//     bucket, as FuzzGradeAll checks it;
//   - GradeAtom equals that run grade on every bucket with a present SMA
//     entry. A bucket whose rows are all deleted has none: the flat grader
//     leaves it ambivalent, while a decided level-2 run decides it too,
//     which is sound because it holds no tuple.
//
// Rows are (value, deleted) byte pairs, four to a bucket; a pair whose
// second byte is odd is deleted after loading, so some buckets empty out.
func FuzzTwoLevelGrade(f *testing.F) {
	// Seeds: mildly clustered values as in buildMinMax, a third of the rows
	// deleted, at a small, an odd and a wide fanout.
	rng := rand.New(rand.NewSource(1998))
	for _, fan := range []byte{0, 3, 14} {
		rows := make([]byte, 0, 2*400)
		for i := 0; i < 400; i++ {
			rows = append(rows, byte(i/8+rng.Intn(6)), byte(rng.Intn(3)))
		}
		f.Add(rows, fan, byte(rng.Intn(6)), byte(rng.Intn(256)))
	}
	f.Add([]byte{}, byte(0), byte(0), byte(0)) // no buckets
	// A = 13 over an emptied bucket and a bucket of 9s, one level-2 run.
	f.Add([]byte{7, 1, 7, 1, 7, 1, 7, 1, 9, 0, 9, 0, 9, 0, 9, 0}, byte(0), byte(0), byte(90))

	schema := testutil.PaddedFloatSchema(f, 4)
	ops := []pred.CmpOp{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge}
	f.Fuzz(func(t *testing.T, rows []byte, fan, op, c byte) {
		if len(rows) > 2*1200 {
			rows = rows[:2*1200]
		}
		h := testutil.NewHeap(t, schema, 1, 64)
		tp := tuple.NewTuple(schema)
		var dead []storage.RID
		for ; len(rows) >= 2; rows = rows[2:] {
			tp.SetFloat64(0, float64(rows[0]%64))
			rid, err := h.Append(tp)
			if err != nil {
				t.Fatal(err)
			}
			if rows[1]&1 != 0 {
				dead = append(dead, rid)
			}
		}
		for _, rid := range dead {
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
		mn := build(t, h, core.NewDef("mn", "T", core.Min, expr.NewCol("A")))
		mx := build(t, h, core.NewDef("mx", "T", core.Max, expr.NewCol("A")))
		tl, err := core.NewTwoLevel(mn, mx, 2+int(fan%30))
		if err != nil {
			t.Fatal(err)
		}
		atom := pred.NewAtom("A", ops[op%6], float64(c)/2-32)
		if err := atom.Bind(schema); err != nil {
			t.Fatal(err)
		}
		grades := make([]core.Grade, tl.NumBuckets())
		if _, err := tl.GradeAtom(atom, grades); err != nil {
			t.Fatal(err)
		}
		flat := core.NewGrader(mn, mx)
		runs := runGrades(t, flat.GradeAll(atom), tl.NumBuckets())
		for b, grade := range grades {
			if one := flat.Grade(b, atom); one != runs[b] {
				t.Fatalf("bucket %d: flat GradeAll says %s, Grade says %s, for %s", b, runs[b], one, atom)
			}
			if _, present := mn.BucketMin(b); present {
				if want := runs[b]; grade != want {
					t.Fatalf("bucket %d of %d, fanout %d: two-level %s, flat %s, for %s",
						b, len(grades), tl.Fanout, grade, want, atom)
				}
			}
			err := testutil.BucketRecords(h, b, func(tp tuple.Tuple, _ storage.RID) error {
				if sat := testutil.EvalPred(atom, tp); (grade == core.Qualifies && !sat) || (grade == core.Disqualifies && sat) {
					t.Errorf("bucket %d graded %s for %s, but a tuple (A=%v) evaluates to %v",
						b, grade, atom, tp.Float64(0), sat)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}
