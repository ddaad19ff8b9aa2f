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

// loadCol loads float tuples (16 per page, so many buckets) into column A.
func loadCol(t testing.TB, vals []float64) *storage.HeapFile {
	t.Helper()
	h := testutil.NewHeap(t, testutil.PaddedFloatSchema(t, 16), 1, 64)
	testutil.AppendFloats(t, h, vals...)
	return h
}

func TestComputeJoinBounds(t *testing.T) {
	s := loadCol(t, []float64{5, -2, 9, 3})
	jb, err := core.ComputeJoinBounds(s, "A")
	if err != nil {
		t.Fatal(err)
	}
	if !jb.NonEmpty || jb.Min != -2 || jb.Max != 9 {
		t.Errorf("bounds = %+v, want [-2, 9]", jb)
	}
	if _, err := core.ComputeJoinBounds(s, "NOPE"); err == nil {
		t.Errorf("unknown column should fail")
	}
	empty := testutil.NewHeap(t, oneColSchema(t), 1, 8)
	jb, err = core.ComputeJoinBounds(empty, "A")
	if err != nil {
		t.Fatal(err)
	}
	if jb.NonEmpty {
		t.Errorf("empty relation should give empty bounds")
	}
}

func TestJoinBoundsFromSMAs(t *testing.T) {
	s := loadCol(t, []float64{5, -2, 9, 3})
	mn := build(t, s, core.NewDef("mn", "T", core.Min, expr.NewCol("A")))
	mx := build(t, s, core.NewDef("mx", "T", core.Max, expr.NewCol("A")))
	jb, err := core.JoinBoundsFromSMAs(mn, mx)
	if err != nil {
		t.Fatal(err)
	}
	if !jb.NonEmpty || jb.Min != -2 || jb.Max != 9 {
		t.Errorf("bounds = %+v, want [-2, 9]", jb)
	}
	if _, err := core.JoinBoundsFromSMAs(mn, nil); err == nil {
		t.Errorf("nil SMA should fail")
	}
}

// semiJoinBaseline computes "exists s in S with a θ s" naively.
func semiJoinBaseline(a float64, svals []float64, op pred.CmpOp) bool {
	for _, s := range svals {
		if op.Compare(a, s) {
			return true
		}
	}
	return false
}

// TestSemiJoinGradeSound checks that grading never contradicts the naive
// semantics: a qualifying bucket's tuples all pass, a disqualifying
// bucket's tuples all fail.
func TestSemiJoinGradeSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rvals := make([]float64, 2000)
	for i := range rvals {
		rvals[i] = float64(i) / 4 // clustered
	}
	svals := []float64{100, 150, 180}
	r := loadCol(t, rvals)
	mn := build(t, r, core.NewDef("mn", "T", core.Min, expr.NewCol("A")))
	mx := build(t, r, core.NewDef("mx", "T", core.Max, expr.NewCol("A")))
	g := core.NewGrader(mn, mx)
	s := loadCol(t, svals)
	jb, err := core.ComputeJoinBounds(s, "A")
	if err != nil {
		t.Fatal(err)
	}
	_ = rng
	perPage := r.RecordsPerPage()
	for _, op := range []pred.CmpOp{pred.Lt, pred.Le, pred.Gt, pred.Ge, pred.Eq, pred.Ne} {
		pruned := 0
		for b := 0; b < r.NumBuckets(); b++ {
			grade := core.SemiJoinGrade(g, b, "A", op, jb)
			lo := b * perPage
			hi := lo + perPage
			if hi > len(rvals) {
				hi = len(rvals)
			}
			for i := lo; i < hi; i++ {
				want := semiJoinBaseline(rvals[i], svals, op)
				if grade == core.Qualifies && !want {
					t.Fatalf("op %s bucket %d: qualifies but value %g has no partner", op, b, rvals[i])
				}
				if grade == core.Disqualifies && want {
					t.Fatalf("op %s bucket %d: disqualifies but value %g has a partner", op, b, rvals[i])
				}
			}
			if grade == core.Disqualifies {
				pruned++
			}
		}
		if (op == pred.Lt || op == pred.Le || op == pred.Gt || op == pred.Ge) && pruned == 0 {
			t.Errorf("op %s: expected some pruning on clustered data", op)
		}
	}
}

// TestSemiJoinEmptyS: an empty S disqualifies everything.
func TestSemiJoinEmptyS(t *testing.T) {
	r := loadCol(t, []float64{1, 2, 3})
	mn := build(t, r, core.NewDef("mn", "T", core.Min, expr.NewCol("A")))
	mx := build(t, r, core.NewDef("mx", "T", core.Max, expr.NewCol("A")))
	g := core.NewGrader(mn, mx)
	jb := core.JoinBounds{}
	if got := core.SemiJoinGrade(g, 0, "A", pred.Le, jb); got != core.Disqualifies {
		t.Errorf("empty S should disqualify, got %s", got)
	}
	if core.SemiJoinPredicate("A", pred.Le, jb) != nil {
		t.Errorf("empty S has no residual predicate")
	}
}

// TestSemiJoinPredicateResidual: the residual predicate matches the naive
// semantics for the expressible operators.
func TestSemiJoinPredicateResidual(t *testing.T) {
	svals := []float64{10, 20}
	s := loadCol(t, svals)
	jb, err := core.ComputeJoinBounds(s, "A")
	if err != nil {
		t.Fatal(err)
	}
	schema := oneColSchema(t)
	tp := tuple.NewTuple(schema)
	for _, op := range []pred.CmpOp{pred.Lt, pred.Le, pred.Gt, pred.Ge, pred.Ne} {
		p := core.SemiJoinPredicate("A", op, jb)
		if p == nil {
			t.Fatalf("op %s: no residual predicate", op)
		}
		if err := p.Bind(schema); err != nil {
			t.Fatal(err)
		}
		for _, a := range []float64{5, 10, 15, 20, 25} {
			tp.SetFloat64(0, a)
			if got, want := testutil.EvalPred(p, tp), semiJoinBaseline(a, svals, op); got != want {
				t.Errorf("op %s a=%g: residual %v, naive %v", op, a, got, want)
			}
		}
	}
	if core.SemiJoinPredicate("A", pred.Eq, jb) != nil {
		t.Errorf("Eq is not expressible as a constant residual (gaps)")
	}
}

// TestQuickSemiJoinSoundness: random R/S value sets never produce unsound
// grades.
func TestQuickSemiJoinSoundness(t *testing.T) {
	f := func(seed int64, opRaw uint8) bool {
		op := []pred.CmpOp{pred.Lt, pred.Le, pred.Gt, pred.Ge, pred.Eq, pred.Ne}[opRaw%6]
		rng := rand.New(rand.NewSource(seed))
		rvals := make([]float64, 300)
		for i := range rvals {
			rvals[i] = rng.Float64() * 100
		}
		svals := make([]float64, 1+rng.Intn(5))
		for i := range svals {
			svals[i] = rng.Float64() * 100
		}
		r := loadCol(t, rvals)
		mn := build(t, r, core.NewDef("mn", "T", core.Min, expr.NewCol("A")))
		mx := build(t, r, core.NewDef("mx", "T", core.Max, expr.NewCol("A")))
		g := core.NewGrader(mn, mx)
		s := loadCol(t, svals)
		jb, err := core.ComputeJoinBounds(s, "A")
		if err != nil {
			return false
		}
		perPage := r.RecordsPerPage()
		for b := 0; b < r.NumBuckets(); b++ {
			grade := core.SemiJoinGrade(g, b, "A", op, jb)
			lo, hi := b*perPage, (b+1)*perPage
			if hi > len(rvals) {
				hi = len(rvals)
			}
			for i := lo; i < hi; i++ {
				want := semiJoinBaseline(rvals[i], svals, op)
				if grade == core.Qualifies && !want {
					return false
				}
				if grade == core.Disqualifies && want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
