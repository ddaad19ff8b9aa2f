package pred_test

import (
	"testing"
	"testing/quick"

	"sma/internal/exec"
	"sma/internal/pred"
	"sma/internal/tuple"
)

func schema(t testing.TB) *tuple.Schema {
	t.Helper()
	return tuple.MustSchema([]tuple.Column{
		{Name: "A", Type: tuple.TFloat64},
		{Name: "B", Type: tuple.TFloat64},
		{Name: "F", Type: tuple.TChar, Len: 1},
	})
}

func row(t testing.TB, a, b float64, f byte) tuple.Tuple {
	t.Helper()
	tp := tuple.NewTuple(schema(t))
	tp.SetFloat64(0, a)
	tp.SetFloat64(1, b)
	tp.SetChar(2, string(f))
	return tp
}

// holds decides p for tp through the selection kernels of a memory scan,
// the evaluator every scan runs predicates with.
func holds(t testing.TB, p pred.Predicate, tp tuple.Tuple) bool {
	t.Helper()
	s := exec.NewMemScan(tp.Schema, []tuple.Tuple{tp}, p)
	if err := s.Open(); err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	defer s.Close()
	b, err := s.NextBatch()
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	return b != nil
}

func TestAtomEval(t *testing.T) {
	tp := row(t, 10, 20, 'R')
	cases := []struct {
		p    pred.Predicate
		want bool
	}{
		{pred.NewAtom("A", pred.Le, 10), true},
		{pred.NewAtom("A", pred.Lt, 10), false},
		{pred.NewAtom("a", pred.Ge, 5), true}, // case-insensitive
		{pred.NewColAtom("A", pred.Lt, "B"), true},
		{pred.NewColAtom("B", pred.Lt, "A"), false},
		{pred.NewAtom("F", pred.Eq, pred.CharConst('R')), true},
		{pred.NewAtom("F", pred.Eq, pred.CharConst('N')), false},
	}
	for _, tc := range cases {
		if got := holds(t, tc.p, tp); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestBoolEval(t *testing.T) {
	tp := row(t, 10, 20, 'R')
	lt := pred.NewAtom("A", pred.Lt, 15) // true
	gt := pred.NewAtom("A", pred.Gt, 15) // false
	cases := []struct {
		p    pred.Predicate
		want bool
	}{
		{pred.NewAnd(lt, pred.NewAtom("B", pred.Eq, 20)), true},
		{pred.NewAnd(lt, gt), false},
		{pred.NewOr(gt, lt), true},
		{pred.NewOr(gt, gt), false},
		{pred.NewNot(gt), true},
		{pred.NewNot(lt), false},
		{pred.True{}, true},
		{pred.NewAnd(), true}, // empty conjunction is vacuously true
		{pred.NewOr(), false}, // empty disjunction is vacuously false
	}
	for _, tc := range cases {
		if got := holds(t, tc.p, tp); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestQuickDeMorgan property-tests ¬(p ∧ q) ≡ (¬p) ∨ (¬q) over random rows.
func TestQuickDeMorgan(t *testing.T) {
	f := func(a, b float64, c1, c2 float64) bool {
		tp := row(t, a, b, 'R')
		p := pred.NewAtom("A", pred.Le, c1)
		q := pred.NewAtom("B", pred.Gt, c2)
		return holds(t, pred.NewNot(pred.NewAnd(p, q)), tp) == holds(t, pred.NewOr(pred.NewNot(p), pred.NewNot(q)), tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
