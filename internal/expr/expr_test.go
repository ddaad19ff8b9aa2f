package expr

import (
	"math"
	"testing"
	"testing/quick"

	"sma/internal/tuple"
)

func schema(t testing.TB) *tuple.Schema {
	t.Helper()
	return tuple.MustSchema([]tuple.Column{
		{Name: "A", Type: tuple.TFloat64},
		{Name: "B", Type: tuple.TFloat64},
		{Name: "D", Type: tuple.TDate},
		{Name: "C", Type: tuple.TChar, Len: 3},
	})
}

func row(t testing.TB, a, b float64) tuple.Tuple {
	t.Helper()
	tp := tuple.NewTuple(schema(t))
	tp.SetFloat64(0, a)
	tp.SetFloat64(1, b)
	return tp
}

// eval computes e for the one record tp through a Program, the evaluator
// every consumer of an expression runs.
func eval(t testing.TB, e Expr, tp tuple.Tuple) float64 {
	t.Helper()
	var p Program
	node, err := p.Add(e, tp.Schema)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	var scratch []float64
	vals, c := p.Value(node, p.Eval(&scratch, tp.Data, len(tp.Data), nil, 1), 1)
	if vals != nil {
		return vals[0]
	}
	return c
}

func TestEvalArithmetic(t *testing.T) {
	tp := row(t, 10, 4)
	// Runtime (non-constant-folded) float arithmetic, matching the
	// program's left-to-right evaluation.
	ten, disc, tax := 10.0, 0.1, 0.05
	q1shape := ten * (1 - disc) * (1 + tax)
	cases := []struct {
		e    Expr
		want float64
	}{
		{NewCol("A"), 10},
		{NewConst(7), 7},
		{Add(NewCol("A"), NewCol("B")), 14},
		{Sub(NewCol("A"), NewCol("B")), 6},
		{Mul(NewCol("A"), NewCol("B")), 40},
		{Div(NewCol("A"), NewCol("B")), 2.5},
		// The paper's Query-1 expression shape (same float rounding as the
		// equivalent left-to-right Go computation).
		{Mul(Mul(NewCol("A"), Sub(NewConst(1), NewConst(0.1))), Add(NewConst(1), NewConst(0.05))), q1shape},
	}
	for _, tc := range cases {
		if err := tc.e.Bind(tp.Schema); err != nil {
			t.Fatalf("bind %s: %v", tc.e, err)
		}
		if got := eval(t, tc.e, tp); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestBindErrors(t *testing.T) {
	s := schema(t)
	if err := NewCol("NOPE").Bind(s); err == nil {
		t.Errorf("unknown column should not bind")
	}
	if err := NewCol("C").Bind(s); err == nil {
		t.Errorf("char column should not bind as numeric")
	}
	if err := Add(NewCol("A"), NewCol("NOPE")).Bind(s); err == nil {
		t.Errorf("binding should descend into operands")
	}
}

func TestColumnsOf(t *testing.T) {
	e := Mul(Add(NewCol("b"), NewCol("A")), NewCol("B"))
	got := ColumnsOf(e)
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("ColumnsOf = %v, want [A B] (sorted, deduped, upper)", got)
	}
	if cols := ColumnsOf(NewConst(1)); len(cols) != 0 {
		t.Errorf("constant should reference no columns")
	}
}

func TestEqual(t *testing.T) {
	a1 := Mul(NewCol("A"), Sub(NewConst(1), NewCol("B")))
	a2 := Mul(NewCol("a"), Sub(NewConst(1), NewCol("b")))
	b := Mul(NewCol("A"), Sub(NewConst(2), NewCol("B")))
	if !Equal(a1, a2) {
		t.Errorf("case-insensitive structural equality failed")
	}
	if Equal(a1, b) {
		t.Errorf("different constants should not be equal")
	}
	if Equal(NewCol("A"), NewConst(1)) {
		t.Errorf("different node kinds should not be equal")
	}
}

func TestString(t *testing.T) {
	e := Mul(NewCol("X"), Sub(NewConst(1), NewCol("Y")))
	if got := e.String(); got != "(X * (1 - Y))" {
		t.Errorf("String = %q", got)
	}
}

func TestDateColumnEval(t *testing.T) {
	tp := tuple.NewTuple(schema(t))
	tp.SetInt32(2, tuple.MustParseDate("1997-04-30"))
	e := NewCol("D")
	if err := e.Bind(tp.Schema); err != nil {
		t.Fatal(err)
	}
	if got := eval(t, e, tp); got != float64(tuple.MustParseDate("1997-04-30")) {
		t.Errorf("date eval = %v", got)
	}
}

// TestQuickEvalMatchesGo property-tests expression evaluation against the
// same computation in plain Go.
func TestQuickEvalMatchesGo(t *testing.T) {
	s := schema(t)
	e := Mul(Mul(NewCol("A"), Sub(NewConst(1), NewCol("B"))), Add(NewConst(1), NewCol("B")))
	if err := e.Bind(s); err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		tp := tuple.NewTuple(s)
		tp.SetFloat64(0, a)
		tp.SetFloat64(1, b)
		want := a * (1 - b) * (1 + b)
		got := eval(t, e, tp)
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickEqualReflexive: every random expression equals itself.
func TestQuickEqualReflexive(t *testing.T) {
	gen := func(depth int, seed int64) Expr {
		var build func(d int, s *int64) Expr
		build = func(d int, s *int64) Expr {
			*s = *s*6364136223846793005 + 1442695040888963407
			if d == 0 || *s%3 == 0 {
				if *s%2 == 0 {
					return NewCol([]string{"A", "B", "D"}[uint64(*s)%3])
				}
				return NewConst(float64(*s % 100))
			}
			op := BinOp(uint64(*s) % 4)
			return NewBinary(op, build(d-1, s), build(d-1, s))
		}
		return build(depth, &seed)
	}
	f := func(seed int64) bool {
		e := gen(4, seed)
		return Equal(e, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
