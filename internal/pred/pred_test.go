package pred

import (
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
		{Name: "F", Type: tuple.TChar, Len: 1},
		{Name: "LONG", Type: tuple.TChar, Len: 8},
	})
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		l, r float64
		want bool
	}{
		{Eq, 1, 1, true}, {Eq, 1, 2, false},
		{Ne, 1, 2, true}, {Ne, 1, 1, false},
		{Lt, 1, 2, true}, {Lt, 2, 2, false},
		{Le, 2, 2, true}, {Le, 3, 2, false},
		{Gt, 3, 2, true}, {Gt, 2, 2, false},
		{Ge, 2, 2, true}, {Ge, 1, 2, false},
	}
	for _, tc := range cases {
		if got := tc.op.Compare(tc.l, tc.r); got != tc.want {
			t.Errorf("%v %s %v = %v, want %v", tc.l, tc.op, tc.r, got, tc.want)
		}
	}
}

func TestFlip(t *testing.T) {
	// c op A  must be equivalent to  A Flip(op) c.
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		for _, c := range []float64{1, 2, 3} {
			for _, a := range []float64{1, 2, 3} {
				if op.Compare(c, a) != op.Flip().Compare(a, c) {
					t.Errorf("Flip(%s) broken for c=%v a=%v", op, c, a)
				}
			}
		}
	}
}

func TestBindErrors(t *testing.T) {
	s := schema(t)
	if err := NewAtom("NOPE", Eq, 1).Bind(s); err == nil {
		t.Errorf("unknown column should fail")
	}
	if err := NewAtom("LONG", Eq, 1).Bind(s); err == nil {
		t.Errorf("multi-char column should not be comparable")
	}
	if err := NewColAtom("A", Le, "NOPE").Bind(s); err == nil {
		t.Errorf("unknown right column should fail")
	}
}

func TestAtoms(t *testing.T) {
	p := NewOr(
		NewAnd(NewAtom("A", Le, 1), NewAtom("B", Gt, 2)),
		NewNot(NewColAtom("D", Lt, "A")),
	)
	atoms := Atoms(p)
	if len(atoms) != 3 {
		t.Fatalf("Atoms = %d, want 3", len(atoms))
	}
	for i, col := range []string{"A", "B", "D"} {
		if atoms[i].Col != col {
			t.Errorf("Atoms[%d] is on %s, want %s", i, atoms[i].Col, col)
		}
	}
}

func TestString(t *testing.T) {
	p := NewAnd(NewAtom("A", Le, 5), NewNot(NewColAtom("A", Lt, "B")))
	got := p.String()
	if got != "(A <= 5) AND (NOT (A < B))" {
		t.Errorf("String = %q", got)
	}
}

// TestQuickFlipInvolution: flipping twice is the identity.
func TestQuickFlipInvolution(t *testing.T) {
	f := func(op uint8) bool {
		o := CmpOp(op % 6)
		return o.Flip().Flip() == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
