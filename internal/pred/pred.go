// Package pred implements selection predicates: the paper's atomic
// comparisons (A = c, A <= c, A < c, A >= c, A > c, and the column-column
// forms A <= B, A < B) plus conjunction, disjunction and negation. Bucket
// grading over these predicates lives in internal/core and their
// evaluation in the selection kernels of internal/exec; this package owns
// the representation. A predicate is immutable once built: Bind validates
// it against a schema and writes nothing, so one parsed predicate is shared
// by every goroutine that grades or scans with it.
package pred

import (
	"fmt"
	"strings"

	"sma/internal/tuple"
)

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators. The paper's partitioning rules cover Eq, Le, Lt,
// Ge and Gt; Ne is supported at evaluation level and graded conservatively.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator in SQL syntax.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Compare applies op to two float64 values.
func (op CmpOp) Compare(l, r float64) bool {
	switch op {
	case Eq:
		return l == r
	case Ne:
		return l != r
	case Lt:
		return l < r
	case Le:
		return l <= r
	case Gt:
		return l > r
	case Ge:
		return l >= r
	default:
		panic("pred: invalid operator")
	}
}

// Flip mirrors the operator so that `c op A` becomes `A Flip(op) c`.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return op
	}
}

// Predicate is a boolean condition on a tuple. It is immutable after
// parsing.
type Predicate interface {
	// Bind checks that every column the predicate names exists in s and is
	// comparable. It writes nothing.
	Bind(s *tuple.Schema) error
	// String renders the predicate in SQL-ish syntax.
	String() string
}

// Atom is an atomic comparison: Col Op Value, or Col Op RightCol when
// RightCol is non-empty. Single-character CHAR columns participate via
// their byte value (see CharConst).
type Atom struct {
	Col      string
	Op       CmpOp
	RightCol string  // col-col comparison when non-empty
	Value    float64 // constant otherwise
}

// NewAtom builds a column-vs-constant atom.
func NewAtom(col string, op CmpOp, value float64) *Atom {
	return &Atom{Col: strings.ToUpper(col), Op: op, Value: value}
}

// NewColAtom builds a column-vs-column atom (the paper's A <= B form).
func NewColAtom(col string, op CmpOp, rightCol string) *Atom {
	return &Atom{Col: strings.ToUpper(col), Op: op, RightCol: strings.ToUpper(rightCol)}
}

// CharConst converts a single character to the constant domain, for
// predicates on CHAR(1) columns such as L_RETURNFLAG = 'R'.
func CharConst(c byte) float64 { return float64(c) }

// checkCol checks that name is a column of s and comparable.
func checkCol(s *tuple.Schema, name string) error {
	i := s.ColumnIndex(name)
	if i < 0 {
		return fmt.Errorf("pred: unknown column %q", name)
	}
	c := s.Column(i)
	if !c.Type.Numeric() && !(c.Type == tuple.TChar && c.Len == 1) {
		return fmt.Errorf("pred: column %q (type %s, len %d) is not comparable", name, c.Type, c.Len)
	}
	return nil
}

// Bind checks the atom's column references.
func (a *Atom) Bind(s *tuple.Schema) error {
	if err := checkCol(s, a.Col); err != nil || a.RightCol == "" {
		return err
	}
	return checkCol(s, a.RightCol)
}

// String renders the atom.
func (a *Atom) String() string {
	if a.RightCol != "" {
		return fmt.Sprintf("%s %s %s", a.Col, a.Op, a.RightCol)
	}
	return fmt.Sprintf("%s %s %g", a.Col, a.Op, a.Value)
}

// And is a conjunction of predicates.
type And struct{ Kids []Predicate }

// NewAnd conjoins the given predicates.
func NewAnd(kids ...Predicate) *And { return &And{Kids: kids} }

// Bind checks every conjunct.
func (p *And) Bind(s *tuple.Schema) error { return bindAll(p.Kids, s) }

// String renders the conjunction.
func (p *And) String() string { return joinKids(p.Kids, " AND ") }

// Or is a disjunction of predicates.
type Or struct{ Kids []Predicate }

// NewOr disjoins the given predicates.
func NewOr(kids ...Predicate) *Or { return &Or{Kids: kids} }

// Bind checks every disjunct.
func (p *Or) Bind(s *tuple.Schema) error { return bindAll(p.Kids, s) }

// String renders the disjunction.
func (p *Or) String() string { return joinKids(p.Kids, " OR ") }

// Not negates a predicate.
type Not struct{ Kid Predicate }

// NewNot negates p.
func NewNot(p Predicate) *Not { return &Not{Kid: p} }

// Bind checks the negated predicate.
func (p *Not) Bind(s *tuple.Schema) error { return p.Kid.Bind(s) }

// String renders the negation.
func (p *Not) String() string { return "NOT (" + p.Kid.String() + ")" }

// True is the always-true predicate (absent WHERE clause).
type True struct{}

// Bind is a no-op.
func (True) Bind(*tuple.Schema) error { return nil }

// String renders TRUE.
func (True) String() string { return "TRUE" }

func bindAll(kids []Predicate, s *tuple.Schema) error {
	for _, k := range kids {
		if err := k.Bind(s); err != nil {
			return err
		}
	}
	return nil
}

func joinKids(kids []Predicate, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = "(" + k.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Atoms collects every atomic comparison in p, in syntax order.
func Atoms(p Predicate) []*Atom {
	var out []*Atom
	var walk func(Predicate)
	walk = func(q Predicate) {
		switch x := q.(type) {
		case *Atom:
			out = append(out, x)
		case *And:
			for _, k := range x.Kids {
				walk(k)
			}
		case *Or:
			for _, k := range x.Kids {
				walk(k)
			}
		case *Not:
			walk(x.Kid)
		}
	}
	walk(p)
	return out
}
