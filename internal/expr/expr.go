// Package expr implements scalar arithmetic expressions over tuples, the
// value domain of SMA aggregates: column references, numeric constants and
// the operators + - * /. This is exactly what the paper's Query-1 SMAs
// need, e.g. sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT) * (1 + L_TAX)). An
// expression is immutable once built; Program evaluates it.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"sma/internal/tuple"
)

// Expr is a scalar expression over a tuple's numeric columns, valued in
// float64. It is immutable after parsing; a Program compiles it against a
// schema to evaluate it.
type Expr interface {
	// Columns appends the names of referenced columns to dst.
	Columns(dst []string) []string
	// String renders the expression in SQL-ish syntax.
	String() string
	// Bind checks the column references against s, returning an error for
	// unknown or non-numeric columns. It writes nothing.
	Bind(s *tuple.Schema) error
}

// Col is a reference to a numeric column.
type Col struct {
	Name string
}

// NewCol creates a column reference.
func NewCol(name string) *Col { return &Col{Name: name} }

// Bind checks that the column exists in s and is numeric.
func (c *Col) Bind(s *tuple.Schema) error {
	_, err := numericCol(s, c.Name)
	return err
}

// numericCol resolves name in s to a numeric column's index.
func numericCol(s *tuple.Schema, name string) (int, error) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return -1, fmt.Errorf("expr: unknown column %q", name)
	}
	if !s.Column(i).Type.Numeric() {
		return -1, fmt.Errorf("expr: column %q has non-numeric type %s", name, s.Column(i).Type)
	}
	return i, nil
}

// Columns appends the column name.
func (c *Col) Columns(dst []string) []string { return append(dst, strings.ToUpper(c.Name)) }

// String returns the column name.
func (c *Col) String() string { return c.Name }

// Const is a numeric literal.
type Const struct{ Value float64 }

// NewConst creates a literal.
func NewConst(v float64) *Const { return &Const{Value: v} }

// Bind is a no-op for literals.
func (c *Const) Bind(*tuple.Schema) error { return nil }

// Columns returns dst unchanged.
func (c *Const) Columns(dst []string) []string { return dst }

// String renders the literal.
func (c *Const) String() string { return fmt.Sprintf("%g", c.Value) }

// BinOp is the operator of a binary arithmetic expression.
type BinOp uint8

// Supported arithmetic operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
)

// String renders the operator symbol.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return fmt.Sprintf("BinOp(%d)", uint8(op))
	}
}

// Binary is a binary arithmetic expression.
type Binary struct {
	Op          BinOp
	Left, Right Expr
}

// NewBinary creates a binary expression node.
func NewBinary(op BinOp, l, r Expr) *Binary { return &Binary{Op: op, Left: l, Right: r} }

// Add returns l + r.
func Add(l, r Expr) *Binary { return NewBinary(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) *Binary { return NewBinary(OpSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) *Binary { return NewBinary(OpMul, l, r) }

// Div returns l / r.
func Div(l, r Expr) *Binary { return NewBinary(OpDiv, l, r) }

// Bind checks both operands.
func (b *Binary) Bind(s *tuple.Schema) error {
	if err := b.Left.Bind(s); err != nil {
		return err
	}
	return b.Right.Bind(s)
}

// Columns appends columns from both operands.
func (b *Binary) Columns(dst []string) []string {
	return b.Right.Columns(b.Left.Columns(dst))
}

// String renders the expression fully parenthesized.
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

// ColumnsOf returns the sorted, de-duplicated set of column names referenced
// by e.
func ColumnsOf(e Expr) []string {
	cols := e.Columns(nil)
	sort.Strings(cols)
	out := cols[:0]
	var prev string
	for i, c := range cols {
		if i == 0 || c != prev {
			out = append(out, c)
		}
		prev = c
	}
	return out
}

// Equal reports structural equality of two expressions. It is used to
// match query aggregate expressions against SMA definitions in the catalog.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *Col:
		y, ok := b.(*Col)
		return ok && strings.EqualFold(x.Name, y.Name)
	case *Const:
		y, ok := b.(*Const)
		return ok && x.Value == y.Value
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && Equal(x.Left, y.Left) && Equal(x.Right, y.Right)
	default:
		return false
	}
}
