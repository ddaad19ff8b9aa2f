package testutil

import (
	"fmt"

	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// EvalPred decides p for t one tuple at a time, resolving columns by name:
// the reference the selection kernels and the grader are checked against.
// It shares no code with either. A CHAR(1) column compares as its byte.
func EvalPred(p pred.Predicate, t tuple.Tuple) bool {
	switch x := p.(type) {
	case pred.True, *pred.True:
		return true
	case *pred.Atom:
		l, r := colValue(t, x.Col), x.Value
		if x.RightCol != "" {
			r = colValue(t, x.RightCol)
		}
		switch x.Op {
		case pred.Eq:
			return l == r
		case pred.Ne:
			return l != r
		case pred.Lt:
			return l < r
		case pred.Le:
			return l <= r
		case pred.Gt:
			return l > r
		case pred.Ge:
			return l >= r
		}
	case *pred.And:
		for _, k := range x.Kids {
			if !EvalPred(k, t) {
				return false
			}
		}
		return true
	case *pred.Or:
		for _, k := range x.Kids {
			if EvalPred(k, t) {
				return true
			}
		}
		return false
	case *pred.Not:
		return !EvalPred(x.Kid, t)
	}
	panic(fmt.Sprintf("testutil: no reference for predicate %T(%v)", p, p))
}

// EvalExpr computes e for t in float64 one tuple at a time, resolving
// columns by name: the reference the vector program is checked against.
func EvalExpr(e expr.Expr, t tuple.Tuple) float64 {
	switch x := e.(type) {
	case *expr.Col:
		return colValue(t, x.Name)
	case *expr.Const:
		return x.Value
	case *expr.Binary:
		l, r := EvalExpr(x.Left, t), EvalExpr(x.Right, t)
		switch x.Op {
		case expr.OpAdd:
			return l + r
		case expr.OpSub:
			return l - r
		case expr.OpMul:
			return l * r
		case expr.OpDiv:
			return l / r
		}
	}
	panic(fmt.Sprintf("testutil: no reference for expression %T(%v)", e, e))
}

// colValue reads the named column of t as a float64.
func colValue(t tuple.Tuple, name string) float64 {
	i := t.Schema.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("testutil: unknown column %q", name))
	}
	if t.Schema.Column(i).Type == tuple.TChar {
		// A CHAR column reads as its first byte, a blank when it is empty.
		if b := t.CharBytes(i); len(b) > 0 {
			return float64(b[0])
		}
		return ' '
	}
	return t.Numeric(i)
}

// BucketRecords visits the live records of bucket b of h in physical
// order, a page at a time.
func BucketRecords(h *storage.HeapFile, b int, visit func(tuple.Tuple, storage.RID) error) error {
	first, last := h.BucketRange(b)
	for p := first; p <= last; p++ {
		if err := h.PageRecords(p, visit); err != nil {
			return err
		}
	}
	return nil
}
