package exec

import (
	"fmt"
	"strings"

	"sma/internal/pred"
	"sma/internal/tuple"
)

// LimitTuples truncates a tuple stream after N tuples.
type LimitTuples struct {
	Input TupleIter
	N     int
	seen  int
}

// NewLimitTuples wraps input.
func NewLimitTuples(input TupleIter, n int) *LimitTuples {
	return &LimitTuples{Input: input, N: n}
}

// Open opens the input.
func (l *LimitTuples) Open() error {
	l.seen = 0
	return l.Input.Open()
}

// Next returns tuples until the limit is reached.
func (l *LimitTuples) Next() (tuple.Tuple, bool, error) {
	if l.seen >= l.N {
		return tuple.Tuple{}, false, nil
	}
	t, ok, err := l.Input.Next()
	if ok {
		l.seen++
	}
	return t, ok, err
}

// Close closes the input.
func (l *LimitTuples) Close() error { return l.Input.Close() }

// RowCond is a comparison on an output column of an aggregation (a HAVING
// condition): the named column is an aggregate alias or a group-by column.
type RowCond struct {
	Name  string
	Op    pred.CmpOp
	Value float64
}

// String renders the condition.
func (c RowCond) String() string {
	return fmt.Sprintf("%s %s %g", c.Name, c.Op, c.Value)
}

// HavingFilter applies RowConds (conjunctively) to aggregation rows.
type HavingFilter struct {
	Input RowIter
	Conds []RowCond

	// Layout of the rows: group-by column names and aggregate aliases.
	GroupBy []string
	Specs   []AggSpec

	resolve []func(Row) (float64, bool)
}

// NewHavingFilter builds the filter; groupBy and specs describe the row
// layout produced by the aggregation below.
func NewHavingFilter(input RowIter, groupBy []string, specs []AggSpec, conds []RowCond) *HavingFilter {
	return &HavingFilter{Input: input, Conds: conds, GroupBy: groupBy, Specs: specs}
}

// Open resolves condition names against the row layout.
func (h *HavingFilter) Open() error {
	h.resolve = h.resolve[:0]
	for _, c := range h.Conds {
		fn, err := h.resolver(c.Name)
		if err != nil {
			return err
		}
		h.resolve = append(h.resolve, fn)
	}
	return h.Input.Open()
}

// resolver maps a HAVING column name to a row accessor.
func (h *HavingFilter) resolver(name string) (func(Row) (float64, bool), error) {
	for i, g := range h.GroupBy {
		if strings.EqualFold(g, name) {
			i := i
			return func(r Row) (float64, bool) { return r.Vals[i].Numeric() }, nil
		}
	}
	for i, sp := range h.Specs {
		if strings.EqualFold(sp.Name, name) {
			i := i
			return func(r Row) (float64, bool) { return r.Aggs[i], true }, nil
		}
	}
	return nil, fmt.Errorf("exec: HAVING references unknown output column %q", name)
}

// Next returns the next row passing every condition.
func (h *HavingFilter) Next() (Row, bool, error) {
	for {
		r, ok, err := h.Input.Next()
		if err != nil || !ok {
			return r, ok, err
		}
		pass := true
		for i, c := range h.Conds {
			v, comparable := h.resolve[i](r)
			if !comparable || !c.Op.Compare(v, c.Value) {
				pass = false
				break
			}
		}
		if pass {
			return r, true, nil
		}
	}
}

// Close closes the input.
func (h *HavingFilter) Close() error { return h.Input.Close() }

// LimitRows truncates a row stream after N rows.
type LimitRows struct {
	Input RowIter
	N     int
	seen  int
}

// NewLimitRows wraps input.
func NewLimitRows(input RowIter, n int) *LimitRows {
	return &LimitRows{Input: input, N: n}
}

// Open opens the input.
func (l *LimitRows) Open() error {
	l.seen = 0
	return l.Input.Open()
}

// Next returns rows until the limit is reached.
func (l *LimitRows) Next() (Row, bool, error) {
	if l.seen >= l.N {
		return Row{}, false, nil
	}
	r, ok, err := l.Input.Next()
	if ok {
		l.seen++
	}
	return r, ok, err
}

// Close closes the input.
func (l *LimitRows) Close() error { return l.Input.Close() }
