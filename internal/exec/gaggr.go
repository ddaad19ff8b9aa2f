package exec

import (
	"fmt"
	"sort"

	"sma/internal/core"
	"sma/internal/tuple"
)

// FinishPartials runs the post-processing phase over (possibly merged)
// partial group states and emits rows in key order. For a global aggregate
// (no GROUP BY, global=true) with empty input, one all-zero row is
// emitted, matching SQL COUNT semantics well enough for this engine.
// The partials are finished in place.
func FinishPartials(groups map[core.GroupKey]*Partial, specs []AggSpec, global bool) []Row {
	if global && len(groups) == 0 {
		groups[""] = newGroupAcc(nil, len(specs))
	}
	keys := make([]core.GroupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Row, 0, len(keys))
	for _, k := range keys {
		acc := groups[k]
		acc.finish(specs)
		out = append(out, Row{Key: k, Vals: acc.Vals, Aggs: acc.Aggs})
	}
	return out
}

// SortRows is an ORDER BY over aggregation rows; it sorts by the group-by
// values (ascending), which is what TPC-D Query 1 requires.
type SortRows struct {
	Input RowIter

	rows []Row
	pos  int
}

// NewSortRows wraps input.
func NewSortRows(input RowIter) *SortRows { return &SortRows{Input: input} }

// Open materializes and sorts the input.
func (s *SortRows) Open() error {
	if err := s.Input.Open(); err != nil {
		return err
	}
	defer s.Input.Close()
	s.rows = s.rows[:0]
	for {
		r, ok, err := s.Input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, r)
	}
	sort.Slice(s.rows, func(i, j int) bool { return lessVals(s.rows[i].Vals, s.rows[j].Vals) })
	s.pos = 0
	return nil
}

// lessVals orders group values lexicographically.
func lessVals(a, b []core.GroupVal) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i].IsStr != b[i].IsStr {
			return a[i].IsStr // strings before numbers; schemas make this consistent
		}
		if a[i].IsStr {
			if a[i].Str != b[i].Str {
				return a[i].Str < b[i].Str
			}
		} else if a[i].Num != b[i].Num {
			return a[i].Num < b[i].Num
		}
	}
	return len(a) < len(b)
}

// Next returns rows in sorted order.
func (s *SortRows) Next() (Row, bool, error) {
	if s.pos >= len(s.rows) {
		return Row{}, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close releases the sorted rows.
func (s *SortRows) Close() error {
	s.rows = nil
	return nil
}

// CollectRows drains a RowIter, returning all rows; a convenience for tests
// and examples.
func CollectRows(it RowIter) ([]Row, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// CollectTuples drains a TupleIter, copying each tuple (scan pipelines
// return tuples that alias their batch buffer).
func CollectTuples(it TupleIter) ([]tuple.Tuple, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []tuple.Tuple
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t.Copy())
	}
}

// RowString renders a row for display.
func RowString(r Row) string {
	s := "["
	for i, v := range r.Vals {
		if i > 0 {
			s += " "
		}
		s += v.String()
	}
	s += " |"
	for _, a := range r.Aggs {
		s += fmt.Sprintf(" %.4f", a)
	}
	return s + "]"
}
