package exec

import (
	"sort"

	"sma/internal/core"
)

// FinishPartials runs the post-processing phase over (possibly merged)
// partial group states and emits rows in group-value order (lessVals, the
// encoded key breaking ties): the ORDER BY of the grouping columns that
// TPC-D Query 1 asks for. For a global aggregate (no GROUP BY,
// global=true) with empty input, one all-zero row is emitted, matching SQL
// COUNT semantics well enough for this engine. The partials are finished
// in place.
func FinishPartials(groups map[core.GroupKey]*Partial, specs []AggSpec, global bool) []Row {
	if global && len(groups) == 0 {
		groups[""] = newGroupAcc(nil, len(specs))
	}
	out := make([]Row, 0, len(groups))
	for k, acc := range groups {
		acc.finish(specs)
		out = append(out, Row{Key: k, Vals: acc.Vals, Aggs: acc.Aggs})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if lessVals(a.Vals, b.Vals) {
			return true
		}
		if lessVals(b.Vals, a.Vals) {
			return false
		}
		return a.Key < b.Key
	})
	return out
}

// SortRows is an ORDER BY over aggregation rows; it sorts by the group-by
// values (ascending), which is what TPC-D Query 1 requires. FinishPartials
// already emits rows in this order, so the engine's plans do without it.
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

// CollectRows drains a RowIter, returning all rows: how the paper's
// experiments and the benchmark's layer walk read an operator tree.
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
