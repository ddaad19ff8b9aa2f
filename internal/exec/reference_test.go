package exec_test

import (
	"math"
	"sort"
	"testing"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// refTuples is the reference filter the scans are compared against: one
// pass over HeapFile.Scan through testutil.EvalPred, no operator of
// package exec involved. It returns
// copies of the tuples satisfying p (nil: all), in physical order.
func refTuples(t testing.TB, h *storage.HeapFile, p pred.Predicate) []tuple.Tuple {
	t.Helper()
	if p != nil {
		if err := p.Bind(h.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	var out []tuple.Tuple
	if err := h.Scan(func(tp tuple.Tuple, _ storage.RID) error {
		if p == nil || testutil.EvalPred(p, tp) {
			out = append(out, tp.Copy())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// refRows is the reference fold the aggregation operators are compared
// against: the tuples of refTuples accumulated one at a time, in physical
// order, into one row per group; rows come back in group-key order, AVG
// divided last, and a global aggregate over nothing is one zero row.
func refRows(t testing.TB, h *storage.HeapFile, p pred.Predicate, specs []exec.AggSpec, groupBy []string) []exec.Row {
	t.Helper()
	for i := range specs {
		if err := specs[i].Validate(h.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	var gx *core.Extractor
	if len(groupBy) > 0 {
		var err error
		if gx, err = core.NewExtractor(h.Schema(), groupBy); err != nil {
			t.Fatal(err)
		}
	}
	rows := map[core.GroupKey]*exec.Row{}
	counts := map[core.GroupKey]float64{}
	if gx == nil {
		rows[""] = &exec.Row{Aggs: make([]float64, len(specs))}
	}
	for _, tp := range refTuples(t, h, p) {
		var key core.GroupKey
		var vals []core.GroupVal
		if gx != nil {
			vals = gx.Vals(tp)
			key = core.MakeGroupKey(vals)
		}
		r := rows[key]
		if r == nil {
			r = &exec.Row{Key: key, Vals: vals, Aggs: make([]float64, len(specs))}
			rows[key] = r
		}
		for i, sp := range specs {
			switch sp.Func {
			case exec.AggCount:
				r.Aggs[i]++
			case exec.AggSum, exec.AggAvg:
				r.Aggs[i] += testutil.EvalExpr(sp.Arg, tp)
			case exec.AggMin:
				if v := testutil.EvalExpr(sp.Arg, tp); counts[key] == 0 || v < r.Aggs[i] {
					r.Aggs[i] = v
				}
			case exec.AggMax:
				if v := testutil.EvalExpr(sp.Arg, tp); counts[key] == 0 || v > r.Aggs[i] {
					r.Aggs[i] = v
				}
			}
		}
		counts[key]++
	}
	out := make([]exec.Row, 0, len(rows))
	for key, r := range rows {
		for i, sp := range specs {
			if sp.Func == exec.AggAvg && counts[key] > 0 {
				r.Aggs[i] /= counts[key]
			}
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// sameRows reports whether got equals want group for group, each aggregate
// within relative tolerance tol (0: bit for bit), logging the first
// difference.
func sameRows(t testing.TB, got, want []exec.Row, tol float64) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Logf("%d groups, want %d", len(got), len(want))
		return false
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Logf("group %d key %q, want %q", i, got[i].Key, want[i].Key)
			return false
		}
		for j, w := range want[i].Aggs {
			if g := got[i].Aggs[j]; g != w && math.Abs(g-w) > tol*math.Max(1, math.Abs(w)) {
				t.Logf("group %d agg %d = %v, want %v", i, j, g, w)
				return false
			}
		}
	}
	return true
}

// refGrades reports what a scan of h under p should count: the bucket
// classification from the grader's own run list, a bucket at a time, and
// the pages of the buckets it does not disqualify.
func refGrades(t testing.TB, h *storage.HeapFile, g *core.Grader, p pred.Predicate) exec.ScanStats {
	t.Helper()
	if err := p.Bind(h.Schema()); err != nil {
		t.Fatal(err)
	}
	var st exec.ScanStats
	for _, r := range g.RunsFor(p, h.NumBuckets()) {
		for b := int(r.Lo); b < int(r.Hi); b++ {
			first, last := h.BucketRange(b)
			switch r.Grade {
			case core.Disqualifies:
				st.Disqualifying++
				st.PagesPruned += int(last-first) + 1
				continue
			case core.Qualifies:
				st.Qualifying++
			default:
				st.Ambivalent++
			}
			st.PagesRead += int(last-first) + 1
		}
	}
	return st
}
