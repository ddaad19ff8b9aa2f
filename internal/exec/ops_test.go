package exec_test

import (
	"testing"

	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/tpcd"
)

// TestLimitOperators: tuple and row limits truncate exactly.
func TestLimitOperators(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0005, Seed: 2}, 1)
	got, err := exec.CollectTuples(exec.NewLimitTuples(exec.NewBatchToTuples(exec.NewBatchTableScan(h, nil, exec.ExecOptions{})), 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Errorf("limit 7 returned %d tuples", len(got))
	}
	agg := scanAgg(h, nil, []exec.AggSpec{{Func: exec.AggCount, Name: "N"}}, []string{"L_RETURNFLAG"})
	rows, err := exec.CollectRows(exec.NewLimitRows(exec.NewSortRows(agg), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("row limit 2 returned %d", len(rows))
	}
}

// TestHavingFilter: conditions on aggregate aliases and group columns.
func TestHavingFilter(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.001, Seed: 2}, 1)
	specs := []exec.AggSpec{
		{Func: exec.AggCount, Name: "N"},
		{Func: exec.AggSum, Arg: expr.NewCol("L_QUANTITY"), Name: "SQ"},
	}
	groupBy := []string{"L_RETURNFLAG"}
	all := refRows(t, h, nil, specs, groupBy)
	// Pick a threshold between the smallest and largest group count.
	lo, hi := all[0].Aggs[0], all[0].Aggs[0]
	for _, r := range all {
		if r.Aggs[0] < lo {
			lo = r.Aggs[0]
		}
		if r.Aggs[0] > hi {
			hi = r.Aggs[0]
		}
	}
	if lo == hi {
		t.Skip("degenerate data: all groups equal")
	}
	threshold := (lo + hi) / 2
	want := 0
	for _, r := range all {
		if r.Aggs[0] > threshold {
			want++
		}
	}
	hav := exec.NewHavingFilter(
		scanAgg(h, nil, specs, groupBy),
		groupBy, specs,
		[]exec.RowCond{{Name: "N", Op: pred.Gt, Value: threshold}})
	got, err := exec.CollectRows(hav)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want {
		t.Errorf("having returned %d groups, want %d", len(got), want)
	}
	// Group-column condition: L_RETURNFLAG = 'R' (byte comparison).
	hav2 := exec.NewHavingFilter(
		scanAgg(h, nil, specs, groupBy),
		groupBy, specs,
		[]exec.RowCond{{Name: "L_RETURNFLAG", Op: pred.Eq, Value: pred.CharConst('R')}})
	got2, err := exec.CollectRows(hav2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 || got2[0].Vals[0].Str != "R" {
		t.Errorf("having on group column = %v", got2)
	}
	// Unknown name errors at Open.
	bad := exec.NewHavingFilter(
		scanAgg(h, nil, specs, groupBy),
		groupBy, specs, []exec.RowCond{{Name: "NOPE", Op: pred.Eq, Value: 0}})
	if err := bad.Open(); err == nil {
		t.Errorf("unknown HAVING column should fail")
	}
}
