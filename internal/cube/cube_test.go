package cube_test

import (
	"math"
	"testing"

	"sma/internal/cube"
	"sma/internal/exec"
	"sma/internal/experiments"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// TestSpaceBytesMatchesPaper reproduces the §2.4 cube arithmetic exactly:
// 2556^d * 4 * 48 bytes.
func TestSpaceBytesMatchesPaper(t *testing.T) {
	cases := []struct {
		dims int
		want float64
	}{
		{1, 2556 * 4 * 48},               // 479.25 KB
		{2, 2556 * 2556 * 4 * 48},        // 1196.25 MB
		{3, 2556 * 2556 * 2556 * 4 * 48}, // 2985.95 GB
	}
	for _, tc := range cases {
		if got := cube.SpaceBytes(tc.dims); got != tc.want {
			t.Errorf("SpaceBytes(%d) = %g, want %g", tc.dims, got, tc.want)
		}
	}
	// The paper's printed values.
	if kb := cube.SpaceBytes(1) / 1024; math.Abs(kb-479.25) > 0.01 {
		t.Errorf("1-dim cube = %.2f KB, paper says 479.25 KB", kb)
	}
	if mb := cube.SpaceBytes(2) / (1024 * 1024); math.Abs(mb-1196.25) > 0.01 {
		t.Errorf("2-dim cube = %.2f MB, paper says 1196.25 MB", mb)
	}
	if gb := cube.SpaceBytes(3) / (1024 * 1024 * 1024); math.Abs(gb-2985.95) > 0.01 {
		t.Errorf("3-dim cube = %.2f GB, paper says 2985.95 GB", gb)
	}
}

func loadLineItem(t testing.TB, order tpcd.Order) *storage.HeapFile {
	t.Helper()
	h := testutil.NewHeap(t, tpcd.LineItemSchema(), 1, 2048)
	if _, err := tpcd.LoadLineItem(h, tpcd.Config{ScaleFactor: 0.001, Seed: 13, Order: order}); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCubeAnswersQuery1 cross-checks the cube lookup against the scan
// baseline for several cutoffs.
func TestCubeAnswersQuery1(t *testing.T) {
	h := loadLineItem(t, tpcd.OrderSpec)
	c, err := cube.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, cutoff := range []string{"1998-09-02", "1995-06-17", "1993-01-01"} {
		cut := tuple.MustParseDate(cutoff)
		rows := c.QueryShipdateLE(cut)
		scan := exec.NewBatchTableScan(h, experiments.Q1Pred(int(tuple.MustParseDate("1998-12-01")-cut)), exec.ExecOptions{})
		agg := exec.NewBatchGAggr(scan, h.Schema(), experiments.Q1Specs(), experiments.Q1GroupBy())
		want, err := exec.CollectRows(exec.NewSortRows(agg))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("cutoff %s: %d cube groups, %d scan groups", cutoff, len(rows), len(want))
		}
		// Cube rows come in discovery order; index them by group.
		byGroup := map[string]cube.GroupRow{}
		for _, r := range rows {
			byGroup[r.ReturnFlag+"|"+r.LineStatus] = r
		}
		for i, w := range want {
			got, ok := byGroup[w.Vals[0].Str+"|"+w.Vals[1].Str]
			if !ok {
				t.Fatalf("cutoff %s: cube lacks group (%s,%s)", cutoff, w.Vals[0].Str, w.Vals[1].Str)
			}
			_ = i
			checks := []struct {
				name string
				a, b float64
			}{
				{"sum_qty", got.SumQty, w.Aggs[0]},
				{"sum_base", got.SumBase, w.Aggs[1]},
				{"sum_disc_price", got.SumDisc, w.Aggs[2]},
				{"sum_charge", got.SumCharge, w.Aggs[3]},
				{"count", got.Count, w.Aggs[7]},
			}
			for _, ch := range checks {
				if !testutil.AlmostEqual(ch.a, ch.b) {
					t.Errorf("cutoff %s group %d %s: %v != %v", cutoff, i, ch.name, ch.a, ch.b)
				}
			}
		}
	}
}

// TestCubeInflexibility documents the paper's core criticism: the cube
// answers only the selection it was built for.
func TestCubeInflexibility(t *testing.T) {
	h := loadLineItem(t, tpcd.OrderSpec)
	c, err := cube.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	if !c.CanAnswer("L_SHIPDATE") {
		t.Errorf("cube should answer its own dimension")
	}
	for _, col := range []string{"L_COMMITDATE", "L_RECEIPTDATE", "L_QUANTITY"} {
		if c.CanAnswer(col) {
			t.Errorf("cube should not answer selections on %s", col)
		}
	}
}

// TestCubeEdgeCutoffs: cutoffs outside the domain clamp sensibly.
func TestCubeEdgeCutoffs(t *testing.T) {
	h := loadLineItem(t, tpcd.OrderSpec)
	c, err := cube.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	if rows := c.QueryShipdateLE(tpcd.StartDate - 100); rows != nil {
		t.Errorf("cutoff before the domain should return nothing")
	}
	all := c.QueryShipdateLE(tpcd.EndDate + 100)
	var total float64
	for _, r := range all {
		total += r.Count
	}
	n, err := h.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if total != float64(n) {
		t.Errorf("cutoff after the domain should cover all rows: %v vs %d", total, n)
	}
	if c.MaterializedBytes() <= 0 {
		t.Errorf("MaterializedBytes = %d", c.MaterializedBytes())
	}
}
