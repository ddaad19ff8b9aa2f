package exec_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// randPred builds a random predicate over the date and flag columns of
// LINEITEM, combining atoms with AND/OR/NOT up to a small depth.
func randPred(rng *rand.Rand, depth int) pred.Predicate {
	if depth == 0 || rng.Intn(3) == 0 {
		col := []string{"L_SHIPDATE", "L_COMMITDATE", "L_RECEIPTDATE"}[rng.Intn(3)]
		op := []pred.CmpOp{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge}[rng.Intn(6)]
		if rng.Intn(5) == 0 {
			other := []string{"L_SHIPDATE", "L_RECEIPTDATE"}[rng.Intn(2)]
			if other != col {
				return pred.NewColAtom(col, op, other)
			}
		}
		c := float64(tpcd.StartDate) + rng.Float64()*float64(tpcd.EndDate-tpcd.StartDate)
		return pred.NewAtom(col, op, float64(int32(c)))
	}
	a := randPred(rng, depth-1)
	b := randPred(rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return pred.NewAnd(a, b)
	case 1:
		return pred.NewOr(a, b)
	default:
		return pred.NewNot(a)
	}
}

// TestQuickSMAGAggrEqualsGAggr is the whole-plan equivalence property: for
// random predicates, orderings and groupings, the SMA_GAggr result equals
// the reference fold's exactly (up to float tolerance).
func TestQuickSMAGAggrEqualsGAggr(t *testing.T) {
	orders := []tpcd.Order{tpcd.OrderSorted, tpcd.OrderSpec, tpcd.OrderDiagonal, tpcd.OrderShuffled}
	groupings := [][]string{
		{"L_RETURNFLAG", "L_LINESTATUS"},
		{"L_RETURNFLAG"},
		{"L_LINESTATUS"},
		nil, // global aggregate via finer-grouped SMAs rolled up
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: seed, Order: orders[rng.Intn(4)]}, 1+rng.Intn(3))
		smas := buildQ1SMAs(t, h)
		groupBy := groupings[rng.Intn(len(groupings))]
		p := randPred(rng, 2)

		specs := []exec.AggSpec{
			{Func: exec.AggSum, Arg: expr.NewCol("L_QUANTITY"), Name: "SQ"},
			{Func: exec.AggCount, Name: "N"},
			{Func: exec.AggAvg, Arg: expr.NewCol("L_DISCOUNT"), Name: "AD"},
		}
		grader := core.NewGrader(smas["min"], smas["max"])
		smaAgg := exec.NewSMAGAggr(h, p, specs, groupBy, grader,
			[]*core.SMA{smas["qty"], smas["count"], smas["dis"]}, smas["count"])
		got, err := exec.CollectRows(smaAgg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// A global aggregate over zero qualifying tuples is one zero row on
		// both sides.
		if !sameRows(t, got, refRows(t, h, p, specs, groupBy), 1e-6) {
			t.Logf("seed %d (pred %s)", seed, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickSMAScanEqualsFilteredScan: the Fig.-6 operator returns exactly
// the reference filter's tuple sequence for random predicates and bucket
// sizes.
func TestQuickSMAScanEqualsFilteredScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{
			ScaleFactor: 0.0005, Seed: seed,
			Order: tpcd.Order(rng.Intn(4)),
		}, 1+rng.Intn(4))
		smas := buildQ1SMAs(t, h)
		p := randPred(rng, 2)

		scan := exec.NewBatchSMAScan(h, p, core.NewGrader(smas["min"], smas["max"]), exec.ExecOptions{})
		got, want := collectBatched(t, scan), refTuples(t, h, p)
		if !tuplesEqual(got, want) {
			t.Logf("seed %d: %d vs %d tuples (pred %s)", seed, len(got), len(want), p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTupleAliasingContract: tuples from a scan pipeline are valid until
// the next Next call, so CollectTuples must copy — this test would catch a
// missing Copy by seeing duplicated contents.
func TestTupleAliasingContract(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0005, Seed: 4}, 1)
	it := exec.NewBatchToTuples(exec.NewBatchTableScan(h, nil, exec.ExecOptions{}))
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	t1, ok, err := it.Next()
	if !ok || err != nil {
		t.Fatal(err)
	}
	first := t1.Copy()
	var last tuple.Tuple
	for {
		tp, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		last = tp
	}
	_ = last
	// The original (copied) tuple still holds the first record.
	okIdx := h.Schema().ColumnIndex("L_ORDERKEY")
	if first.Int64(okIdx) == 0 {
		t.Errorf("copied tuple lost its contents")
	}
}
