package exec_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// batchOpts exercises small batches so multi-batch paths and grade-class
// flushes run even on the tiny test relations.
var batchOpts = exec.ExecOptions{BatchSize: 64, PrefetchWindow: 4}

// deleteEveryNth deletes every n-th record so batch decoding exercises the
// slot-skipping copy path.
func deleteEveryNth(t *testing.T, h *storage.HeapFile, n int) {
	t.Helper()
	var rids []storage.RID
	if err := h.Scan(func(_ tuple.Tuple, rid storage.RID) error {
		rids = append(rids, rid)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rids); i += n {
		if _, err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// collectBatched drains a batch iterator through the tuple adapter,
// copying every tuple.
func collectBatched(t *testing.T, it exec.BatchIter) []tuple.Tuple {
	t.Helper()
	out, err := exec.CollectTuples(exec.NewBatchToTuples(it))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tuplesEqual compares two tuple sequences byte for byte.
func tuplesEqual(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestBatchTableScanEqualsRowScan: for random predicates, orders, bucket
// sizes and deleted records, the scan yields exactly the reference
// filter's tuple sequence across small batches.
func TestBatchTableScanEqualsRowScan(t *testing.T) {
	orders := []tpcd.Order{tpcd.OrderSorted, tpcd.OrderSpec, tpcd.OrderShuffled}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: seed, Order: orders[rng.Intn(3)]}, 1+rng.Intn(3))
		if rng.Intn(2) == 0 {
			deleteEveryNth(t, h, 2+rng.Intn(9))
		}
		p := randPred(rng, 2)
		want := refTuples(t, h, p)
		got := collectBatched(t, exec.NewBatchTableScan(h, p, batchOpts))
		if !tuplesEqual(got, want) {
			t.Logf("seed %d: %d scanned tuples vs %d (pred %s)", seed, len(got), len(want), p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBatchSMAScanEqualsRowScan: SMA_Scan returns exactly the reference
// filter's tuples across small batches, and counts the buckets and pages
// the grades imply.
func TestBatchSMAScanEqualsRowScan(t *testing.T) {
	orders := []tpcd.Order{tpcd.OrderSorted, tpcd.OrderDiagonal, tpcd.OrderShuffled}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: seed, Order: orders[rng.Intn(3)]}, 1+rng.Intn(3))
		smas := buildQ1SMAs(t, h)
		grader := core.NewGrader(smas["min"], smas["max"])
		p := randPred(rng, 2)

		want := refTuples(t, h, p)
		scan := exec.NewBatchSMAScan(h, p, grader, batchOpts)
		got := collectBatched(t, scan)
		if !tuplesEqual(got, want) {
			t.Logf("seed %d: %d scanned tuples vs %d (pred %s)", seed, len(got), len(want), p)
			return false
		}
		st, ref := scan.Stats(), refGrades(t, h, grader, p)
		if st.Qualifying != ref.Qualifying || st.Disqualifying != ref.Disqualifying ||
			st.Ambivalent != ref.Ambivalent || st.PagesRead != ref.PagesRead {
			t.Logf("seed %d: scan stats %+v vs graded %+v", seed, st, ref)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBatchGAggrEqualsGAggr: hash aggregation over small batches produces
// rows bit-identical to the reference fold — same accumulation order, same
// groups — with and without GROUP BY.
func TestBatchGAggrEqualsGAggr(t *testing.T) {
	groupings := [][]string{{"L_RETURNFLAG", "L_LINESTATUS"}, {"L_RETURNFLAG"}, nil}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: seed, Order: tpcd.OrderShuffled}, 1+rng.Intn(3))
		if rng.Intn(2) == 0 {
			deleteEveryNth(t, h, 3+rng.Intn(7))
		}
		groupBy := groupings[rng.Intn(len(groupings))]
		p := randPred(rng, 2)

		want := refRows(t, h, p, q1Specs(), groupBy)
		got, err := exec.CollectRows(exec.NewBatchGAggr(exec.NewBatchTableScan(h, p, batchOpts), h.Schema(), q1Specs(), groupBy))
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(t, got, want, 0) {
			t.Logf("seed %d (pred %s)", seed, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSMAGAggrBatchedEqualsRow: SMA_GAggr inspecting its ambivalent buckets
// in small batches behind a short prefetch window equals the reference
// fold (SMA entries add in bucket order, so up to float tolerance).
func TestSMAGAggrBatchedEqualsRow(t *testing.T) {
	orders := []tpcd.Order{tpcd.OrderSorted, tpcd.OrderDiagonal, tpcd.OrderShuffled}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: seed, Order: orders[rng.Intn(3)]}, 1+rng.Intn(3))
		smas := buildQ1SMAs(t, h)
		groupBy := []string{"L_RETURNFLAG", "L_LINESTATUS"}
		aggSMAs := []*core.SMA{smas["qty"], smas["ext"], smas["extdis"], smas["extdistax"],
			smas["qty"], smas["ext"], smas["dis"], smas["count"]}
		p := randPred(rng, 2)

		want := refRows(t, h, p, q1Specs(), groupBy)
		op := exec.NewSMAGAggr(h, p, q1Specs(), groupBy, core.NewGrader(smas["min"], smas["max"]), aggSMAs, smas["count"])
		op.Opts = batchOpts
		got, err := exec.CollectRows(op)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(t, got, want, 1e-6) {
			t.Logf("seed %d (pred %s)", seed, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// cancellingPred cancels a context after a fixed number of evaluations, so
// cancellation lands mid-batch, between two pages of the same fill loop.
type cancellingPred struct {
	pred.Predicate
	after  int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancellingPred) Eval(t tuple.Tuple) bool {
	if c.seen.Add(1) == c.after {
		c.cancel()
	}
	return c.Predicate.Eval(t)
}

// TestBatchScanCancelMidBatch cancels the context from inside the
// selection loop and requires the batched pipeline to abort with the
// context's error at the next page boundary.
func TestBatchScanCancelMidBatch(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.002, Seed: 7, Order: tpcd.OrderSorted}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &cancellingPred{
		Predicate: pred.NewAtom("L_QUANTITY", pred.Ge, 0),
		after:     100,
		cancel:    cancel,
	}
	scan := exec.NewBatchTableScan(h, p, exec.ExecOptions{BatchSize: 64, PrefetchWindow: 4})
	scan.Ctx = ctx
	ga := exec.NewBatchGAggr(scan, h.Schema(), q1Specs(), []string{"L_RETURNFLAG"})
	err := ga.Open()
	if err == nil {
		ga.Close()
		t.Fatal("batched aggregation completed despite mid-batch cancellation")
	}
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := ga.Close(); err != nil {
		t.Fatal(err)
	}
	// The scan must still close cleanly (prefetcher stopped, batch
	// returned) after the abort.
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchToTuplesAdapter spot-checks the adapter against the reference
// filter on pages with deleted slots.
func TestBatchToTuplesAdapter(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: 3, Order: tpcd.OrderSorted}, 2)
	deleteEveryNth(t, h, 5)
	want := refTuples(t, h, nil)
	got := collectBatched(t, exec.NewBatchTableScan(h, nil, batchOpts))
	if !tuplesEqual(got, want) {
		t.Fatalf("adapter sequence differs: %d vs %d tuples", len(got), len(want))
	}
}
