package exec_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
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
		if err := h.Delete(rids[i]); err != nil {
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
			st.Ambivalent != ref.Ambivalent || st.PagesRead != ref.PagesRead || st.PagesPruned != ref.PagesPruned {
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

// TestBatchScanCancelMidBatch cancels the context from inside a page read
// — with a two-page batch, between two pages of the same fill loop — and
// requires the batched pipeline to abort with the context's error at the
// next page boundary.
func TestBatchScanCancelMidBatch(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.002, Seed: 7, Order: tpcd.OrderSorted}, 1)
	if err := h.Pool().DropAll(); err != nil { // so that the scan reads from disk
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reads atomic.Int64
	h.Pool().Disk().SetFault(func(op string, _ storage.PageID) error {
		if op == "read" && reads.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	defer h.Pool().Disk().SetFault(nil)
	p := pred.NewAtom("L_QUANTITY", pred.Ge, 0)
	scan := exec.NewBatchTableScan(h, p, exec.ExecOptions{BatchSize: 64, PrefetchWindow: -1})
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
	if got := scan.Stats().PagesRead; got != 5 {
		t.Fatalf("scan read %d pages before it noticed the cancellation at the 5th", got)
	}
	if err := ga.Close(); err != nil {
		t.Fatal(err)
	}
	// The scan must still close cleanly (batch returned) after the abort.
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
}

// foreignPred is a predicate node package pred does not define.
type foreignPred struct{ pred.Predicate }

// TestUnknownNodeIsATypedErrorAtOpen: the kernels cover a closed node set;
// a node outside it must fail Open with UnsupportedNodeError, not be
// evaluated tuple by tuple on the side.
func TestUnknownNodeIsATypedErrorAtOpen(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: 3, Order: tpcd.OrderSorted}, 1)
	p := pred.NewAnd(pred.NewAtom("L_QUANTITY", pred.Ge, 0), foreignPred{pred.NewAtom("L_QUANTITY", pred.Ge, 0)})
	var unsupported *exec.UnsupportedNodeError
	scan := exec.NewBatchTableScan(h, p, exec.ExecOptions{})
	if err := scan.Open(); !errors.As(err, &unsupported) {
		scan.Close()
		t.Fatalf("scan Open with a foreign predicate node: %v", err)
	}
	mem := exec.NewMemScan(h.Schema(), nil, p)
	if err := mem.Open(); !errors.As(err, &unsupported) {
		t.Fatalf("MemScan Open with a foreign predicate node: %v", err)
	}
	specs := []exec.AggSpec{{Func: exec.AggSum, Arg: foreignExpr{expr.NewCol("L_QUANTITY")}, Name: "S"}}
	ga := exec.NewBatchGAggr(exec.NewBatchTableScan(h, nil, exec.ExecOptions{}), h.Schema(), specs, nil)
	if err := ga.Open(); !errors.As(err, &unsupported) {
		ga.Close()
		t.Fatalf("BatchGAggr Open with a foreign expression node: %v", err)
	}
}

// foreignExpr is an expression node package expr does not define.
type foreignExpr struct{ expr.Expr }

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

// TestDefaultReadaheadCoversTheBatch: a scan reads one batch's pages in a
// burst and then computes on them. With the default window of two batches
// the readers refill during the computation and the next burst finds its
// pages there; with a window shorter than a batch (the old fixed 16 pages
// against 32 pages per batch) every burst overtakes the readers and the scan
// reads half the table itself. Cold, 4 000 pages, table four times the pool,
// a 1 024-row batch, and a consumer that takes 2 ms per batch.
func TestDefaultReadaheadCoversTheBatch(t *testing.T) {
	const perPage, pages = 32, 4000
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "V", Type: tuple.TInt32},
		{Name: "PAD", Type: tuple.TChar, Len: testutil.RecordSize(perPage) - 4},
	})
	h := testutil.NewHeap(t, schema, 1, 1024)
	tp := tuple.NewTuple(schema)
	for i := 0; i < pages*perPage; i++ {
		tp.SetInt32(0, int32(i))
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() != pages || h.RecordsPerPage() != perPage {
		t.Fatalf("%d pages of %d records, want %d of %d", h.NumPages(), h.RecordsPerPage(), pages, perPage)
	}
	if w := (exec.ExecOptions{}).Readahead(perPage); w != 2*exec.DefaultBatchSize/perPage {
		t.Fatalf("default readahead %d pages, want two batches = %d", w, 2*exec.DefaultBatchSize/perPage)
	}
	if w := (exec.ExecOptions{BatchSize: 1}).Readahead(perPage); w != exec.DefaultPrefetchWindow {
		t.Fatalf("readahead of a one-page batch %d, want the floor %d", w, exec.DefaultPrefetchWindow)
	}
	if w := (exec.ExecOptions{PrefetchWindow: 5}).Readahead(perPage); w != 5 {
		t.Fatalf("explicit window 5 resolved to %d", w)
	}
	var last exec.ScanStats
	for attempt := 0; attempt < 3; attempt++ { // a loaded machine may starve the readers once
		if err := h.Pool().DropAll(); err != nil {
			t.Fatal(err)
		}
		scan := exec.NewBatchTableScan(h, pred.NewAtom("V", pred.Ge, 0), exec.ExecOptions{})
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			b, err := scan.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			rows += len(b.Sel)
			time.Sleep(2 * time.Millisecond)
		}
		if err := scan.Close(); err != nil {
			t.Fatal(err)
		}
		last = scan.Stats()
		if rows != pages*perPage || last.PagesRead != pages {
			t.Fatalf("scan saw %d rows on %d pages", rows, last.PagesRead)
		}
		if 10*last.PagesPrefetched >= 9*last.PagesRead {
			return
		}
	}
	t.Errorf("the readers read %d of %d pages; want at least 90%% with the default readahead", last.PagesPrefetched, last.PagesRead)
}
