package tpcd

import (
	"testing"
	"testing/quick"

	"sma/internal/tuple"
)

// TestDomains: every generated value stays inside the TPC-D domains the
// grading logic and the paper's cube arithmetic assume.
func TestDomains(t *testing.T) {
	items := GenLineItems(Config{ScaleFactor: 0.003, Seed: 1})
	if len(items) == 0 {
		t.Fatal("no items")
	}
	for i, li := range items {
		if li.Quantity < 1 || li.Quantity > 50 {
			t.Fatalf("item %d: quantity %g", i, li.Quantity)
		}
		if li.Discount < 0 || li.Discount > 0.10 {
			t.Fatalf("item %d: discount %g", i, li.Discount)
		}
		if li.Tax < 0 || li.Tax > 0.08 {
			t.Fatalf("item %d: tax %g", i, li.Tax)
		}
		if li.ShipDate < StartDate || li.ShipDate > EndDate {
			t.Fatalf("item %d: shipdate %s", i, tuple.FormatDate(li.ShipDate))
		}
		if li.ReceiptDate <= li.ShipDate {
			t.Fatalf("item %d: receipt %d <= ship %d", i, li.ReceiptDate, li.ShipDate)
		}
		if li.ExtendedPrice <= 0 {
			t.Fatalf("item %d: price %g", i, li.ExtendedPrice)
		}
		switch li.ReturnFlag {
		case 'R', 'A':
			if li.ReceiptDate > CurrentDate {
				t.Fatalf("item %d: flag %c with receipt after currentdate", i, li.ReturnFlag)
			}
		case 'N':
			if li.ReceiptDate <= CurrentDate {
				t.Fatalf("item %d: flag N with receipt before currentdate", i)
			}
		default:
			t.Fatalf("item %d: flag %c", i, li.ReturnFlag)
		}
		switch li.LineStatus {
		case 'O':
			if li.ShipDate <= CurrentDate {
				t.Fatalf("item %d: status O shipped before currentdate", i)
			}
		case 'F':
			if li.ShipDate > CurrentDate {
				t.Fatalf("item %d: status F shipped after currentdate", i)
			}
		default:
			t.Fatalf("item %d: status %c", i, li.LineStatus)
		}
	}
}

// TestDeterminism: same seed, same data.
func TestDeterminism(t *testing.T) {
	a := GenLineItems(Config{ScaleFactor: 0.001, Seed: 5, Order: OrderDiagonal})
	b := GenLineItems(Config{ScaleFactor: 0.001, Seed: 5, Order: OrderDiagonal})
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs", i)
		}
	}
	c := GenLineItems(Config{ScaleFactor: 0.001, Seed: 6, Order: OrderDiagonal})
	same := len(a) == len(c)
	if same {
		same = false
		for i := range a {
			if a[i] != c[i] {
				break
			}
			if i == len(a)-1 {
				same = true
			}
		}
	}
	if same {
		t.Errorf("different seeds produced identical data")
	}
}

// TestSortedOrder: OrderSorted yields nondecreasing shipdates.
func TestSortedOrder(t *testing.T) {
	items := GenLineItems(Config{ScaleFactor: 0.002, Seed: 2, Order: OrderSorted})
	for i := 1; i < len(items); i++ {
		if items[i].ShipDate < items[i-1].ShipDate {
			t.Fatalf("item %d out of order", i)
		}
	}
}

// TestDiagonalClustering: diagonal order has far smaller windowed date
// spread than shuffled order (Fig. 2's point).
func TestDiagonalClustering(t *testing.T) {
	span := func(items []LineItem, window int) float64 {
		total, n := 0.0, 0
		for i := 0; i+window <= len(items); i += window {
			lo, hi := items[i].ShipDate, items[i].ShipDate
			for _, it := range items[i : i+window] {
				if it.ShipDate < lo {
					lo = it.ShipDate
				}
				if it.ShipDate > hi {
					hi = it.ShipDate
				}
			}
			total += float64(hi - lo)
			n++
		}
		return total / float64(n)
	}
	diag := GenLineItems(Config{ScaleFactor: 0.002, Seed: 3, Order: OrderDiagonal})
	shuf := GenLineItems(Config{ScaleFactor: 0.002, Seed: 3, Order: OrderShuffled})
	ds, ss := span(diag, 31), span(shuf, 31)
	if ds*5 > ss {
		t.Errorf("diagonal span %.1f should be far below shuffled %.1f", ds, ss)
	}
}

// TestScaling: cardinalities scale linearly with SF.
func TestScaling(t *testing.T) {
	small := Config{ScaleFactor: 0.001}.NumLineItems()
	big := Config{ScaleFactor: 0.002}.NumLineItems()
	if big < small*2-2 || big > small*2+2 {
		t.Errorf("cardinality not linear: %d vs %d", small, big)
	}
	if sf1 := (Config{ScaleFactor: 1}).NumLineItems(); sf1 != 6001215 {
		t.Errorf("SF1 cardinality = %d, want 6001215", sf1)
	}
	if o := (Config{ScaleFactor: 1}).NumOrders(); o != 1500000 {
		t.Errorf("SF1 orders = %d, want 1500000", o)
	}
}

// TestOrdersGeneration sanity-checks the ORDERS rows.
func TestOrdersGeneration(t *testing.T) {
	rows := GenOrders(Config{ScaleFactor: 0.001, Seed: 4})
	if len(rows) != 1500 {
		t.Fatalf("orders = %d", len(rows))
	}
	for i, o := range rows {
		if o.OrderKey != int64(i+1) {
			t.Fatalf("order %d: key %d", i, o.OrderKey)
		}
		if o.OrderDate < StartDate || o.OrderDate > LastOrderDate {
			t.Fatalf("order %d: date out of range", i)
		}
		if o.TotalPrice <= 0 {
			t.Fatalf("order %d: price %g", i, o.TotalPrice)
		}
	}
}

// TestFillTupleRoundTrip: struct -> tuple -> fields.
func TestFillTupleRoundTrip(t *testing.T) {
	items := GenLineItems(Config{ScaleFactor: 0.0005, Seed: 5})
	s := LineItemSchema()
	tp := tuple.NewTuple(s)
	for _, li := range items[:50] {
		li.FillTuple(tp)
		if tp.Int64(0) != li.OrderKey ||
			tp.Float64(4) != li.Quantity ||
			tp.Char(8) != string(li.ReturnFlag) ||
			tp.Int32(10) != li.ShipDate {
			t.Fatalf("tuple round trip failed for %+v -> %s", li, tp)
		}
	}
	o := GenOrders(Config{ScaleFactor: 0.0005, Seed: 5})[0]
	ot := tuple.NewTuple(OrdersSchema())
	o.FillTuple(ot)
	if ot.Int64(0) != o.OrderKey || ot.Int32(4) != o.OrderDate {
		t.Fatalf("orders tuple round trip failed")
	}
}

// TestRetailPriceFormula spot-checks the TPC-D pricing arithmetic through
// generated rows: extendedprice = quantity * retailprice(partkey).
func TestRetailPriceFormula(t *testing.T) {
	items := GenLineItems(Config{ScaleFactor: 0.0005, Seed: 8})
	for _, li := range items[:100] {
		pk := int64(li.PartKey)
		want := li.Quantity * ((90000 + float64((pk/10)%20001) + 100*float64(pk%1000)) / 100)
		if li.ExtendedPrice != want {
			t.Fatalf("price %g != %g for partkey %d qty %g", li.ExtendedPrice, want, pk, li.Quantity)
		}
	}
}

// TestQuickLineNumbering: line numbers restart at 1 per order and are
// consecutive, for any seed.
func TestQuickLineNumbering(t *testing.T) {
	f := func(seed int64) bool {
		items := GenLineItems(Config{ScaleFactor: 0.0005, Seed: seed})
		var prevKey int64
		var prevLine int32
		for _, li := range items {
			if li.OrderKey != prevKey {
				if li.LineNumber != 1 {
					return false
				}
				prevKey, prevLine = li.OrderKey, 1
			} else {
				if li.LineNumber != prevLine+1 {
					return false
				}
				prevLine = li.LineNumber
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
