// Package tpcd generates TPC-D-style data for the LINEITEM and ORDERS
// relations: the column domains, pricing arithmetic and date ranges of the
// benchmark's dbgen, sized by scale factor. In addition to the spec's
// uniform date distribution the generator supports the physical orderings
// the paper discusses: sorted on shipdate ("the optimal case"), the
// *diagonal* time-of-creation clustering of Fig. 2, a uniform shuffle, and
// a controlled-ambivalence mode that makes an exact fraction of buckets
// ambivalent for shipdate range predicates (Fig. 5's x-axis).
package tpcd

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sma/internal/storage"
	"sma/internal/tuple"
)

// Date domain constants from the TPC-D specification. The paper's data-cube
// arithmetic uses the same 7-year / 2556-day domain: "Every date attribute
// of LINEITEM ... has a range of seven years or 2556 days."
var (
	// StartDate is the first order date (1992-01-01).
	StartDate = tuple.MustParseDate("1992-01-01")
	// EndDate is the last possible date in the domain (1998-12-31).
	EndDate = tuple.MustParseDate("1998-12-31")
	// CurrentDate is the benchmark's fixed "today" (1995-06-17).
	CurrentDate = tuple.MustParseDate("1995-06-17")
	// LastOrderDate is the last order date; orders stop 151 days before the
	// end of the domain so derived dates stay inside it.
	LastOrderDate = EndDate - 151
)

// DateDomainDays is the size of the date domain the paper's cube-space
// model assumes.
const DateDomainDays = 2556

// LineItemSchema returns the 16-column LINEITEM schema.
func LineItemSchema() *tuple.Schema {
	return tuple.MustSchema([]tuple.Column{
		{Name: "L_ORDERKEY", Type: tuple.TInt64},
		{Name: "L_PARTKEY", Type: tuple.TInt32},
		{Name: "L_SUPPKEY", Type: tuple.TInt32},
		{Name: "L_LINENUMBER", Type: tuple.TInt32},
		{Name: "L_QUANTITY", Type: tuple.TFloat64},
		{Name: "L_EXTENDEDPRICE", Type: tuple.TFloat64},
		{Name: "L_DISCOUNT", Type: tuple.TFloat64},
		{Name: "L_TAX", Type: tuple.TFloat64},
		{Name: "L_RETURNFLAG", Type: tuple.TChar, Len: 1},
		{Name: "L_LINESTATUS", Type: tuple.TChar, Len: 1},
		{Name: "L_SHIPDATE", Type: tuple.TDate},
		{Name: "L_COMMITDATE", Type: tuple.TDate},
		{Name: "L_RECEIPTDATE", Type: tuple.TDate},
		{Name: "L_SHIPINSTRUCT", Type: tuple.TChar, Len: 25},
		{Name: "L_SHIPMODE", Type: tuple.TChar, Len: 10},
		{Name: "L_COMMENT", Type: tuple.TChar, Len: 27},
	})
}

// OrdersSchema returns the ORDERS schema (the columns the experiments use).
func OrdersSchema() *tuple.Schema {
	return tuple.MustSchema([]tuple.Column{
		{Name: "O_ORDERKEY", Type: tuple.TInt64},
		{Name: "O_CUSTKEY", Type: tuple.TInt32},
		{Name: "O_ORDERSTATUS", Type: tuple.TChar, Len: 1},
		{Name: "O_TOTALPRICE", Type: tuple.TFloat64},
		{Name: "O_ORDERDATE", Type: tuple.TDate},
		{Name: "O_SHIPPRIORITY", Type: tuple.TInt32},
	})
}

// Order is the physical tuple order of generated LINEITEM data.
type Order uint8

// Physical ordering modes.
const (
	// OrderSpec emits tuples in order-key order with uniform order dates,
	// the TPC-D dbgen behaviour (which the paper notes "is not very
	// realistic": it destroys clustering).
	OrderSpec Order = iota
	// OrderSorted sorts tuples by L_SHIPDATE, the paper's optimal case.
	OrderSorted
	// OrderDiagonal emits tuples in warehouse-insertion order where
	// shipdate = insertion time minus a normally distributed preparation
	// delay: Fig. 2's diagonal data distribution.
	OrderDiagonal
	// OrderShuffled randomly permutes the tuples (worst case).
	OrderShuffled
)

// String names the ordering.
func (o Order) String() string {
	switch o {
	case OrderSpec:
		return "spec"
	case OrderSorted:
		return "sorted"
	case OrderDiagonal:
		return "diagonal"
	case OrderShuffled:
		return "shuffled"
	default:
		return fmt.Sprintf("Order(%d)", uint8(o))
	}
}

// Config controls data generation.
type Config struct {
	// ScaleFactor sizes the database; SF 1 is the paper's 1 GB database
	// with ~6M LINEITEM rows. Fractional values scale linearly.
	ScaleFactor float64
	// Seed makes generation deterministic.
	Seed int64
	// Order is the physical tuple order.
	Order Order
	// DiagonalSigmaDays is the standard deviation of the preparation-time
	// noise in OrderDiagonal mode (default 15 days).
	DiagonalSigmaDays float64
	// AmbivalentFrac, when > 0, plants one domain-minimum and one
	// domain-maximum shipdate into that fraction of buckets (after
	// ordering), making exactly those buckets ambivalent for any shipdate
	// range predicate with a cutoff strictly inside the domain. This is
	// the Fig. 5 control knob. Requires bucketing info at load time, so it
	// is applied by LoadLineItem.
	AmbivalentFrac float64
}

// NumLineItems returns the LINEITEM cardinality for the scale factor
// (6,001,215 at SF 1, scaled linearly).
func (c Config) NumLineItems() int {
	n := int(math.Round(c.ScaleFactor * 6001215))
	if n < 1 {
		n = 1
	}
	return n
}

// NumOrders returns the ORDERS cardinality (1,500,000 at SF 1).
func (c Config) NumOrders() int {
	n := int(math.Round(c.ScaleFactor * 1500000))
	if n < 1 {
		n = 1
	}
	return n
}

// LineItem is one generated LINEITEM row in struct form.
type LineItem struct {
	OrderKey      int64
	PartKey       int32
	SuppKey       int32
	LineNumber    int32
	Quantity      float64
	ExtendedPrice float64
	Discount      float64
	Tax           float64
	ReturnFlag    byte
	LineStatus    byte
	ShipDate      int32
	CommitDate    int32
	ReceiptDate   int32
}

// retailPrice implements the TPC-D part pricing formula.
func retailPrice(partKey int32) float64 {
	pk := int64(partKey)
	return (90000 + float64((pk/10)%20001) + 100*float64(pk%1000)) / 100
}

// GenLineItems produces the LINEITEM rows in the configured physical order.
func GenLineItems(cfg Config) []LineItem {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NumLineItems()
	items := make([]LineItem, 0, n)

	sigma := cfg.DiagonalSigmaDays
	if sigma <= 0 {
		sigma = 15
	}

	orderKey := int64(0)
	for len(items) < n {
		orderKey++
		// 1..7 lineitems per order, as in dbgen.
		lines := 1 + rng.Intn(7)
		var orderDate int32
		switch cfg.Order {
		case OrderDiagonal:
			// Orders arrive in orderdate order: spread order dates evenly
			// over the domain in generation order, so insertion order
			// approximates orderdate order (Fig. 2's diagonal).
			frac := float64(len(items)) / float64(n)
			orderDate = StartDate + int32(frac*float64(LastOrderDate-StartDate))
		default:
			orderDate = StartDate + int32(rng.Intn(int(LastOrderDate-StartDate)+1))
		}
		for l := 1; l <= lines && len(items) < n; l++ {
			partKey := int32(1 + rng.Intn(200000))
			qty := float64(1 + rng.Intn(50))
			li := LineItem{
				OrderKey:      orderKey,
				PartKey:       partKey,
				SuppKey:       int32(1 + rng.Intn(10000)),
				LineNumber:    int32(l),
				Quantity:      qty,
				ExtendedPrice: qty * retailPrice(partKey),
				Discount:      float64(rng.Intn(11)) / 100,
				Tax:           float64(rng.Intn(9)) / 100,
			}
			switch cfg.Order {
			case OrderDiagonal:
				// Preparation time is normally distributed around a mean
				// delay; shipdate clusters diagonally with insertion order.
				delay := 60 + rng.NormFloat64()*sigma
				if delay < 1 {
					delay = 1
				}
				li.ShipDate = orderDate + int32(delay)
			default:
				li.ShipDate = orderDate + int32(1+rng.Intn(121))
			}
			if li.ShipDate > EndDate-31 {
				li.ShipDate = EndDate - 31
			}
			li.CommitDate = orderDate + int32(30+rng.Intn(61))
			li.ReceiptDate = li.ShipDate + int32(1+rng.Intn(30))
			if li.ReceiptDate <= CurrentDate {
				if rng.Intn(2) == 0 {
					li.ReturnFlag = 'R'
				} else {
					li.ReturnFlag = 'A'
				}
			} else {
				li.ReturnFlag = 'N'
			}
			if li.ShipDate > CurrentDate {
				li.LineStatus = 'O'
			} else {
				li.LineStatus = 'F'
			}
			items = append(items, li)
		}
	}

	switch cfg.Order {
	case OrderSorted:
		sortByShipDate(items)
	case OrderShuffled:
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	}
	return items
}

// sortByShipDate sorts stably by shipdate (counting sort over the day
// domain: the domain is small and this keeps generation O(n)).
func sortByShipDate(items []LineItem) {
	lo, hi := EndDate, StartDate
	for _, it := range items {
		if it.ShipDate < lo {
			lo = it.ShipDate
		}
		if it.ShipDate > hi {
			hi = it.ShipDate
		}
	}
	counts := make([]int, int(hi-lo)+2)
	for _, it := range items {
		counts[it.ShipDate-lo+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	out := make([]LineItem, len(items))
	for _, it := range items {
		out[counts[it.ShipDate-lo]] = it
		counts[it.ShipDate-lo]++
	}
	copy(items, out)
}

// Filler values for the constant LINEITEM text columns.
const (
	fillShipInstruct = "DELIVER IN PERSON"
	fillShipMode     = "TRUCK"
	fillComment      = "generated by internal/tpcd"
)

// LineItemDDL is the LINEITEM schema in the engine's "create table"
// dialect; it must stay field-for-field in sync with LineItemSchema
// (guarded by a test).
const LineItemDDL = `create table LINEITEM (
	L_ORDERKEY int64, L_PARTKEY int32, L_SUPPKEY int32, L_LINENUMBER int32,
	L_QUANTITY float64, L_EXTENDEDPRICE float64, L_DISCOUNT float64, L_TAX float64,
	L_RETURNFLAG char(1), L_LINESTATUS char(1),
	L_SHIPDATE date, L_COMMITDATE date, L_RECEIPTDATE date,
	L_SHIPINSTRUCT char(25), L_SHIPMODE char(10), L_COMMENT char(27))`

// OrdersDDL is the ORDERS schema in the same dialect.
const OrdersDDL = `create table ORDERS (
	O_ORDERKEY int64, O_CUSTKEY int32, O_ORDERSTATUS char(1),
	O_TOTALPRICE float64, O_ORDERDATE date, O_SHIPPRIORITY int32)`

// FillTuple writes li into t, which must use LineItemSchema.
func (li *LineItem) FillTuple(t tuple.Tuple) {
	t.SetInt64(0, li.OrderKey)
	t.SetInt32(1, li.PartKey)
	t.SetInt32(2, li.SuppKey)
	t.SetInt32(3, li.LineNumber)
	t.SetFloat64(4, li.Quantity)
	t.SetFloat64(5, li.ExtendedPrice)
	t.SetFloat64(6, li.Discount)
	t.SetFloat64(7, li.Tax)
	t.SetChar(8, string(li.ReturnFlag))
	t.SetChar(9, string(li.LineStatus))
	t.SetInt32(10, li.ShipDate)
	t.SetInt32(11, li.CommitDate)
	t.SetInt32(12, li.ReceiptDate)
	t.SetChar(13, fillShipInstruct)
	t.SetChar(14, fillShipMode)
	t.SetChar(15, fillComment)
}

// dateTime converts a day count (days since 1970-01-01) to a time.Time,
// the date representation the public sma append API accepts.
func dateTime(days int32) time.Time {
	return time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(days))
}

// Values returns the row as one Go value per LineItemSchema column, in
// the form the public sma Table.Append accepts (dates as time.Time).
func (li *LineItem) Values() []any {
	return []any{li.OrderKey, li.PartKey, li.SuppKey, li.LineNumber,
		li.Quantity, li.ExtendedPrice, li.Discount, li.Tax,
		string(li.ReturnFlag), string(li.LineStatus),
		dateTime(li.ShipDate), dateTime(li.CommitDate), dateTime(li.ReceiptDate),
		fillShipInstruct, fillShipMode, fillComment}
}

// LoadLineItem generates LINEITEM data and appends it to the heap file,
// applying the controlled-ambivalence transformation if configured.
func LoadLineItem(h *storage.HeapFile, cfg Config) (int, error) {
	items := GenLineItems(cfg)
	if cfg.AmbivalentFrac > 0 {
		plantAmbivalence(items, cfg, h.RecordsPerPage()*h.BucketPages)
	}
	t := tuple.NewTuple(h.Schema())
	for i := range items {
		items[i].FillTuple(t)
		if _, err := h.Append(t); err != nil {
			return i, err
		}
	}
	return len(items), nil
}

// plantAmbivalence spreads extreme shipdates into a controlled fraction of
// buckets: a bucket containing both the domain minimum and maximum shipdate
// straddles every interior cutoff, so it is ambivalent for any predicate
// L_SHIPDATE <= c with StartDate <= c < EndDate.
func plantAmbivalence(items []LineItem, cfg Config, perBucket int) {
	if perBucket <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7919))
	numBuckets := (len(items) + perBucket - 1) / perBucket
	target := int(math.Round(cfg.AmbivalentFrac * float64(numBuckets)))
	if target > numBuckets {
		target = numBuckets
	}
	chosen := rng.Perm(numBuckets)[:target]
	for _, b := range chosen {
		first := b * perBucket
		last := first + perBucket - 1
		if last >= len(items) {
			last = len(items) - 1
		}
		if last <= first {
			continue
		}
		items[first].ShipDate = StartDate
		items[last].ShipDate = EndDate - 31
	}
}

// GenOrders produces ORDERS rows (orderkey-ordered).
func GenOrders(cfg Config) []OrderRow {
	rng := rand.New(rand.NewSource(cfg.Seed + 104729))
	n := cfg.NumOrders()
	out := make([]OrderRow, n)
	for i := range out {
		od := StartDate + int32(rng.Intn(int(LastOrderDate-StartDate)+1))
		status := byte('O')
		if od+121 < CurrentDate {
			status = 'F'
		} else if rng.Intn(4) == 0 {
			status = 'P'
		}
		out[i] = OrderRow{
			OrderKey:     int64(i + 1),
			CustKey:      int32(1 + rng.Intn(150000)),
			OrderStatus:  status,
			TotalPrice:   857.71 + rng.Float64()*500000,
			OrderDate:    od,
			ShipPriority: 0,
		}
	}
	return out
}

// OrderRow is one generated ORDERS row.
type OrderRow struct {
	OrderKey     int64
	CustKey      int32
	OrderStatus  byte
	TotalPrice   float64
	OrderDate    int32
	ShipPriority int32
}

// Values returns the row as one Go value per OrdersSchema column, in the
// form the public sma Table.Append accepts.
func (o *OrderRow) Values() []any {
	return []any{o.OrderKey, o.CustKey, string(o.OrderStatus),
		o.TotalPrice, dateTime(o.OrderDate), o.ShipPriority}
}

// FillTuple writes o into t, which must use OrdersSchema.
func (o *OrderRow) FillTuple(t tuple.Tuple) {
	t.SetInt64(0, o.OrderKey)
	t.SetInt32(1, o.CustKey)
	t.SetChar(2, string(o.OrderStatus))
	t.SetFloat64(3, o.TotalPrice)
	t.SetInt32(4, o.OrderDate)
	t.SetInt32(5, o.ShipPriority)
}
