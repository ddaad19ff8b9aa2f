package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sma"
	"sma/internal/experiments"
	"sma/internal/storage"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// Dataset sizes. The full scale is the ledger's contract (sf 0.02 ≈ 120k
// LINEITEM rows ≈ 3 872 pages); the short scale exists for the smoke test.
type scale struct {
	sf        float64 // TPC-D scale factor of the LINEITEM datasets
	warmPool  int     // pool pages for "warm": the table fits
	coldPool  int     // pool pages for "cold": the table is ~3.8x the pool
	serveRows int     // initial rows of the serve_mixed table W
	ingestSet int     // distinct pre-rendered 100-row INSERT statements
}

var (
	fullScale  = scale{sf: 0.02, warmPool: 8192, coldPool: 1024, serveRows: 20000, ingestSet: 1200}
	shortScale = scale{sf: 0.002, warmPool: 1024, coldPool: 100, serveRows: 8000, ingestSet: 120}
)

// ambivalentFrac is the share of D_ambiv's buckets that straddle every
// interior shipdate cutoff: just under the paper's ≈25 % breakeven.
const ambivalentFrac = 0.20

// recordsPerPage asks the storage layer how many records of the schema fit
// one page, through a throw-away heap file.
func recordsPerPage(dir string, schema *tuple.Schema) (int, error) {
	dm, err := storage.OpenDiskManager(filepath.Join(dir, "probe.tbl"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(dm.Path())
	defer dm.Close()
	h, err := storage.NewHeapFile(storage.NewBufferPool(dm, 4), schema, 1)
	if err != nil {
		return 0, err
	}
	return h.RecordsPerPage(), nil
}

// genLineItems generates shipdate-sorted LINEITEM rows. With ambiv > 0 it
// plants the domain's first and last shipdate into that fraction of the
// pages (buckets are one page), which makes exactly those buckets
// ambivalent for any interior cutoff — Figure 5's control variable.
func genLineItems(seed int64, sf, ambiv float64, perPage int) []tpcd.LineItem {
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: sf, Seed: seed, Order: tpcd.OrderSorted})
	if ambiv <= 0 {
		return items
	}
	rng := rand.New(rand.NewSource(seed + 7919))
	buckets := (len(items) + perPage - 1) / perPage
	target := int(math.Round(ambiv * float64(buckets)))
	for _, b := range rng.Perm(buckets)[:target] {
		first, last := b*perPage, b*perPage+perPage-1
		if last >= len(items) {
			last = len(items) - 1
		}
		if last > first {
			items[first].ShipDate = tpcd.StartDate
			items[last].ShipDate = tpcd.EndDate - 31
		}
	}
	return items
}

// loadLineItem creates LINEITEM in dir through the public API — typed
// appends, then the paper's eight Query-1 SMAs — and closes the database.
// With smasFirst the SMAs are defined on the empty table instead, so every
// later insert pays the eight maintenance hooks (the ingest workload).
func loadLineItem(dir string, items []tpcd.LineItem, smasFirst bool) error {
	db, err := sma.Open(dir)
	if err != nil {
		return err
	}
	defineSMAs := func() error {
		for _, def := range experiments.Q1SMADefs() {
			if _, err := db.Exec(def.String()); err != nil {
				return err
			}
		}
		return nil
	}
	err = func() error {
		if _, err := db.Exec(tpcd.LineItemDDL); err != nil {
			return err
		}
		if smasFirst {
			if err := defineSMAs(); err != nil {
				return err
			}
		}
		tbl, err := db.Table("LINEITEM")
		if err != nil {
			return err
		}
		for i := range items {
			if _, err := tbl.Append(items[i].Values()...); err != nil {
				return err
			}
		}
		if !smasFirst {
			return defineSMAs()
		}
		return nil
	}()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- statements over LINEITEM ---------------------------------------------

// q1Deltas are the Query-1 parameters the read workloads cycle through.
var q1Deltas = []int{30, 60, 90, 120}

// q1Cutoff is Query 1's shipdate bound for a delta, as in the paper:
// DATE '1998-12-01' - delta days.
func q1Cutoff(delta int) int32 { return tuple.MustParseDate("1998-12-01") - int32(delta) }

// q1SQL renders the paper's Query 1. With uncovered it adds
// SUM(L_QUANTITY*L_DISCOUNT), which no SMA supplies, so the planner has to
// fall back to a full scan.
func q1SQL(cutoff int32, uncovered bool) string {
	extra := ""
	if uncovered {
		extra = "SUM(L_QUANTITY*L_DISCOUNT) AS SUM_QD, "
	}
	return fmt.Sprintf(`SELECT L_RETURNFLAG, L_LINESTATUS, SUM(L_QUANTITY) AS SUM_QTY, `+
		`SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE, SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE, `+
		`SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE, %sAVG(L_QUANTITY) AS AVG_QTY, `+
		`AVG(L_EXTENDEDPRICE) AS AVG_PRICE, AVG(L_DISCOUNT) AS AVG_DISC, COUNT(*) AS COUNT_ORDER `+
		`FROM LINEITEM WHERE L_SHIPDATE <= DATE '%s' GROUP BY L_RETURNFLAG, L_LINESTATUS `+
		`ORDER BY L_RETURNFLAG, L_LINESTATUS`, extra, tuple.FormatDate(cutoff))
}

// rangeSQL is the range_ambiv statement: an aggregate no SMA covers over a
// selective shipdate range, so SMAs can only prune buckets.
func rangeSQL(cutoff int32) string {
	return fmt.Sprintf(`SELECT L_RETURNFLAG, MAX(L_EXTENDEDPRICE) AS M, COUNT(*) AS N FROM LINEITEM `+
		`WHERE L_SHIPDATE <= DATE '%s' GROUP BY L_RETURNFLAG ORDER BY L_RETURNFLAG`, tuple.FormatDate(cutoff))
}

// totalsSQL is the statement ingest checks its acknowledged rows with.
const totalsSQL = `SELECT COUNT(*) AS C, SUM(L_QUANTITY) AS S FROM LINEITEM`

// rangeSelectivities are the shares of rows the range_ambiv cutoffs select.
// With 20 % of the buckets ambivalent the planner's 4:1 random-to-sequential
// cost keeps SMA_Scan only while qualifying buckets stay under ~6 %.
var rangeSelectivities = []float64{0.01, 0.02, 0.03, 0.04}

// rangeCutoffs returns the shipdates at the given quantiles of the sorted
// (unplanted) date distribution, so every seed selects the same shares.
func rangeCutoffs(items []tpcd.LineItem, sels []float64) []int32 {
	dates := make([]int32, len(items))
	for i := range items {
		dates[i] = items[i].ShipDate
	}
	sort.Slice(dates, func(i, j int) bool { return dates[i] < dates[j] })
	out := make([]int32, len(sels))
	for i, s := range sels {
		out[i] = dates[int(s*float64(len(dates)-1))]
	}
	return out
}

// --- the reference evaluator ------------------------------------------------

// refRow is one expected result row: the group-by strings and the exact
// aggregate values, computed from the generated rows without the engine.
type refRow struct {
	key  []string
	aggs []float64
}

// q1Reference evaluates Query 1 over the generated rows.
func q1Reference(items []tpcd.LineItem, cutoff int32, uncovered bool) []refRow {
	type acc struct{ qty, base, disc, charge, qd, dsum, n float64 }
	groups := map[[2]byte]*acc{}
	for i := range items {
		it := &items[i]
		if it.ShipDate > cutoff {
			continue
		}
		k := [2]byte{it.ReturnFlag, it.LineStatus}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		a.qty += it.Quantity
		a.base += it.ExtendedPrice
		a.disc += it.ExtendedPrice * (1 - it.Discount)
		a.charge += it.ExtendedPrice * (1 - it.Discount) * (1 + it.Tax)
		a.qd += it.Quantity * it.Discount
		a.dsum += it.Discount
		a.n++
	}
	out := make([]refRow, 0, len(groups))
	for k, a := range groups {
		aggs := []float64{a.qty, a.base, a.disc, a.charge}
		if uncovered {
			aggs = append(aggs, a.qd)
		}
		aggs = append(aggs, a.qty/a.n, a.base/a.n, a.dsum/a.n, a.n)
		out = append(out, refRow{key: []string{string(k[0]), string(k[1])}, aggs: aggs})
	}
	sortRefRows(out)
	return out
}

// rangeReference evaluates the range_ambiv statement over the generated rows.
func rangeReference(items []tpcd.LineItem, cutoff int32) []refRow {
	type acc struct{ max, n float64 }
	groups := map[byte]*acc{}
	for i := range items {
		it := &items[i]
		if it.ShipDate > cutoff {
			continue
		}
		a := groups[it.ReturnFlag]
		if a == nil {
			a = &acc{max: math.Inf(-1)}
			groups[it.ReturnFlag] = a
		}
		a.max = math.Max(a.max, it.ExtendedPrice)
		a.n++
	}
	out := make([]refRow, 0, len(groups))
	for k, a := range groups {
		out = append(out, refRow{key: []string{string(k)}, aggs: []float64{a.max, a.n}})
	}
	sortRefRows(out)
	return out
}

func sortRefRows(rows []refRow) {
	sort.Slice(rows, func(i, j int) bool {
		return strings.Join(rows[i].key, "\x00") < strings.Join(rows[j].key, "\x00")
	})
}

// renderAgg formats an aggregate the way the engine's cursors do.
func renderAgg(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return fmt.Sprintf("%.4f", v)
}

// checkRows compares a rendered result with its reference. Group columns
// must match byte for byte. An aggregate must render to the same bytes, or
// — because an SMA plan adds per-bucket sums where the reference adds row
// by row — parse to a value within 1e-9 relative plus the 4-decimal
// rendering step of the reference.
func checkRows(got [][]string, want []refRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d rows, reference has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if len(g) != len(w.key)+len(w.aggs) {
			return fmt.Errorf("row %d has %d columns, reference has %d", i, len(g), len(w.key)+len(w.aggs))
		}
		for c, k := range w.key {
			if g[c] != k {
				return fmt.Errorf("row %d column %d: got %q, reference %q", i, c, g[c], k)
			}
		}
		for c, v := range w.aggs {
			cell := g[len(w.key)+c]
			if cell == renderAgg(v) {
				continue
			}
			f, err := strconv.ParseFloat(cell, 64)
			if err != nil || math.Abs(f-v) > 1e-9*math.Abs(v)+1e-4 {
				return fmt.Errorf("row %d aggregate %d: got %s, reference %s", i, c, cell, renderAgg(v))
			}
		}
	}
	return nil
}

// checkExact compares a rendered result byte for byte.
func checkExact(got, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d rows, reference has %d", len(got), len(want))
	}
	for i := range want {
		if strings.Join(got[i], "\x00") != strings.Join(want[i], "\x00") {
			return fmt.Errorf("row %d: got %q, reference %q", i, got[i], want[i])
		}
	}
	return nil
}

// --- INSERT statements --------------------------------------------------------

// lineItemInsert renders one multi-row INSERT over items and returns the
// statement with the sum of its quantities (integers, so sums stay exact).
func lineItemInsert(items []tpcd.LineItem) (sql string, qty float64) {
	var b strings.Builder
	b.Grow(len(items) * 200)
	b.WriteString("INSERT INTO LINEITEM VALUES ")
	num := func(f float64) { b.WriteString(strconv.FormatFloat(f, 'f', -1, 64)) }
	date := func(d int32) { b.WriteString("DATE '" + tuple.FormatDate(d) + "'") }
	for i := range items {
		it := &items[i]
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %d, ", it.OrderKey, it.PartKey, it.SuppKey, it.LineNumber)
		num(it.Quantity)
		b.WriteString(", ")
		num(it.ExtendedPrice)
		b.WriteString(", ")
		num(it.Discount)
		b.WriteString(", ")
		num(it.Tax)
		fmt.Fprintf(&b, ", '%c', '%c', ", it.ReturnFlag, it.LineStatus)
		date(it.ShipDate)
		b.WriteString(", ")
		date(it.CommitDate)
		b.WriteString(", ")
		date(it.ReceiptDate)
		b.WriteString(", 'DELIVER IN PERSON', 'TRUCK', 'generated by bench')")
		qty += it.Quantity
	}
	return b.String(), qty
}

// lineItemTuples packs items into storage tuples, for the layer probes that
// bypass SQL.
func lineItemTuples(items []tpcd.LineItem) []tuple.Tuple {
	schema := tpcd.LineItemSchema()
	out := make([]tuple.Tuple, len(items))
	for i := range items {
		out[i] = tuple.NewTuple(schema)
		items[i].FillTuple(out[i])
	}
	return out
}

// --- the serve_mixed table W -----------------------------------------------------

// wDDL and wSMAs define the serving table: date-clustered rows with the
// min/max/sum/count SMAs its query mix is baited toward.
const wDDL = "create table W (D date, K char(1), V float64, N int64)"

var wSMAs = []string{
	"define sma dmin select min(D) from W",
	"define sma dmax select max(D) from W",
	"define sma gsum select sum(V) from W group by K",
	"define sma gcnt select count(*) from W group by K",
}

// wSchema mirrors wDDL for the layer probes.
func wSchema() *tuple.Schema {
	return tuple.MustSchema([]tuple.Column{
		{Name: "D", Type: tuple.TDate}, {Name: "K", Type: tuple.TChar, Len: 1},
		{Name: "V", Type: tuple.TFloat64}, {Name: "N", Type: tuple.TInt64},
	})
}

// wRow is one row of W. V is always a multiple of 0.5, so per-key sums are
// exact in float64 whatever order they are added in.
type wRow struct {
	day int32
	k   byte
	v   float64
	n   int64
}

var wFirstDay = tuple.MustParseDate("2000-01-01")

// wGen produces W rows in insertion-time order: the date advances by one
// day every ~20 rows, the paper's time-of-creation clustering.
type wGen struct {
	rng *rand.Rand
	day int32
}

func (g *wGen) next() wRow {
	if g.rng.Intn(20) == 0 {
		g.day++
	}
	return wRow{day: g.day, k: 'A' + byte(g.rng.Intn(5)),
		v: float64(g.rng.Intn(200)) + 0.5, n: int64(g.rng.Intn(400))}
}

// wInsert renders a multi-row INSERT into W.
func wInsert(rows []wRow) string {
	vals := make([]string, len(rows))
	for i, r := range rows {
		vals[i] = fmt.Sprintf("(date '%s', '%c', %s, %d)", tuple.FormatDate(wFirstDay+r.day), r.k,
			strconv.FormatFloat(r.v, 'f', -1, 64), r.n)
	}
	return "insert into W values " + strings.Join(vals, ", ")
}

// wTuples packs W rows into storage tuples for the layer probes.
func wTuples(rows []wRow) []tuple.Tuple {
	schema := wSchema()
	out := make([]tuple.Tuple, len(rows))
	for i, r := range rows {
		t := tuple.NewTuple(schema)
		t.SetInt32(0, wFirstDay+r.day)
		t.SetChar(1, string(r.k))
		t.SetFloat64(2, r.v)
		t.SetInt64(3, r.n)
		out[i] = t
	}
	return out
}

// loadW creates W in dir with n generated rows (200-row INSERTs) and its
// SMAs, closes the database, and returns the rows.
func loadW(dir string, seed int64, n int) ([]wRow, error) {
	db, err := sma.Open(dir)
	if err != nil {
		return nil, err
	}
	gen := &wGen{rng: rand.New(rand.NewSource(seed))}
	rows := make([]wRow, n)
	err = func() error {
		if _, err := db.Exec(wDDL); err != nil {
			return err
		}
		for done := 0; done < n; done += 200 {
			end := min(done+200, n)
			for i := done; i < end; i++ {
				rows[i] = gen.next()
			}
			if _, err := db.Exec(wInsert(rows[done:end])); err != nil {
				return err
			}
		}
		for _, ddl := range wSMAs {
			if _, err := db.Exec(ddl); err != nil {
				return err
			}
		}
		return nil
	}()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return rows, err
}
