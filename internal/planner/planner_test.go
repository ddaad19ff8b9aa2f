package planner_test

import (
	"fmt"
	"strings"
	"testing"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/parser"
	"sma/internal/planner"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tpcd"
)

// newLineItem loads a small LINEITEM heap in the given order.
func newLineItem(t testing.TB, order tpcd.Order, sf float64) *storage.HeapFile {
	t.Helper()
	h := testutil.NewHeap(t, tpcd.LineItemSchema(), 1, 4096)
	if _, err := tpcd.LoadLineItem(h, tpcd.Config{ScaleFactor: sf, Seed: 21, Order: order}); err != nil {
		t.Fatal(err)
	}
	return h
}

// q1SMAs builds the paper's eight SMAs.
func q1SMAs(t testing.TB, h *storage.HeapFile) []*core.SMA {
	t.Helper()
	defs := []string{
		"define sma min select min(L_SHIPDATE) from LINEITEM",
		"define sma max select max(L_SHIPDATE) from LINEITEM",
		"define sma count select count(*) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma dis select sum(L_DISCOUNT) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma ext select sum(L_EXTENDEDPRICE) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma extdis select sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
		"define sma extdistax select sum(L_EXTENDEDPRICE * (1 - L_DISCOUNT) * (1 + L_TAX)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	}
	var out []*core.SMA
	for _, ddl := range defs {
		def, err := parser.ParseSMADef(ddl)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Build(h, def)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

const q1SQL = `
SELECT L_RETURNFLAG, L_LINESTATUS,
       SUM(L_QUANTITY) AS SUM_QTY, SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
       AVG(L_QUANTITY) AS AVG_QTY, AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
       AVG(L_DISCOUNT) AS AVG_DISC, COUNT(*) AS COUNT_ORDER
FROM LINEITEM
WHERE L_SHIPDATE <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY L_RETURNFLAG, L_LINESTATUS
ORDER BY L_RETURNFLAG, L_LINESTATUS`

func plan(t testing.TB, sql string, h *storage.HeapFile, smas []*core.SMA) *planner.Plan {
	t.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where != nil {
		if err := q.Where.Bind(h.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	p, err := planner.New().PlanQuery(q, h, smas)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// execute runs an aggregation plan to completion through the iterator the
// engine's cursors use.
func execute(p *planner.Plan) ([]exec.Row, error) {
	it, err := p.RowIterator(nil)
	if err != nil {
		return nil, err
	}
	return exec.CollectRows(it)
}

// TestPlannerPicksSMAGAggr: with all SMAs present on sorted data, Query 1
// becomes an SMA_GAggr.
func TestPlannerPicksSMAGAggr(t *testing.T) {
	h := newLineItem(t, tpcd.OrderSorted, 0.002)
	smas := q1SMAs(t, h)
	p := plan(t, q1SQL, h, smas)
	if p.Strategy != planner.StrategySMAGAggr {
		t.Fatalf("strategy = %s, want SMA_GAggr\n%s", p.Strategy, p.Explain())
	}
	if p.CountSMA == nil {
		t.Errorf("AVG in query requires a count SMA in the plan")
	}
	if p.Grades.Ambivalent > 1 {
		t.Errorf("sorted data should have at most 1 ambivalent bucket: %+v", p.Grades)
	}
	rows, err := execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("Q1 should produce 4 groups, got %d", len(rows))
	}
}

// TestPlannerFallsBackWithoutSelectionSMA: no min/max on the predicate
// column means a sequential scan.
func TestPlannerFallsBackWithoutSelectionSMA(t *testing.T) {
	h := newLineItem(t, tpcd.OrderSorted, 0.001)
	smas := q1SMAs(t, h)
	// Predicate on a column no SMA grades.
	p := plan(t, "select count(*) from LINEITEM where L_PARTKEY <= 1000", h, smas)
	if p.Strategy != planner.StrategyFullScan {
		t.Fatalf("strategy = %s, want FullScan\n%s", p.Strategy, p.Explain())
	}
	if !strings.Contains(p.Reason, "no selection SMA") {
		t.Errorf("reason = %q", p.Reason)
	}
}

// TestPlannerSMAScanWhenAggregatesUncovered: selection SMAs exist but the
// aggregate (sum of an unindexed expression) is not covered.
func TestPlannerSMAScanWhenAggregatesUncovered(t *testing.T) {
	h := newLineItem(t, tpcd.OrderSorted, 0.002)
	smas := q1SMAs(t, h)
	p := plan(t, "select sum(L_QUANTITY * L_TAX) from LINEITEM where L_SHIPDATE <= date '1993-06-01'", h, smas)
	if p.Strategy != planner.StrategySMAScan {
		t.Fatalf("strategy = %s, want SMA_Scan\n%s", p.Strategy, p.Explain())
	}
	rows, err := execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Cross-check against the full scan.
	pFull := plan(t, "select sum(L_QUANTITY * L_TAX) from LINEITEM where L_SHIPDATE <= date '1993-06-01'", h, nil)
	if pFull.Strategy != planner.StrategyFullScan {
		t.Fatalf("without SMAs: %s", pFull.Strategy)
	}
	want, err := execute(pFull)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(rows[0].Aggs[0], want[0].Aggs[0]) {
		t.Errorf("SMA scan result %v != full scan %v", rows[0].Aggs[0], want[0].Aggs[0])
	}
}

// TestPlannerBreakeven: shuffled data with a mid-domain cutoff leaves most
// buckets ambivalent, so the planner must fall back to the scan even though
// every aggregate is covered (Fig. 5's >25% region).
func TestPlannerBreakeven(t *testing.T) {
	h := newLineItem(t, tpcd.OrderShuffled, 0.002)
	smas := q1SMAs(t, h)
	sql := strings.Replace(q1SQL, "INTERVAL '90' DAY", "INTERVAL '1265' DAY", 1)
	p := plan(t, sql, h, smas)
	if p.Grades.AmbivalentFrac() < 0.5 {
		t.Fatalf("test setup: expected mostly ambivalent buckets, got %+v", p.Grades)
	}
	if p.Strategy != planner.StrategyFullScan {
		t.Fatalf("strategy = %s, want FullScan beyond breakeven\n%s", p.Strategy, p.Explain())
	}
	if !strings.Contains(p.Reason, "breakeven") {
		t.Errorf("reason = %q", p.Reason)
	}
}

// TestPlannerNoWhere: without a WHERE clause every bucket qualifies and the
// whole query is answered from the aggregate SMAs.
func TestPlannerNoWhere(t *testing.T) {
	h := newLineItem(t, tpcd.OrderDiagonal, 0.001)
	smas := q1SMAs(t, h)
	p := plan(t, "select L_RETURNFLAG, sum(L_QUANTITY) as S from LINEITEM group by L_RETURNFLAG order by L_RETURNFLAG", h, smas)
	if p.Strategy != planner.StrategySMAGAggr {
		t.Fatalf("strategy = %s\n%s", p.Strategy, p.Explain())
	}
	if p.Grades.Qualifying != h.NumBuckets() {
		t.Errorf("all buckets should qualify: %+v", p.Grades)
	}
	rows, err := execute(p)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check totals against a plain scan.
	pFull := plan(t, "select L_RETURNFLAG, sum(L_QUANTITY) as S from LINEITEM group by L_RETURNFLAG order by L_RETURNFLAG", h, nil)
	want, err := execute(pFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("groups %d != %d", len(rows), len(want))
	}
	for i := range rows {
		if !testutil.AlmostEqual(rows[i].Aggs[0], want[i].Aggs[0]) {
			t.Errorf("group %d: %v != %v", i, rows[i].Aggs[0], want[i].Aggs[0])
		}
	}
}

// TestPlannerRejectsNonAggregate: a query with neither aggregates nor
// grouping is rejected.
func TestPlannerRejectsNonAggregate(t *testing.T) {
	h := newLineItem(t, tpcd.OrderSorted, 0.0005)
	q := &parser.Query{Table: "LINEITEM"}
	if _, err := planner.New().PlanQuery(q, h, nil); err == nil {
		t.Errorf("expected error for empty query")
	}
}

// TestPlanExplain renders the diagnostics.
func TestPlanExplain(t *testing.T) {
	h := newLineItem(t, tpcd.OrderSorted, 0.001)
	smas := q1SMAs(t, h)
	p := plan(t, q1SQL, h, smas)
	out := p.Explain()
	for _, want := range []string{"SMA_GAggr", "buckets:", "cost:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

// TestPlannerEquality: planner plans on a query with an equality predicate
// on a flag column, gradeable through the grouped count SMA.
func TestPlannerEqualityViaCountSMA(t *testing.T) {
	h := newLineItem(t, tpcd.OrderSorted, 0.001)
	var smas []*core.SMA
	def, err := parser.ParseSMADef("define sma rfcount select count(*) from LINEITEM group by L_RETURNFLAG")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(h, def)
	if err != nil {
		t.Fatal(err)
	}
	smas = append(smas, s)
	p := plan(t, "select count(*) as N from LINEITEM where L_RETURNFLAG = 'N'", h, smas)
	// L_RETURNFLAG is clustered on sorted-by-shipdate data ('N' appears
	// after the current date), so the count SMA should decide many buckets.
	if p.Grades.Qualifying+p.Grades.Disqualifying == 0 {
		t.Errorf("count SMA graded nothing: %+v", p.Grades)
	}
	rows, err := execute(p)
	if err != nil {
		t.Fatal(err)
	}
	pFull := plan(t, "select count(*) as N from LINEITEM where L_RETURNFLAG = 'N'", h, nil)
	want, err := execute(pFull)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Aggs[0] != want[0].Aggs[0] {
		t.Errorf("count %v != %v", rows[0].Aggs[0], want[0].Aggs[0])
	}
}

// TestAggregationPlansAreBound: every aggregation strategy over a heap
// leaves its plan bound, and a plan copied as the statement cache copies
// its template shares the binding and answers as the original does. A
// projection has none, nor has an aggregation that does not bind: its
// pipeline's Open reports the binding's error instead.
func TestAggregationPlansAreBound(t *testing.T) {
	h := newLineItem(t, tpcd.OrderSorted, 0.002)
	smas := q1SMAs(t, h)
	for _, c := range []struct{ sql, strategy string }{
		{q1SQL, "SMA_GAggr"},
		{"select L_RETURNFLAG, max(L_TAX) from LINEITEM where L_SHIPDATE <= date '1992-03-01' group by L_RETURNFLAG", "SMA_Scan+GAggr"},
		{"select L_LINESTATUS, count(*) from LINEITEM where L_QUANTITY > 10 group by L_LINESTATUS", "FullScan+GAggr"},
	} {
		p := plan(t, c.sql, h, smas)
		if p.StrategyName() != c.strategy || p.Binding() == nil {
			t.Fatalf("%s: %s, bound %v; want %s, bound", c.sql, p.StrategyName(), p.Binding() != nil, c.strategy)
		}
		cp := *p
		if cp.Binding() != p.Binding() {
			t.Fatalf("%s: a copied plan has a binding of its own", c.sql)
		}
		want, err := execute(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execute(&cp)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || len(want) == 0 {
			t.Errorf("%s: the copy answered %v, the plan %v", c.sql, got, want)
		}
	}
	if p := plan(t, "select L_ORDERKEY from LINEITEM where L_SHIPDATE <= date '1992-03-01'", h, smas); p.Binding() != nil {
		t.Errorf("a projection plan is bound")
	}
	// A CHAR column has no vector kernel: binding fails, and so does Open.
	p := plan(t, "select sum(L_RETURNFLAG) from LINEITEM", h, smas)
	if p.Binding() != nil {
		t.Fatalf("sum over a CHAR column bound")
	}
	_, bindErr := exec.BindGAggr(h.Schema(), nil, p.Query.AggSpecs(), nil)
	if _, err := execute(p); err == nil || bindErr == nil || err.Error() != bindErr.Error() {
		t.Errorf("Open of an unbound plan: %v; binding: %v", err, bindErr)
	}
}
