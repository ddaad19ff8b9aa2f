package engine_test

import (
	"testing"

	"sma/internal/engine"
	"sma/internal/planner"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// openLineItem loads a LINEITEM table into a fresh engine.
func openLineItem(t testing.TB, sf float64, order tpcd.Order) *engine.DB {
	t.Helper()
	return openLineItemWith(t, sf, order, engine.Options{})
}

// openLineItemWith is openLineItem on a database opened with opts.
func openLineItemWith(t testing.TB, sf float64, order tpcd.Order, opts engine.Options) *engine.DB {
	t.Helper()
	db, err := engine.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	li, err := db.CreateTable("LINEITEM", tpcd.LineItemSchema().Columns())
	if err != nil {
		t.Fatal(err)
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: sf, Seed: 31, Order: order})
	tp := tuple.NewTuple(li.Schema)
	for i := range items {
		items[i].FillTuple(tp)
		if _, err := li.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestQuery6Versatility is the paper's §2.3 versatility claim: "If another
// query with restrictions on any of the attributes aggregated in some SMA
// occurs, the SMA can be used to more efficiently answer the query." The
// min/max shipdate SMAs built for Query 1 also prune TPC-D Query 6.
func TestQuery6Versatility(t *testing.T) {
	db := openLineItem(t, 0.002, tpcd.OrderSorted)
	for _, ddl := range []string{
		"define sma min select min(L_SHIPDATE) from LINEITEM",
		"define sma max select max(L_SHIPDATE) from LINEITEM",
	} {
		if _, err := db.DefineSMA(ddl); err != nil {
			t.Fatal(err)
		}
	}
	const q6 = `
		SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) AS REVENUE
		FROM LINEITEM
		WHERE L_SHIPDATE >= DATE '1994-01-01'
		  AND L_SHIPDATE < DATE '1995-01-01'
		  AND L_DISCOUNT >= 0.05 AND L_DISCOUNT <= 0.07
		  AND L_QUANTITY < 24`
	res, err := engine.Collect(db, q6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Strategy != planner.StrategySMAScan {
		t.Errorf("Q6 strategy = %s, want SMA_Scan (shipdate SMAs prune, Q6's aggregate is uncovered)\n%s",
			res.Plan.Strategy, res.Plan.Explain())
	}
	if res.Plan.Grades.Disqualifying == 0 {
		t.Errorf("Q6 on sorted data should skip most buckets: %+v", res.Plan.Grades)
	}
	// Cross-check the revenue against a plain scan (drop the SMAs).
	if err := db.DropSMA("LINEITEM", "min"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropSMA("LINEITEM", "max"); err != nil {
		t.Fatal(err)
	}
	base, err := engine.Collect(db, q6)
	if err != nil {
		t.Fatal(err)
	}
	if base.Plan.Strategy != planner.StrategyFullScan {
		t.Fatalf("baseline = %s", base.Plan.Strategy)
	}
	if res.Rows[0][0] != base.Rows[0][0] {
		t.Errorf("Q6 revenue with SMAs %s != baseline %s", res.Rows[0][0], base.Rows[0][0])
	}
}

// TestHavingAndLimitSQL: HAVING and LIMIT flow end to end.
func TestHavingAndLimitSQL(t *testing.T) {
	db := openLineItem(t, 0.001, tpcd.OrderSpec)
	all, err := engine.Collect(db, `select L_RETURNFLAG, count(*) as N from LINEITEM
		group by L_RETURNFLAG order by L_RETURNFLAG`)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Rows) != 3 {
		t.Fatalf("flags = %d rows", len(all.Rows))
	}
	lim, err := engine.Collect(db, `select L_RETURNFLAG, count(*) as N from LINEITEM
		group by L_RETURNFLAG order by L_RETURNFLAG limit 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Rows) != 2 {
		t.Errorf("limit 2 returned %d rows", len(lim.Rows))
	}
	hav, err := engine.Collect(db, `select L_RETURNFLAG, count(*) as N from LINEITEM
		group by L_RETURNFLAG having N > 0 and L_RETURNFLAG = 'N' order by L_RETURNFLAG`)
	if err != nil {
		t.Fatal(err)
	}
	if len(hav.Rows) != 1 || hav.Rows[0][0] != "N" {
		t.Errorf("having rows = %v", hav.Rows)
	}
	if _, err := engine.Collect(db, `select count(*) as N from LINEITEM having NOPE > 1`); err == nil {
		t.Errorf("unknown HAVING column should fail")
	}
	if _, err := engine.Collect(db, `select count(*) as N from LINEITEM limit -1`); err == nil {
		t.Errorf("negative limit should fail")
	}
}

// TestComplexPredicates: OR / NOT / col-col predicates through SQL with
// SMA grading (receipt vs ship dates).
func TestComplexPredicates(t *testing.T) {
	db := openLineItem(t, 0.001, tpcd.OrderSorted)
	for _, ddl := range []string{
		"define sma smin select min(L_SHIPDATE) from LINEITEM",
		"define sma smax select max(L_SHIPDATE) from LINEITEM",
		"define sma rmin select min(L_RECEIPTDATE) from LINEITEM",
		"define sma rmax select max(L_RECEIPTDATE) from LINEITEM",
	} {
		if _, err := db.DefineSMA(ddl); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		`select count(*) as N from LINEITEM where L_SHIPDATE <= date '1993-01-01' or L_SHIPDATE >= date '1998-01-01'`,
		`select count(*) as N from LINEITEM where not L_SHIPDATE > date '1995-01-01'`,
		`select count(*) as N from LINEITEM where L_RECEIPTDATE <= L_SHIPDATE`,
		`select count(*) as N from LINEITEM where L_SHIPDATE < L_RECEIPTDATE and L_SHIPDATE <= date '1994-06-01'`,
	}
	smaCounts := make([]string, len(queries))
	for i, q := range queries {
		res, err := engine.Collect(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		smaCounts[i] = res.Rows[0][0]
	}
	// Drop all SMAs and compare against plain scans.
	for _, name := range []string{"smin", "smax", "rmin", "rmax"} {
		if err := db.DropSMA("LINEITEM", name); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range queries {
		res, err := engine.Collect(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0] != smaCounts[i] {
			t.Errorf("query %d: SMA count %s != scan count %s\n%s", i, smaCounts[i], res.Rows[0][0], q)
		}
	}
}
