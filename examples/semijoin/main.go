// Semi-join SMAs (§4): "select R.* from R, S where R.A θ S.B" — compute
// the minimax of S.B and fold it into a predicate on R.A, so R's min/max
// SMAs skip buckets that cannot contain semi-join partners. The example
// runs the whole reduction through the public sma API: the minimax bounds
// come from a streaming aggregate query on S, the reduced predicate runs
// as an ordinary SMA-graded query on R, graded by the same pass as any
// other predicate. cmd/smabench -exp e10 measures the reduction.
//
//	go run ./examples/semijoin
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"sma"
	"sma/internal/tpcd"
)

func main() {
	dir, err := os.MkdirTemp("", "sma-semijoin-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := sma.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer closeOrWarn("database", db.Close)

	// R = LINEITEM, shipdate-sorted.
	if _, err := db.Exec(tpcd.LineItemDDL); err != nil {
		log.Fatal(err)
	}
	lineitem, err := db.Table("LINEITEM")
	if err != nil {
		log.Fatal(err)
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: 0.005, Seed: 3, Order: tpcd.OrderSorted})
	for i := range items {
		if _, err := lineitem.Append(items[i].Values()...); err != nil {
			log.Fatal(err)
		}
	}

	// S = the orders of Q1 1992 (a narrow dimension-side subset).
	if _, err := db.Exec(tpcd.OrdersDDL); err != nil {
		log.Fatal(err)
	}
	orders, err := db.Table("ORDERS")
	if err != nil {
		log.Fatal(err)
	}
	cut := sma.MustParseDate("1992-03-31")
	kept := 0
	for _, o := range tpcd.GenOrders(tpcd.Config{ScaleFactor: 0.005, Seed: 3}) {
		if sma.Date(o.OrderDate) <= cut {
			if _, err := orders.Append(o.Values()...); err != nil {
				log.Fatal(err)
			}
			kept++
		}
	}
	fmt.Printf("R = LINEITEM: %d buckets; S = ORDERS(Q1 1992): %d rows\n",
		lineitem.Buckets(), kept)

	// Min/max SMAs on R.A.
	for _, ddl := range []string{
		"define sma min select min(L_SHIPDATE) from LINEITEM",
		"define sma max select max(L_SHIPDATE) from LINEITEM",
	} {
		if _, err := db.Exec(ddl); err != nil {
			log.Fatal(err)
		}
	}

	// The minimax of S.B, streamed from an aggregate query on S.
	rows, err := db.Query("select min(O_ORDERDATE) as MN, max(O_ORDERDATE) as MX from ORDERS")
	if err != nil {
		log.Fatal(err)
	}
	var mn, mx int64
	if !rows.Next() {
		log.Fatal("no minimax row")
	}
	if err := rows.Scan(&mn, &mx); err != nil {
		log.Fatal(err)
	}
	rows.Close()
	lo, hi := sma.Date(int32(mn)), sma.Date(int32(mx))
	fmt.Printf("minimax(S.B) = [%s, %s]\n", lo, hi)

	// Semi-join with θ = "<=": R qualifies iff R.A <= max(S.B), so the
	// reduction is an ordinary predicate the selection SMAs can grade.
	reduced := fmt.Sprintf("select count(*) from LINEITEM where L_SHIPDATE <= date '%s'", hi)
	plan, err := db.Plan(reduced)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	matched := countOf(db, reduced)
	smaTime := time.Since(start)

	// Baseline: drop the SMAs and run the identical residual predicate as
	// a full scan.
	for _, name := range []string{"min", "max"} {
		if _, err := db.Exec("drop sma " + name + " on LINEITEM"); err != nil {
			log.Fatal(err)
		}
	}
	start = time.Now()
	baseline := countOf(db, reduced)
	scanTime := time.Since(start)

	fmt.Printf("semi-join matches: %d (baseline %d)\n", matched, baseline)
	fmt.Printf("buckets pruned without page access: %d / %d (%.1f%%)\n",
		plan.Disqualifying, lineitem.Buckets(),
		100*float64(plan.Disqualifying)/float64(lineitem.Buckets()))
	fmt.Printf("time: SMA %v vs scan %v\n", smaTime.Round(time.Microsecond), scanTime.Round(time.Microsecond))
}

// countOf runs a single-aggregate count query and returns the value.
func countOf(db *sma.DB, q string) int64 {
	rows, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	defer closeOrWarn("rows", rows.Close)
	if !rows.Next() {
		log.Fatal("no count row")
	}
	var n int64
	if err := rows.Scan(&n); err != nil {
		log.Fatal(err)
	}
	return n
}

// closeOrWarn runs a deferred close, reporting (but not failing on) errors.
func closeOrWarn(what string, close func() error) {
	if err := close(); err != nil {
		log.Printf("close %s: %v", what, err)
	}
}
