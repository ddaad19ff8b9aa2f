// Maintenance: SMAs stay consistent under inserts, updates, and deletes —
// the paper's "cheap to maintain" property ("At most one additional page
// access is needed for an updated tuple"), extended to deletes, which
// mark their record in its page.
// The whole lifecycle runs through the public SQL surface: multi-row
// INSERT, predicate UPDATE and DELETE all flow through the unified exec
// entrypoint, and every statement maintains the table's SMAs
// incrementally — appends and sum/count adjustments in O(1) per SMA-file,
// boundary-moving min/max changes with at most one bucket rescan.
//
//	go run ./examples/maintenance
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"sma"
)

func main() {
	dir, err := os.MkdirTemp("", "sma-maint-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := sma.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer closeOrWarn("database", db.Close)

	// N is a load-order sequence number so updates and deletes below can
	// address row ranges by predicate instead of by record id.
	if _, err := db.Exec(`create table EVENTS (TS date, KIND char(1), VALUE float64, N int64)`); err != nil {
		log.Fatal(err)
	}
	start := sma.DateOf(2024, 1, 1)
	insertRows := func(from, to int, kind func(i int) string, day func(i int) sma.Date, value func(i int) int) {
		const batch = 500 // multi-row VALUES groups, one statement per batch
		for lo := from; lo < to; lo += batch {
			hi := lo + batch
			if hi > to {
				hi = to
			}
			rows := make([]string, 0, hi-lo)
			for i := lo; i < hi; i++ {
				rows = append(rows, fmt.Sprintf("(date '%s', '%s', %d, %d)", day(i), kind(i), value(i), i))
			}
			if _, err := db.Exec("insert into EVENTS values " + strings.Join(rows, ", ")); err != nil {
				log.Fatal(err)
			}
		}
	}
	insertRows(0, 5000,
		func(i int) string { return []string{"A", "B"}[i%2] },
		func(i int) sma.Date { return start.AddDays(i / 50) },
		func(i int) int { return i % 97 })

	for _, ddl := range []string{
		"define sma tmin select min(TS) from EVENTS",
		"define sma tmax select max(TS) from EVENTS",
		"define sma vsum select sum(VALUE) from EVENTS group by KIND",
		"define sma n select count(*) from EVENTS group by KIND",
	} {
		if _, err := db.Exec(ddl); err != nil {
			log.Fatal(err)
		}
	}
	events, err := db.Table("EVENTS")
	if err != nil {
		log.Fatal(err)
	}
	report := func(stage string) {
		rows, err := db.Query(`select KIND, sum(VALUE) as TOTAL, count(*) as N
			from EVENTS group by KIND order by KIND`)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sma.Collect(rows)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s plan=%-10s", stage, res.Strategy)
		for _, row := range res.Rows {
			fmt.Printf("  %s: total=%s n=%s", row[0], row[1], row[2])
		}
		fmt.Println()
		for _, s := range events.SMAs() {
			if err := events.VerifySMA(s.Name); err != nil {
				log.Fatalf("%s: %v", stage, err)
			}
		}
	}
	report("initial load")

	// Inserts extend the last bucket (or open a new one) in O(1) per SMA:
	// a brand-new group ("C") appears mid-life and the grouped SMAs follow.
	june := sma.DateOf(2024, 6, 1)
	insertRows(5000, 6000,
		func(int) string { return "C" },
		func(i int) sma.Date { return june.AddDays((i - 5000) / 50) },
		func(int) int { return 1 })
	report("after 1000 inserts")

	// Updates adjust sums and counts in place — O(1) per affected SMA-file;
	// only an update that moves a bucket's min or max value rescans that
	// one bucket (the paper's "at most one additional page access").
	res, err := db.Exec("update EVENTS set VALUE = VALUE + 10 where N >= 1000 and N < 1500")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SQL update touched %d tuples\n", res.RowsAffected)
	report("after 500 updates")

	// Targeted deletes mark their records in their heap pages; per-bucket
	// counts and sums decrement directly, min/max deletions rescan at most
	// one bucket.
	res, err = db.Exec("delete from EVENTS where N < 250 or (N >= 2000 and N < 2250)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SQL delete removed %d tuples\n", res.RowsAffected)
	report("after 500 deletes")

	// Bulk deletes run through the same unified SQL entrypoint.
	res, err = db.Exec("delete from EVENTS where TS <= date '2024-01-31'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SQL delete removed %d tuples\n", res.RowsAffected)
	report("after SQL delete")

	fmt.Println("\nevery stage verified all SMAs against a fresh bulkload (VerifySMA)")
}

// closeOrWarn runs a deferred close, reporting (but not failing on) errors.
func closeOrWarn(what string, close func() error) {
	if err := close(); err != nil {
		log.Printf("close %s: %v", what, err)
	}
}
