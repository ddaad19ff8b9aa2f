// Command smactl manages SMAs on a database directory through the public
// sma API: DDL goes through the unified SQL entrypoint (Exec), inspection
// through the Table handle and the planner diagnostics.
//
// Usage:
//
//	smactl -dir ./db define 'define sma min select min(L_SHIPDATE) from LINEITEM'
//	smactl -dir ./db q1                # define the paper's 8 Query-1 SMAs
//	smactl -dir ./db list              # list SMAs with sizes
//	smactl -dir ./db verify LINEITEM   # recompute and compare every SMA
//	smactl -dir ./db grade LINEITEM "L_SHIPDATE <= date '1995-06-17'"
//	smactl -dir ./db drop LINEITEM min
//	smactl -dir ./db scrub             # verify every page checksum and SMA file
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sma"
	"sma/internal/experiments"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	flag.Parse()
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}
	args := flag.Args()
	if len(args) == 0 {
		fatal(fmt.Errorf("missing command: define | q1 | list | verify | grade | drop | scrub | advise"))
	}
	db, err := sma.Open(*dir)
	if err != nil {
		fatal(err)
	}
	defer closeOrWarn("database", db.Close)

	switch args[0] {
	case "define":
		if len(args) != 2 {
			fatal(fmt.Errorf("usage: define '<ddl>'"))
		}
		if !strings.HasPrefix(strings.ToLower(strings.TrimSpace(args[1])), "define") {
			fatal(fmt.Errorf("define expects a 'define sma ...' statement"))
		}
		start := time.Now()
		res, err := db.Exec(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("built sma %s: %d buckets, %d SMA-file(s), %d page(s) in %v\n",
			res.SMAName, res.SMABuckets, res.SMAFiles, res.SMAPages,
			time.Since(start).Round(time.Millisecond))
	case "q1":
		// The paper's eight Query-1 definitions render to DDL and round-trip
		// through the SQL entrypoint.
		for _, def := range experiments.Q1SMADefs() {
			start := time.Now()
			res, err := db.Exec(def.String())
			if err != nil {
				fatal(err)
			}
			fmt.Printf("built sma %-10s %4d page(s) %2d file(s) in %v\n",
				res.SMAName, res.SMAPages, res.SMAFiles, time.Since(start).Round(time.Millisecond))
		}
	case "list":
		for _, ti := range db.Tables() {
			fmt.Printf("%s: %d rows, %d pages, bucket = %d page(s)\n",
				ti.Name, ti.Rows, ti.Pages, ti.BucketPages)
			for _, s := range ti.SMAs {
				fmt.Printf("  %-12s %-60s %4d file(s) %5d page(s)\n",
					s.Name, s.SQL, s.Files, s.Pages)
			}
		}
	case "verify":
		if len(args) != 2 {
			fatal(fmt.Errorf("usage: verify <table>"))
		}
		t, err := db.Table(args[1])
		if err != nil {
			fatal(err)
		}
		for _, s := range t.SMAs() {
			if err := t.VerifySMA(s.Name); err != nil {
				fatal(err)
			}
			fmt.Printf("sma %s: ok\n", s.Name)
		}
	case "grade":
		// grade <table> '<predicate>': classify every bucket against the
		// predicate using the table's SMAs and print the §3.1 partition.
		if len(args) != 3 {
			fatal(fmt.Errorf("usage: grade <table> '<predicate>'"))
		}
		p, err := db.Plan("select count(*) from " + args[1] + " where " + args[2])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("predicate: %s\n", p.Predicate)
		fmt.Printf("buckets:   %d qualify / %d disqualify / %d ambivalent (%.1f%%)\n",
			p.Qualifying, p.Disqualifying, p.Ambivalent, 100*p.AmbivalentFrac())
		verdict := "SMA plan pays off"
		if p.AmbivalentFrac() > 0.25 {
			verdict = "beyond the ~25% breakeven; prefer a sequential scan"
		}
		fmt.Println("verdict:  ", verdict)
	case "drop":
		if len(args) != 3 {
			fatal(fmt.Errorf("usage: drop <table> <sma>"))
		}
		if _, err := db.Exec(fmt.Sprintf("drop sma %s on %s", args[2], args[1])); err != nil {
			fatal(err)
		}
		fmt.Printf("dropped sma %s on %s\n", args[2], args[1])
	case "scrub":
		// scrub: verify every heap page checksum and read back the
		// catalog and SMA-files. Exit 1 on any finding,
		// so cron jobs and CI can alert on the status code alone; only
		// corrupt pages degrade the database.
		rep, err := db.Scrub(context.Background())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scrubbed %d table(s): %d page(s), %d SMA file set(s) in %v\n",
			rep.Tables, rep.PagesScanned, rep.SMAsChecked, rep.Duration.Round(time.Millisecond))
		for _, cp := range rep.Corrupt {
			fmt.Printf("  CORRUPT %s page %d\n", cp.Table, cp.Page)
		}
		for _, e := range rep.Errors {
			fmt.Printf("  ERROR %s\n", e)
		}
		if rep.Clean() {
			fmt.Println("clean")
			break
		}
		if len(rep.Corrupt) > 0 {
			fmt.Println("corruption found: database is degraded (read-only)")
		}
		os.Exit(1)
	case "advise":
		// advise ['<query>' ...]: optionally replay a workload so the
		// stats collector has something to observe (counters are
		// process-local and start empty), then print the SMA advisor's
		// recommendations — the same rows `select * from sma_advisor`
		// returns through any SQL surface.
		for _, q := range args[1:] {
			rows, err := db.Query(q)
			if err != nil {
				fatal(fmt.Errorf("workload query %q: %w", q, err))
			}
			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				fatal(fmt.Errorf("workload query %q: %w", q, err))
			}
			closeOrWarn("workload rows", rows.Close)
		}
		rows, err := db.Query("select * from sma_advisor")
		if err != nil {
			fatal(err)
		}
		defer closeOrWarn("advisor rows", rows.Close)
		n := 0
		for rows.Next() {
			var action, table, target string
			var filters, estPages, maintOps int64
			var reason, suggestion string
			if err := rows.Scan(&action, &table, &target, &filters, &estPages, &maintOps, &reason, &suggestion); err != nil {
				fatal(err)
			}
			n++
			fmt.Printf("%-4s %s %s (est. pages saved: %d)\n", action, table, target, estPages)
			fmt.Printf("     why: %s\n", strings.TrimSpace(reason))
			fmt.Printf("     run: %s\n", strings.TrimSpace(suggestion))
		}
		if err := rows.Err(); err != nil {
			fatal(err)
		}
		if n == 0 {
			fmt.Println("no recommendations (run a workload first, e.g. smactl advise '<query>' ...)")
		}
	default:
		fatal(fmt.Errorf("unknown command %q", args[0]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smactl:", err)
	os.Exit(1)
}

// closeOrWarn runs a deferred close, reporting (but not failing on) errors.
func closeOrWarn(what string, close func() error) {
	if err := close(); err != nil {
		fmt.Fprintf(os.Stderr, "smactl: close %s: %v\n", what, err)
	}
}
