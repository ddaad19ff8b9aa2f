// Command smaql runs SQL statements against a database directory through
// the SMA-aware planner, streaming query results through the public sma
// cursor API. Non-SELECT statements — create table, define/drop sma, and
// the DML statements insert/update/delete — run through the unified exec
// entrypoint and report rows affected; SMAs are maintained incrementally.
// Interrupting a long-running query (Ctrl-C) cancels its context, which
// aborts the scan at the next bucket or page boundary.
//
// Usage:
//
//	smaql -dir ./db 'select count(*) from LINEITEM where L_SHIPDATE <= date ''1998-09-02'''
//	smaql -dir ./db 'insert into EVENTS values (date ''2024-01-02'', ''A'', 1.5)'
//	smaql -dir ./db 'update EVENTS set VALUE = VALUE + 1 where KIND = ''A'''
//	smaql -dir ./db 'delete from EVENTS where TS <= date ''2024-01-31'''
//	smaql -dir ./db -explain '<query>'     # show the chosen plan only
//	smaql -dir ./db 'explain <query>'            # same, through SQL
//	smaql -dir ./db 'explain analyze <query>'    # execute and render the phase trace
//	smaql -dir ./db -stats '<query>'       # print scan statistics after the result
//	smaql -dir ./db -dop 4 '<query>'       # run aggregations on 4 partition workers
//	echo '<query>' | smaql -dir ./db -
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"sma"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	explain := flag.Bool("explain", false, "print the plan instead of executing")
	stats := flag.Bool("stats", false, "print the query's scan statistics (bucket grading, pages, batches, prefetch) after the result")
	dop := flag.Int("dop", 0, "degree of intra-query parallelism (0 = serial; buckets are partitioned across this many workers)")
	batchSize := flag.Int("batchsize", 0, "tuples per batch (0 or negative = default 1024)")
	prefetch := flag.Int("prefetch", 0, "pages of asynchronous readahead per scan (0 = default: two batches ahead, at least 16; negative disables; for A/B runs)")
	flag.Parse()
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: smaql -dir <db> '<query>' (or - for stdin)"))
	}
	sql := flag.Arg(0)
	if sql == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		sql = string(data)
	}

	opts := []sma.Option{sma.WithParallelism(*dop)}
	if *batchSize != 0 {
		opts = append(opts, sma.WithBatchSize(*batchSize))
	}
	if *prefetch != 0 {
		opts = append(opts, sma.WithPrefetchWindow(*prefetch))
	}
	db, err := sma.Open(*dir, opts...)
	if err != nil {
		fatal(err)
	}
	defer closeOrWarn("database", db.Close)

	if *explain {
		plan, err := db.Plan(sql)
		if err != nil {
			fatal(err)
		}
		fmt.Println(plan.Explain())
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	lower := strings.ToLower(strings.TrimSpace(sql))
	isQuery := strings.HasPrefix(lower, "select") || strings.HasPrefix(lower, "explain")
	if !isQuery {
		res, err := db.ExecContext(ctx, sql)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		switch res.Kind {
		case "insert", "update", "delete":
			fmt.Printf("%s: %d rows affected (%v)\n", res.Kind, res.RowsAffected, elapsed.Round(time.Microsecond))
		case "define sma":
			fmt.Printf("defined sma %s on %s: %d buckets, %d files, %d pages (%v)\n",
				res.SMAName, res.Table, res.SMABuckets, res.SMAFiles, res.SMAPages, elapsed.Round(time.Microsecond))
		default:
			fmt.Printf("%s %s ok (%v)\n", res.Kind, res.Table, elapsed.Round(time.Microsecond))
		}
		return
	}
	rows, err := db.QueryContext(ctx, sql)
	if err != nil {
		fatal(err)
	}
	if strings.HasPrefix(lower, "explain") {
		// EXPLAIN [ANALYZE] streams plan text as one-column rows; print
		// the lines raw instead of boxing them into a result table.
		for rows.Next() {
			vals, err := rows.RowStrings()
			if err != nil {
				fatal(err)
			}
			fmt.Println(vals[0])
		}
		if err := rows.Err(); err != nil {
			fatal(err)
		}
		closeOrWarn("rows", rows.Close)
		return
	}
	res, err := sma.Collect(rows)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Print(res.String())
	fmt.Printf("(%d rows, %v, plan: %s)\n", len(res.Rows), elapsed.Round(time.Microsecond), res.Strategy)
	if *stats {
		if qs, ok := rows.Stats(); ok {
			fmt.Printf("stats: buckets %d/%d/%d (qualify/disqualify/ambivalent), pages read %d, batches %d, prefetched %d (hits %d)\n",
				qs.QualifyingBuckets, qs.DisqualifyingBuckets, qs.AmbivalentBuckets,
				qs.PagesRead, qs.Batches, qs.PagesPrefetched, qs.PrefetchHits)
		} else {
			fmt.Println("stats: not tracked by this plan")
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smaql:", err)
	os.Exit(1)
}

// closeOrWarn runs a deferred close, reporting (but not failing on) errors.
func closeOrWarn(what string, close func() error) {
	if err := close(); err != nil {
		fmt.Fprintf(os.Stderr, "smaql: close %s: %v\n", what, err)
	}
}
