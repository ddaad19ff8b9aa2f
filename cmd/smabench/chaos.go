package main

// The chaos experiment measures availability under injected storage
// faults: rounds of a write workload, each cut short by a seeded disk
// fault and an abrupt crash, followed by recovery on reopen. Downtime is
// the time spent in recovery; availability is the fraction of wall time
// the database answered statements. -out writes the JSON artifact.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"sma/internal/chaos"
	"sma/internal/engine"
)

var errBenchFault = errors.New("chaos bench: injected write fault")

// chaosRound is one fault → crash → recover cycle's measurement.
type chaosRound struct {
	Round          int   `json:"round"`
	Committed      int   `json:"committed"`
	Failed         int   `json:"failed"`
	RecoveryMicros int64 `json:"recovery_us"`
	WALStatements  int64 `json:"wal_statements_replayed"`
}

// chaosFile is the on-disk artifact format.
type chaosFile struct {
	PR                int          `json:"pr"`
	Seed              int64        `json:"seed"`
	Rounds            []chaosRound `json:"rounds"`
	TotalStatements   int          `json:"total_statements"`
	TotalFailed       int          `json:"total_failed"`
	ElapsedMicros     int64        `json:"elapsed_us"`
	DowntimeMicros    int64        `json:"downtime_us"`
	Availability      float64      `json:"availability"`
	MaxRecoveryMicros int64        `json:"max_recovery_us"`
}

// runChaos drives the rounds and writes the artifact.
func runChaos(seed int64, outPath string) error {
	dir, err := os.MkdirTemp("", "sma-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// A tiny pool and a fat PAD column force dirty-page write-backs while
	// the round is still running, so the injected write faults actually
	// land mid-workload instead of waiting for the final checkpoint.
	opts := engine.Options{BucketPages: 1, PoolPages: 8, AllowUnsafeCrash: true}

	start := time.Now()
	db, err := engine.Open(dir, opts)
	if err != nil {
		return err
	}
	if _, err := db.ExecContext(nil, "create table W (D date, K char(1), V float64, PAD char(200))"); err != nil {
		return err
	}

	const rounds, perRound = 5, 400
	var (
		results   []chaosRound
		downtime  time.Duration
		committed int
		failed    int
		next      int
	)
	fmt.Printf("%-6s %10s %8s %14s %14s\n", "round", "committed", "failed", "recovery", "wal records")
	for round := 0; round < rounds; round++ {
		tbl, err := db.Table("W")
		if err != nil {
			return err
		}
		// The fuse counts heap page write-backs, which are far rarer than
		// statements; a short, per-round drifting fuse lands the failure
		// somewhere in the middle of the round.
		fuse := int64(5 + (int(seed)+round*97)%20)
		tbl.Disk().SetFault(chaos.Countdown(fuse, "write", errBenchFault))

		r := chaosRound{Round: round}
		for i := 0; i < perRound; i++ {
			sql := fmt.Sprintf("insert into W values (date '2024-%02d-%02d', '%c', %d, 'pad')",
				next/400%12+1, next%27+1, 'A'+next%5, next)
			next++
			if _, err := db.ExecContext(nil, sql); err != nil {
				r.Failed++
				if r.Failed > 20 {
					break // the disk is gone; stop hammering it
				}
				continue
			}
			r.Committed++
		}
		tbl.Disk().SetFault(nil)
		if err := db.Crash(); err != nil {
			// Expected: the injected fault leaves residue behind.
			_ = err
		}

		recStart := time.Now()
		db, err = engine.Open(dir, opts)
		if err != nil {
			return fmt.Errorf("round %d: reopen: %w", round, err)
		}
		rec := time.Since(recStart)
		downtime += rec
		r.RecoveryMicros = rec.Microseconds()
		r.WALStatements = db.RecoveryStats().Statements
		committed += r.Committed
		failed += r.Failed
		results = append(results, r)
		fmt.Printf("%-6d %10d %8d %14s %14d\n", round, r.Committed, r.Failed, rec, r.WALStatements)
	}
	if err := db.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)

	file := chaosFile{
		PR:              9,
		Seed:            seed,
		Rounds:          results,
		TotalStatements: committed + failed,
		TotalFailed:     failed,
		ElapsedMicros:   elapsed.Microseconds(),
		DowntimeMicros:  downtime.Microseconds(),
		Availability:    1 - downtime.Seconds()/elapsed.Seconds(),
	}
	for _, r := range results {
		if r.RecoveryMicros > file.MaxRecoveryMicros {
			file.MaxRecoveryMicros = r.RecoveryMicros
		}
	}
	fmt.Printf("availability %.4f over %s (%s down, max recovery %s)\n",
		file.Availability, elapsed.Round(time.Millisecond),
		downtime.Round(time.Millisecond),
		(time.Duration(file.MaxRecoveryMicros) * time.Microsecond).Round(time.Millisecond))

	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}
