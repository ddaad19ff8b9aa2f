package server_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sma"
	"sma/client"
	"sma/internal/oracle"
	"sma/internal/server"
)

// runWireDiff replays the internal/oracle seeded workload through a live
// server over HTTP and through a direct sma.DB in lockstep, requiring
// byte-identical results: same RowsAffected for every write, same
// rendered columns/rows and the same physical strategy for every query.
// sessions streams run concurrently, each owning its own table (and its
// own seed) on both databases, so the per-session comparison stays exact
// while the server juggles all of them. Run under -race: this is the
// wire-protocol acceptance check.
func runWireDiff(t *testing.T, sessions, ops int) {
	t.Helper()
	dop := runtime.NumCPU()
	if dop < 2 {
		dop = 2 // the parallel partition/merge path must run even on 1 core
	}
	// Seven-tuple batches on both sides: the batch size is a database
	// knob, so the served and the direct database share it.
	dbOpts := []sma.Option{sma.WithBucketPages(1), sma.WithParallelism(dop), sma.WithBatchSize(7)}
	ts := startServer(t, dbOpts, server.Config{
		MaxConcurrent: sessions, QueueTimeout: 60 * time.Second,
	})
	direct, err := sma.Open(t.TempDir(), dbOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for si := 0; si < sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			if err := wireDiffSession(ctx, ts, direct, si, ops, dop); err != nil {
				errc <- fmt.Errorf("session %d: %w", si, err)
			}
		}(si)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// The drain contract closes the run: stop admitting, wait for every
	// in-flight cursor, leave the database immediately closable.
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := ts.Srv.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown after workload: %v", err)
	}
	st, err := client.New(ts.Base).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 0 || st.Admission.Active != 0 || !st.Admission.Draining {
		t.Fatalf("post-drain status: %+v", st.Admission)
	}
}

// wireDiffSession drives one generator stream through both paths.
func wireDiffSession(ctx context.Context, ts *testServer, direct *sma.DB, si, ops, dop int) error {
	c := client.New(ts.Base)
	g := oracle.NewGenFor(int64(100+si), fmt.Sprintf("W%d", si))
	for _, sql := range g.Setup() {
		if _, err := c.Exec(ctx, sql); err != nil {
			return fmt.Errorf("wire setup: %w", err)
		}
		if _, err := direct.Exec(sql); err != nil {
			return fmt.Errorf("direct setup: %w", err)
		}
	}
	for i := 0; i < ops; i++ {
		op := g.Next()
		if !op.IsQuery {
			wres, werr := c.Exec(ctx, op.SQL)
			dres, derr := direct.Exec(op.SQL)
			if (werr == nil) != (derr == nil) {
				return fmt.Errorf("step %d: %s: wire err %v, direct err %v", i, op.SQL, werr, derr)
			}
			if werr != nil {
				continue // both failed identically-shaped; generator avoids this
			}
			if wres.RowsAffected != dres.RowsAffected {
				return fmt.Errorf("step %d: %s: wire affected %d, direct %d",
					i, op.SQL, wres.RowsAffected, dres.RowsAffected)
			}
			continue
		}
		// Exercise the per-request knob while keeping both sides equal:
		// every third query forces serial.
		var wopts []client.QueryOption
		var dopts []sma.QueryOption
		if i%3 == 0 {
			wopts = append(wopts, client.WithDOP(1))
			dopts = append(dopts, sma.WithQueryParallelism(1))
		}
		rows, err := c.Query(ctx, op.SQL, wopts...)
		if err != nil {
			return fmt.Errorf("step %d: wire: %s: %w", i, op.SQL, err)
		}
		var wire [][]string
		for rows.Next() {
			wire = append(wire, append([]string(nil), rows.Row()...))
		}
		werr := rows.Err()
		wcols, wstrat := rows.Columns(), rows.Strategy()
		rows.Close()
		if werr != nil {
			return fmt.Errorf("step %d: wire: %s: %w", i, op.SQL, werr)
		}
		drows, err := direct.Query(op.SQL, dopts...)
		if err != nil {
			return fmt.Errorf("step %d: direct: %s: %w", i, op.SQL, err)
		}
		want, err := sma.Collect(drows)
		if err != nil {
			return fmt.Errorf("step %d: direct: %s: %w", i, op.SQL, err)
		}
		if wstrat != want.Strategy {
			return fmt.Errorf("step %d: %s: wire strategy %q, direct %q", i, op.SQL, wstrat, want.Strategy)
		}
		if len(wcols) != len(want.Columns) {
			return fmt.Errorf("step %d: %s: wire cols %v, direct %v", i, op.SQL, wcols, want.Columns)
		}
		for j := range wcols {
			if !strings.EqualFold(wcols[j], want.Columns[j]) {
				return fmt.Errorf("step %d: %s: column %d %q vs %q", i, op.SQL, j, wcols[j], want.Columns[j])
			}
		}
		if len(wire) != len(want.Rows) {
			return fmt.Errorf("step %d: %s (plan %s): wire %d rows, direct %d\nwire: %v\ndirect: %v",
				i, op.SQL, wstrat, len(wire), len(want.Rows), wire, want.Rows)
		}
		for r := range wire {
			for cidx := range wire[r] {
				if wire[r][cidx] != want.Rows[r][cidx] {
					return fmt.Errorf("step %d: %s (plan %s): row %d col %d: %q vs %q",
						i, op.SQL, wstrat, r, cidx, wire[r][cidx], want.Rows[r][cidx])
				}
			}
		}
	}
	return nil
}

// TestWireDifferential is the acceptance check: 8 concurrent sessions,
// each replaying a 150-op seeded oracle workload through HTTP, must be
// byte-identical to direct engine calls, with a clean drain at the end.
func TestWireDifferential(t *testing.T) {
	ops := 150
	if testing.Short() {
		ops = 40
	}
	runWireDiff(t, 8, ops)
}
