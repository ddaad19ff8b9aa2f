package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sma/internal/engine"
	"sma/internal/storage"
)

// seedPages fills dir with a table BIG of at least pages heap pages (a fat
// PAD column puts a few rows on each), closes the database cleanly and
// returns the table's page count.
func seedPages(t *testing.T, dir string, pages int64) int64 {
	t.Helper()
	db, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, "create table BIG (N int64, PAD char(1000))")
	tbl, err := db.Table("BIG")
	if err != nil {
		t.Fatal(err)
	}
	rows := int(pages) * tbl.Heap.RecordsPerPage()
	for lo := 0; lo < rows; lo += 500 {
		vals := make([]string, 0, 500)
		for i := lo; i < min(lo+500, rows); i++ {
			vals = append(vals, fmt.Sprintf("(%d, 'pad')", i))
		}
		exec(t, db, "insert into BIG values "+strings.Join(vals, ", "))
	}
	np := tbl.Heap.NumPages()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return np
}

// TestScrubLetsWritersIn: a scrub pass holds the read lock one run of
// pages at a time, so an INSERT issued mid-pass waits for the run in
// progress, not for the rest of the pass.
func TestScrubLetsWritersIn(t *testing.T) {
	dir := t.TempDir()
	np := seedPages(t, dir, 320)
	db, err := engine.Open(dir, engine.Options{BucketPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.Table("BIG")
	if err != nil {
		t.Fatal(err)
	}
	// Every page read sleeps at least 200 µs, so a run of 64 pages takes
	// at least 13 ms and the pass is five runs. The hook signals once the
	// pass is past its first run.
	const mid = 100
	midPass := make(chan struct{})
	var reads atomic.Int64
	tbl.Disk().SetFault(func(op string, _ storage.PageID) error {
		if op == "read" {
			if reads.Add(1) == mid {
				close(midPass)
			}
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	})

	start := time.Now()
	scrubbed := make(chan time.Duration, 1)
	go func() {
		rep, err := db.Scrub(context.Background())
		if err != nil || rep.PagesScanned < np {
			t.Errorf("scrub: %+v, %v; want at least %d pages scanned", rep, err, np)
		}
		scrubbed <- time.Since(start)
	}()
	<-midPass
	issued := time.Now()
	exec(t, db, "insert into BIG values (-1, 'mid-pass')")
	insertWait := time.Since(issued)
	select {
	case pass := <-scrubbed:
		t.Fatalf("the INSERT issued at page %d of %d waited %v, until the scrub pass ended (%v)", mid, np, insertWait, pass)
	default:
	}
	pass := <-scrubbed
	t.Logf("INSERT mid-pass: %v; pass: %v over %d pages", insertWait, pass, np)
}

// TestBackgroundScrubber: with ScrubInterval set, a flipped page byte is
// found with no query issued — the database degrades and LastScrub lists
// the page — and Close stops the loop promptly without leaking it.
func TestBackgroundScrubber(t *testing.T) {
	dir := t.TempDir()
	path := seedEvents(t, dir, 40)
	flipByte(t, path, 2*storage.PageSize+50) // page 2

	before := runtime.NumGoroutine()
	db, err := engine.Open(dir, engine.Options{BucketPages: 1, ScrubInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if rep := db.LastScrub(); rep != nil && len(rep.Corrupt) > 0 {
			if len(rep.Corrupt) != 1 || rep.Corrupt[0].Table != "EVENTS" || rep.Corrupt[0].Page != 2 {
				t.Fatalf("LastScrub().Corrupt = %+v, want EVENTS page 2", rep.Corrupt)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background scrubber never reported the flipped page; LastScrub() = %+v", db.LastScrub())
		}
	}
	if err := db.Degraded(); !errors.Is(err, engine.ErrDegraded) {
		t.Fatalf("Degraded() = %v, want ErrDegraded", err)
	}

	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close with the scrubber running did not return")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
		}
	}
}
