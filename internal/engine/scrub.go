package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sma/internal/core"
	"sma/internal/storage"
)

// ScrubReport summarizes one verification pass over the database.
type ScrubReport struct {
	Start        time.Time     `json:"start"`
	Duration     time.Duration `json:"duration_ns"`
	Tables       int           `json:"tables"`
	PagesScanned int64         `json:"pages_scanned"`
	SMAsChecked  int           `json:"smas_checked"`
	// Corrupt lists the pages whose checksum verification failed. Every
	// page here is quarantined and the database is degraded.
	Corrupt []CorruptPage `json:"corrupt,omitempty"`
	// Errors lists everything else: raw read failures, and a catalog or
	// SMA-file that no longer loads. None of these degrades the database:
	// the next Open rebuilds a damaged SMA-file from the heap and fails on
	// a damaged catalog.
	Errors []string `json:"errors,omitempty"`
}

// Clean reports whether the pass found nothing wrong.
func (r *ScrubReport) Clean() bool { return len(r.Corrupt) == 0 && len(r.Errors) == 0 }

// Scrub verifies every heap page checksum (delete marks included) and reads
// back the catalog and every SMA-file, returning what it found. Corrupt pages
// are quarantined and flip the database into degraded read-only mode,
// exactly as a query hitting them would — scrubbing just finds them before
// a query does. The pass reads pages raw (outside the buffer pool, so it cannot evict the working
// set) and confirms any mismatch through the pool, which arbitrates the
// race against a concurrent write-back of the same page.
func (db *DB) Scrub(ctx context.Context) (*ScrubReport, error) {
	return db.scrub(ctx, false)
}

// scrubRunPages / scrubPauseFor pace a pass: it holds the read lock for
// one run of pages at a time, so a writer waits at most one run, and the
// background scrubber pauses between runs so a large database's scrub
// cannot monopolize the disk.
const (
	scrubRunPages = 64
	scrubPauseFor = time.Millisecond
)

func (db *DB) scrub(ctx context.Context, paced bool) (*ScrubReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	db.mu.RLock()
	err := db.checkOpen()
	names := db.tableNames()
	_, catErr := storage.ReadFile(filepath.Join(db.dir, catalogFile))
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{Start: time.Now()}
	if catErr != nil && !os.IsNotExist(catErr) {
		rep.Errors = append(rep.Errors, fmt.Sprintf("catalog: %v", catErr))
	}
	for _, name := range names {
		rep.Tables++
		for from, more := int64(0), true; more; from += scrubRunPages {
			if paced && from > 0 {
				time.Sleep(scrubPauseFor)
			}
			if more, err = db.scrubRun(ctx, rep, name, from); err != nil {
				return nil, err
			}
		}
	}
	rep.Duration = time.Since(rep.Start)
	db.setLastScrub(rep)
	return rep, nil
}

// scrubRun verifies pages [from, from+scrubRunPages) of one table under one
// hold of the read lock and reports whether pages remain past them. The
// run that reaches the end of the heap also reads back the table's delete
// vector and SMA-files.
func (db *DB) scrubRun(ctx context.Context, rep *ScrubReport, name string, from int64) (more bool, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.checkOpen(); err != nil {
		return false, err
	}
	t := db.tables[name]
	np := t.disk.NumPages()
	var buf [storage.PageSize]byte
	for p := from; p < min(from+scrubRunPages, np); p++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		id := storage.PageID(p)
		rep.PagesScanned++
		if err := t.disk.ReadPage(id, buf[:]); err != nil {
			if storage.IsCorrupt(err) {
				rep.Corrupt = append(rep.Corrupt, CorruptPage{Table: name, Page: id})
			} else {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s page %d: read: %v", name, p, err))
			}
			continue
		}
		if storage.VerifyPage(buf[:]) {
			continue
		}
		// The raw read may have raced a concurrent write-back of this
		// page (torn read of a healthy page). The pool is the
		// arbiter: a fetch either finds the authoritative resident
		// frame, re-reads a consistent image, or confirms the
		// corruption — quarantining the page and degrading the
		// database via the corruption callback.
		fr, err := t.pool.FetchPage(id)
		if err == nil {
			if uerr := t.pool.UnpinPage(fr.ID()); uerr != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s page %d: unpin: %v", name, p, uerr))
			}
			continue
		}
		if storage.IsCorrupt(err) {
			rep.Corrupt = append(rep.Corrupt, CorruptPage{Table: name, Page: id})
		} else {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s page %d: %v", name, p, err))
		}
	}
	if from+scrubRunPages < np {
		return true, nil
	}
	// The files beside the heap: prove each one still loads from disk.
	// The in-memory state may be ahead of the files between checkpoints,
	// so the check is the checksum and the structure, not the content.
	for _, s := range t.SMAs() {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		rep.SMAsChecked++
		if _, err := core.Load(db.smaDir(t.Name), s.Def, t.Schema); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s sma %s: %v", name, s.Def.Name, err))
		}
	}
	return false, nil
}

// setLastScrub publishes the most recent scrub report for /status.
func (db *DB) setLastScrub(rep *ScrubReport) {
	db.scrubMu.Lock()
	db.lastScrub = rep
	db.scrubMu.Unlock()
}

// LastScrub returns the most recent scrub report, nil if none ran yet.
func (db *DB) LastScrub() *ScrubReport {
	db.scrubMu.Lock()
	defer db.scrubMu.Unlock()
	return db.lastScrub
}

// startScrubber launches the background scrub loop (Options.ScrubInterval).
func (db *DB) startScrubber() {
	ctx, cancel := context.WithCancel(context.Background())
	db.scrubCancel = cancel
	db.scrubDone = make(chan struct{})
	go db.scrubLoop(ctx)
}

// stopScrubber cancels the loop and waits for it to exit. Safe to call
// when no scrubber was started; must be called before Close/Crash take
// db.mu (a scrub run holds the read lock and exits on cancellation).
func (db *DB) stopScrubber() {
	if db.scrubCancel == nil {
		return
	}
	db.scrubCancel()
	<-db.scrubDone
	db.scrubCancel = nil
}

// scrubLoop runs paced scrub passes every ScrubInterval until cancelled.
func (db *DB) scrubLoop(ctx context.Context) {
	defer close(db.scrubDone)
	tick := time.NewTicker(db.opts.ScrubInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		rep, err := db.scrub(ctx, true)
		o := db.opts.Obs
		if o == nil {
			continue
		}
		switch {
		case err != nil:
			if ctx.Err() == nil {
				o.Logger().Warn("background scrub failed", "err", err)
			}
		case !rep.Clean():
			o.Logger().Error("background scrub found damage",
				"corrupt_pages", len(rep.Corrupt), "errors", len(rep.Errors),
				"pages_scanned", rep.PagesScanned)
		default:
			o.Logger().Debug("background scrub clean",
				"pages_scanned", rep.PagesScanned, "dur", rep.Duration)
		}
	}
}
