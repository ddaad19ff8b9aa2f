package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sma/internal/core"
	"sma/internal/engine"
	"sma/internal/storage"
)

// The files beside the heap — SMA-files and the catalog — carry a checksum
// trailer. One flipped bit in any of them must end in the right answer (an
// SMA-file is rebuilt from the heap at Open) or a typed error (Open fails
// with IsCorrupt), and Scrub on an open database must list the damaged
// file. Delete marks live in the heap pages, under the page checksum.

// flipBit XORs mask into byte off of the file at path and returns the
// file's original bytes.
func flipBit(t *testing.T, path string, off int, mask byte) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := bytes.Clone(raw)
	raw[off] ^= mask
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return orig
}

// seedT fills dir with T(A, B, C char(10)), rows A = B = 0..39 (sum(B) =
// 780) in one bucket, runs the extra statements and closes the database
// cleanly.
func seedT(t *testing.T, dir string, extra ...string) {
	t.Helper()
	db, err := engine.Open(dir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, db, "create table T (A int32, B float64, C char(10))")
	vals := make([]string, 40)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d.0, 'x')", i, i)
	}
	exec(t, db, "insert into T values "+strings.Join(vals, ", "))
	for _, sql := range extra {
		exec(t, db, sql)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// scrubLists runs Scrub on an open database and requires exactly one
// finding, an error naming want, with no page quarantined and the
// database not degraded: file damage does not make it read-only.
func scrubLists(t *testing.T, db *engine.DB, want string) {
	t.Helper()
	rep, err := db.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 0 || len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], want) {
		t.Fatalf("scrub report %+v, want one error naming %s", rep, want)
	}
	if err := db.Degraded(); err != nil {
		t.Fatalf("file damage degraded the database: %v", err)
	}
}

// queryRow runs sql and returns its one row; a non-empty strategy is the
// plan it must take.
func queryRow(t *testing.T, db *engine.DB, sql, strategy string) []string {
	t.Helper()
	res, err := engine.Collect(db, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if got := res.Plan.StrategyName(); strategy != "" && got != strategy {
		t.Fatalf("%s: strategy %s, want %s", sql, got, strategy)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%s: %d rows", sql, len(res.Rows))
	}
	return res.Rows[0]
}

// TestFlippedSMAFileIsRebuilt: a flipped exponent bit in the one entry of
// an SMA-file turns its sum of 780 into a denormal. Scrub on the open
// database lists the file; the next Open rebuilds it from the heap, and
// SMA_GAggr answers what the scan does.
func TestFlippedSMAFileIsRebuilt(t *testing.T) {
	dir := t.TempDir()
	seedT(t, dir, "define sma S select sum(B) from T")
	db, err := engine.Open(dir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	name := core.FileName("s", 0)
	// Header of 20 bytes, no group key, then the float64 entry: byte 7 is
	// its sign and top exponent bits.
	flipBit(t, filepath.Join(dir, "smas", "t", name), 20+7, 0x40)
	scrubLists(t, db, name)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = engine.Open(dir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := queryRow(t, db, "select sum(B) as S from T", "SMA_GAggr"); got[0] != "780" {
		t.Fatalf("sum(B) from the SMA = %s, want 780", got[0])
	}
	if got := queryRow(t, db, "select sum(B) as S from T where A >= 0", "FullScan+GAggr"); got[0] != "780" {
		t.Fatalf("sum(B) from the scan = %s, want 780", got[0])
	}
	tbl, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.VerifySMA("s"); err != nil {
		t.Fatal(err)
	}
	if rep, err := db.Scrub(context.Background()); err != nil || !rep.Clean() {
		t.Fatalf("scrub after the rebuild: %+v, %v", rep, err)
	}
}

// TestFlippedDeleteMarkIsCorruptPage: A = 0..9 are deleted, their marks
// in the one heap page. Flipping the mark of row 0 would bring it back
// (min(A) 10 → 0), but the page checksum covers the marks: Open
// succeeds, Scrub quarantines that page and degrades the database, and a
// query that must read it fails with IsCorrupt instead of answering with
// the row.
func TestFlippedDeleteMarkIsCorruptPage(t *testing.T) {
	dir := t.TempDir()
	seedT(t, dir, "delete from T where A < 10")
	db, err := engine.Open(dir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	heap, per := tbl.Disk().Path(), tbl.Heap.RecordsPerPage()
	if got := queryRow(t, db, "select sum(B) as S, min(A) as M from T", "FullScan+GAggr"); got[0] != "735" || got[1] != "10" {
		t.Fatalf("sum(B), min(A) = %v, want 735, 10", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The marks end the page, one bit per slot: slot 0 is the low bit of
	// the first mark byte.
	flipBit(t, heap, storage.PageSize-(per+7)/8, 0x01)

	db, err = engine.Open(dir, engine.Options{})
	if err != nil {
		t.Fatalf("Open over a flipped delete mark: %v", err)
	}
	defer db.Close()
	rep, err := db.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != (engine.CorruptPage{Table: "T", Page: 0}) || len(rep.Errors) != 0 {
		t.Fatalf("scrub report %+v, want page 0 of T corrupt and nothing else", rep)
	}
	if db.Degraded() == nil {
		t.Fatal("a corrupt page left the database healthy")
	}
	if res, err := engine.Collect(db, "select sum(B) as S, min(A) as M from T"); !storage.IsCorrupt(err) {
		t.Fatalf("query over the flipped mark: %v (error %v), want a corrupt-page error", res, err)
	}
}

// TestOlderDirectoryFailsOpen: a directory written before heap pages held
// their delete marks kept them in a t.del beside the heap and a version-1
// log. Open refuses it with an error that says so, rather than opening it
// without its deletes.
func TestOlderDirectoryFailsOpen(t *testing.T) {
	dir := t.TempDir()
	seedT(t, dir, "delete from T where A < 10")
	flipBit(t, filepath.Join(dir, engine.WALFileName), 4, '1'^'2') // "SWAL2" → "SWAL1"
	if err := os.WriteFile(filepath.Join(dir, "t.del"), []byte("SDEL"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(dir, engine.Options{})
	if err == nil {
		db.Close()
		t.Fatal("Open of an older directory succeeded")
	}
	if !strings.Contains(err.Error(), "older version") {
		t.Fatalf("Open of an older directory: %v, want an error naming an older version", err)
	}
}

// TestFlippedCatalogFailsOpen: flipping one bit turns `"len": 10` of a
// char(10) column into 90, a schema that parses but misreads every record.
// The catalog cannot be rebuilt, so Open fails with IsCorrupt; Scrub on an
// open database lists it.
func TestFlippedCatalogFailsOpen(t *testing.T) {
	dir := t.TempDir()
	seedT(t, dir)
	path := filepath.Join(dir, "catalog.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(raw, []byte(`"len": 10`))
	if off < 0 {
		t.Fatalf("catalog has no char(10) column:\n%s", raw)
	}
	orig := flipBit(t, path, off+len(`"len": `), '1'^'9')
	if db, err := engine.Open(dir, engine.Options{}); !storage.IsCorrupt(err) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open over a flipped catalog: %v, want a corrupt-file error", err)
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := engine.Open(dir, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := queryRow(t, db, "select A, C from T where A = 5", ""); got[0] != "5" || got[1] != "x" {
		t.Fatalf("row 5 = %v, want [5 x]", got)
	}
	flipBit(t, path, off+len(`"len": `), '1'^'9')
	scrubLists(t, db, "catalog")
}
