package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestStampVerifyRoundTrip(t *testing.T) {
	var page [PageSize]byte
	for i := range page {
		page[i] = byte(i * 7)
	}
	StampPage(page[:])
	if !VerifyPage(page[:]) {
		t.Fatal("freshly stamped page failed verification")
	}
	page[100] ^= 0x40
	if VerifyPage(page[:]) {
		t.Fatal("bit flip not detected")
	}
	page[100] ^= 0x40
	if !VerifyPage(page[:]) {
		t.Fatal("restored page failed verification")
	}
	// A zeroed checksum over non-zero bytes is damage, not an unstamped
	// page: every page that reaches the disk is stamped.
	var zeroed [PageSize]byte
	for i := range zeroed {
		zeroed[i] = byte(i)
	}
	zeroed[pageCRCOffset] = 0
	zeroed[pageCRCOffset+1] = 0
	zeroed[pageCRCOffset+2] = 0
	zeroed[pageCRCOffset+3] = 0
	if VerifyPage(zeroed[:]) {
		t.Fatal("zeroed checksum over non-zero bytes verified clean")
	}
	// A page allocated and never written back reads as all zeros.
	var never [PageSize]byte
	if !VerifyPage(never[:]) {
		t.Fatal("never-written all-zero page rejected")
	}
}

// corruptPageByte flips one byte of a page directly in the file,
// bypassing WritePage (which would restamp the checksum).
func corruptPageByte(t *testing.T, path string, page PageID, off int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pos := int64(page)*PageSize + int64(off)
	var b [1]byte
	if _, err := f.ReadAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
}

func TestPoolQuarantinesCorruptPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbl")
	d, err := OpenDiskManager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var page [PageSize]byte
	for i := range page {
		page[i] = byte(i * 3)
	}
	for id := PageID(0); id < 3; id++ {
		if err := d.WritePage(id, page[:]); err != nil {
			t.Fatal(err)
		}
	}
	corruptPageByte(t, path, 1, 2000)

	bp := NewBufferPool(d, 4)
	var notified []PageID
	bp.SetCorruptionHandler(func(id PageID) { notified = append(notified, id) })

	// Healthy pages fetch fine.
	for _, id := range []PageID{0, 2} {
		fr, err := bp.FetchPage(id)
		if err != nil {
			t.Fatalf("fetch page %d: %v", id, err)
		}
		if err := bp.UnpinPage(fr.ID()); err != nil {
			t.Fatal(err)
		}
	}

	// The corrupt page fails with a typed error and is quarantined.
	if _, err := bp.FetchPage(1); !IsCorrupt(err) {
		t.Fatalf("fetch of corrupt page: got %v, want CorruptPageError", err)
	}
	var ce *CorruptPageError
	_, err = bp.FetchPage(1)
	if !errors.As(err, &ce) || ce.Page != 1 {
		t.Fatalf("second fetch: got %v", err)
	}
	reads, _ := d.Stats()
	if _, err := bp.FetchPage(1); !IsCorrupt(err) {
		t.Fatalf("third fetch: got %v", err)
	}
	if r2, _ := d.Stats(); r2 != reads {
		t.Fatalf("quarantined fetch re-read the disk: %d -> %d reads", reads, r2)
	}
	if got := bp.Stats().CorruptPages; got != 1 {
		t.Fatalf("CorruptPages = %d, want 1", got)
	}
	if len(notified) != 1 || notified[0] != 1 {
		t.Fatalf("corruption handler calls = %v, want [1]", notified)
	}
	if q := bp.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("Quarantined() = %v, want [1]", q)
	}
}

func TestPoolVerifyDisabledAcceptsCorruptPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tbl")
	d, err := OpenDiskManager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var page [PageSize]byte
	if err := d.WritePage(0, page[:]); err != nil {
		t.Fatal(err)
	}
	corruptPageByte(t, path, 0, 512)

	bp := NewBufferPool(d, 2)
	bp.SetVerifyReads(false)
	fr, err := bp.FetchPage(0)
	if err != nil {
		t.Fatalf("fetch with verification off: %v", err)
	}
	if err := bp.UnpinPage(fr.ID()); err != nil {
		t.Fatal(err)
	}
}
