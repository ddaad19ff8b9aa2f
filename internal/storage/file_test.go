package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReadFile: a body round-trips through WriteFile and
// ReadFile; a flipped byte or a file one byte short reads as a
// CorruptFileError; a path.tmp left by a write that never renamed is not
// read, and the next write replaces it.
func TestWriteFileReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	body := []byte("the body of a file beside the heap")
	if err := WriteFile(path, body); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("ReadFile = %q, %v; want %q", got, err, body)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("WriteFile left its temporary file behind: %v", err)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatalf("ReadFile of a missing file: %v, want a not-exist error", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(raw)
	flipped[5] ^= 0x01
	for name, damaged := range map[string][]byte{
		"flipped byte":   flipped,
		"one byte short": raw[:len(raw)-1],
		"empty":          {},
	} {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		if ce, ok := err.(*CorruptFileError); !ok || ce.Path != path || !IsCorrupt(err) {
			t.Errorf("%s: ReadFile error %v, want a CorruptFileError for %s", name, err, path)
		}
	}

	// A crash between writing path.tmp and renaming it leaves both files.
	if err := WriteFile(path, body); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("half a new fi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(path); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("ReadFile beside a leftover .tmp = %q, %v; want %q", got, err, body)
	}
	next := []byte("the next body")
	if err := WriteFile(path, next); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(path); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("ReadFile after the next write = %q, %v; want %q", got, err, next)
	}
}
