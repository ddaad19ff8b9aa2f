package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The files beside the heap files and the redo log — the catalog and the
// SMA-files — are written and read whole through
// WriteFile and ReadFile, each keeping its own body format. The body is
// followed by a 4-byte little-endian CRC-32C trailer (the codec of page
// checksums and WAL frames), so a flipped bit, a torn write or a
// truncation reads back as a CorruptFileError, never as a plausible body.
const fileTrailerLen = 4

// WriteFile replaces path with body and its trailer: both go to path.tmp,
// which is fsynced and renamed over path, and the directory is fsynced. A
// crash leaves the old file or the new one; a leftover path.tmp is never
// read and the next write replaces it.
func WriteFile(path string, body []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: write %s: %w", path, err)
	}
	var trailer [fileTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(body, pageCRCTable))
	// A second write carries the trailer, so the body is not copied.
	if _, err = f.Write(body); err == nil {
		if _, err = f.Write(trailer[:]); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile returns the body of a file written by WriteFile, or a
// *CorruptFileError when the trailer does not match. A missing file
// yields the os error, which os.IsNotExist recognises.
func ReadFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := len(raw) - fileTrailerLen
	if n < 0 || binary.LittleEndian.Uint32(raw[n:]) != crc32.Checksum(raw[:n], pageCRCTable) {
		return nil, &CorruptFileError{Path: path}
	}
	return raw[:n], nil
}

// CorruptFileError reports a file whose checksum trailer did not match
// its body: damaged, truncated, or written before files carried one.
type CorruptFileError struct{ Path string }

func (e *CorruptFileError) Error() string {
	return fmt.Sprintf("storage: %s failed checksum verification", e.Path)
}
