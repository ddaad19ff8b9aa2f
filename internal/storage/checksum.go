package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Page checksums. Bytes 4-7 of the reserved page header hold a CRC-32C
// (Castagnoli, the same codec the WAL frames records with) over the rest
// of the page. The disk manager stamps it on every write-back and the
// buffer pool verifies it on every physical read, so a bit flip or torn
// write surfaces as a typed error at the page that suffered it instead
// of as silently wrong query results.
//
// A stored checksum of zero verifies only an all-zero page: one that was
// allocated and never written back reads as zeros, past the end of the
// file or in a hole. pageCRC never returns zero (it maps 0 to 1), so every
// page that reached the disk carries a non-zero checksum, and a zeroed
// checksum over non-zero bytes is damage like any other mismatch.
const pageCRCOffset = 4

var pageCRCTable = crc32.MakeTable(crc32.Castagnoli)

// zeroPage is the image of a page that was never written.
var zeroPage [PageSize]byte

// pageCRC computes the checksum of a page image, skipping the four bytes
// that store the checksum itself.
func pageCRC(data []byte) uint32 {
	crc := crc32.Update(0, pageCRCTable, data[:pageCRCOffset])
	crc = crc32.Update(crc, pageCRCTable, data[pageCRCOffset+4:])
	if crc == 0 {
		crc = 1
	}
	return crc
}

// StampPage writes the page checksum into the header of data, which must
// be a full page image.
func StampPage(data []byte) {
	binary.LittleEndian.PutUint32(data[pageCRCOffset:pageCRCOffset+4], pageCRC(data))
}

// VerifyPage reports whether the page image's stored checksum matches its
// content. A stored zero matches only a page that is all zero.
func VerifyPage(data []byte) bool {
	stored := binary.LittleEndian.Uint32(data[pageCRCOffset : pageCRCOffset+4])
	if stored == 0 {
		return bytes.Equal(data, zeroPage[:])
	}
	return stored == pageCRC(data)
}

// CorruptPageError reports a page whose checksum did not match its
// content. The page is quarantined: later fetches fail fast with the
// same error without re-reading the disk.
type CorruptPageError struct {
	Path string
	Page PageID
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("storage: page %d of %s failed checksum verification", e.Page, e.Path)
}

// IsCorrupt reports whether err is (or wraps) a CorruptPageError or a
// CorruptFileError.
func IsCorrupt(err error) bool {
	var pe *CorruptPageError
	var fe *CorruptFileError
	return errors.As(err, &pe) || errors.As(err, &fe)
}
