// Package wal implements the engine's write-ahead redo log: an
// append-only file of CRC-guarded records that makes DML statements
// atomic and the heap/SMA pair crash-recoverable.
//
// The log holds three kinds of information:
//
//   - logical redo records (insert, insert run, update, delete),
//     slot-precise and idempotent, grouped into statements that end with a
//     commit record carrying the statement's record count — an insert run
//     is the records one statement placed on one page, a single record
//     however many rows it carries;
//   - full-page images, appended before a dirty heap page is written
//     back in place, so a torn page write can always be repaired from
//     the log (the buffer pool never writes back pages dirtied by an
//     uncommitted statement, so page images only ever contain committed
//     data);
//   - a checkpoint header recording each table's page count at the
//     moment the log was last truncated, which recovery uses as the
//     committed base state.
//
// Replay applies the longest well-formed prefix of complete, committed
// statements and stops — never errors — at the first torn or corrupt
// record, so a crash mid-append (or a bit flip in the tail) costs at
// most the statements that had not finished committing. See Scanner for
// the exact fail-closed rules.
//
// Durability has one mode. Commit hands a statement's frame to the OS;
// Await returns once an fsync covers it, and statements that commit
// concurrently share that fsync (leader/follower group commit). Sync is
// the same barrier for a caller that commits without awaiting, as the
// engine's one-row Table.Append does.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record types. The zero value is deliberately invalid so a zeroed
// (preallocated-but-unwritten) tail region never parses as a record.
const (
	recInsert    = byte(1) // table, rid, tuple image
	recUpdate    = byte(2) // table, rid, new tuple image
	recDelete    = byte(3) // table, rid
	recCommit    = byte(4) // statement boundary: seq + op count
	recPageImage = byte(5) // table, page id, full 4 KB page image
	recInsertRun = byte(6) // table, rid of the first, count, the tuple images back to back
)

// maxBody bounds a record body: a full page image plus its framing. A
// length field above this is treated as corruption, not an allocation
// request — a flipped bit in the length must not make the scanner try
// to read gigabytes.
const maxBody = 8 << 10

// headerMagic identifies a log file and its format version. Version 2
// carries each table's deleted-record count, and came with the heap pages
// that hold their own delete marks.
var headerMagic = [6]byte{'S', 'W', 'A', 'L', '2', '\n'}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this engine targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcChecksum is the record checksum: CRC-32C over the body.
func crcChecksum(body []byte) uint32 { return crc32.Checksum(body, crcTable) }

// TableState is one table's committed extent at checkpoint time: its
// page count after every dirty page was flushed and fsynced, and the
// number of its records marked deleted. Recovery truncates each table
// back to max(checkpoint pages, highest replayed page + 1), discarding
// pages allocated by statements that never committed, and counts its
// deleted records from Deleted plus the delete records it replays.
type TableState struct {
	Name    string
	Pages   int64
	Deleted int64
}

// Op is one logical redo operation delivered to an Applier.
type Op struct {
	Type  byte // recInsert, recInsertRun, recUpdate, or recDelete
	Table string
	Page  int64
	Slot  int // the first slot of an insert run
	// Count is the number of tuples: 1, or an insert run's length — its
	// images go into slots [Slot, Slot+Count).
	Count int
	Data  []byte // Count tuple images for insert/update; nil for delete
}

// IsInsert, IsUpdate, IsDelete name the op kind without exporting the
// record-type bytes. An insert run is an insert of Count tuples.
func (o Op) IsInsert() bool { return o.Type == recInsert || o.Type == recInsertRun }
func (o Op) IsUpdate() bool { return o.Type == recUpdate }
func (o Op) IsDelete() bool { return o.Type == recDelete }

// beginRecord reserves a record's frame in dst; the caller appends the body
// and calls endRecord with the returned offset. Records are encoded in
// place, straight into the statement's batch buffer.
func beginRecord(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), len(dst)
}

// endRecord fills in the frame of the record begun at off: crc32c(body),
// length, body.
func endRecord(dst []byte, off int) []byte {
	body := dst[off+8:]
	binary.LittleEndian.PutUint32(dst[off:], crc32.Checksum(body, crcTable))
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(len(body)))
	return dst
}

// appendOp encodes and frames a logical redo record. Only an insert run
// carries the count field; the other records are one tuple each.
func appendOp(dst []byte, typ byte, table string, page int64, slot, count int, data []byte) []byte {
	dst, off := beginRecord(dst)
	dst = append(dst, typ, byte(len(table)))
	dst = append(dst, table...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(page))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(slot))
	if typ == recInsertRun {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(count))
	}
	dst = append(dst, data...)
	return endRecord(dst, off)
}

// appendCommit encodes a statement-boundary record.
func appendCommit(dst []byte, seq uint64, nOps int) []byte {
	dst, off := beginRecord(dst)
	dst = append(dst, recCommit)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nOps))
	return endRecord(dst, off)
}

// appendPageImage encodes a full-page image record.
func appendPageImage(dst []byte, table string, page int64, data []byte) []byte {
	dst, off := beginRecord(dst)
	dst = append(dst, recPageImage, byte(len(table)))
	dst = append(dst, table...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(page))
	dst = append(dst, data...)
	return endRecord(dst, off)
}

// encodeHeader renders the checkpoint header: magic, crc, length, then
// the table states. The crc covers the state payload so a half-written
// header (crash between truncate and write) reads as corrupt, not as an
// empty checkpoint over the wrong base.
func encodeHeader(states []TableState) []byte {
	var payload []byte
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(states)))
	for _, st := range states {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(st.Name)))
		payload = append(payload, st.Name...)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(st.Pages))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(st.Deleted))
	}
	out := make([]byte, 0, len(headerMagic)+8+len(payload))
	out = append(out, headerMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// decodeHeader parses the checkpoint header, returning the table states
// and the offset of the first record. A corrupt header is a hard error:
// without the checkpoint base, replay has nothing sound to build on.
func decodeHeader(raw []byte) (states []TableState, off int64, err error) {
	if len(raw) < len(headerMagic)+8 {
		return nil, 0, fmt.Errorf("wal: short header (%d bytes)", len(raw))
	}
	if [6]byte(raw[:6]) != headerMagic {
		if [4]byte(raw[:4]) == [4]byte(headerMagic[:4]) {
			return nil, 0, fmt.Errorf("wal: log format %q, want %q: the directory was written by an older version of this engine; regenerate it", raw[:5], headerMagic[:5])
		}
		return nil, 0, fmt.Errorf("wal: bad magic %q", raw[:6])
	}
	crc := binary.LittleEndian.Uint32(raw[6:])
	plen := int(binary.LittleEndian.Uint32(raw[10:]))
	if plen > maxBody || len(raw) < 14+plen {
		return nil, 0, fmt.Errorf("wal: truncated header payload (%d bytes)", plen)
	}
	payload := raw[14 : 14+plen]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, fmt.Errorf("wal: header checksum mismatch")
	}
	if len(payload) < 4 {
		return nil, 0, fmt.Errorf("wal: header payload too short for state count")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	for i := 0; i < n; i++ {
		if len(payload) < 2 {
			return nil, 0, fmt.Errorf("wal: truncated header state")
		}
		nameLen := int(binary.LittleEndian.Uint16(payload))
		if len(payload) < 2+nameLen+16 {
			return nil, 0, fmt.Errorf("wal: truncated header state")
		}
		states = append(states, TableState{
			Name:    string(payload[2 : 2+nameLen]),
			Pages:   int64(binary.LittleEndian.Uint64(payload[2+nameLen:])),
			Deleted: int64(binary.LittleEndian.Uint64(payload[2+nameLen+8:])),
		})
		payload = payload[2+nameLen+16:]
	}
	return states, int64(14 + plen), nil
}

// decodeOp parses an op record body (type already verified).
func decodeOp(body []byte) (Op, error) {
	if len(body) < 2 {
		return Op{}, fmt.Errorf("wal: short op record")
	}
	nameLen := int(body[1])
	if len(body) < 2+nameLen+10 {
		return Op{}, fmt.Errorf("wal: short op record")
	}
	op := Op{
		Type:  body[0],
		Table: string(body[2 : 2+nameLen]),
		Page:  int64(binary.LittleEndian.Uint64(body[2+nameLen:])),
		Slot:  int(binary.LittleEndian.Uint16(body[2+nameLen+8:])),
		Count: 1,
	}
	data := body[2+nameLen+10:]
	if op.Type == recInsertRun {
		if len(data) < 2 {
			return Op{}, fmt.Errorf("wal: short insert-run record")
		}
		op.Count = int(binary.LittleEndian.Uint16(data))
		if data = data[2:]; op.Count == 0 || len(data) == 0 || len(data)%op.Count != 0 {
			return Op{}, fmt.Errorf("wal: insert run of %d tuples carries %d image bytes", op.Count, len(data))
		}
	}
	if len(data) > 0 {
		op.Data = data
	}
	if op.Type == recDelete && op.Data != nil {
		return Op{}, fmt.Errorf("wal: delete record carries %d data bytes", len(op.Data))
	}
	if op.Type != recDelete && op.Data == nil {
		return Op{}, fmt.Errorf("wal: %s record without tuple image", opName(op.Type))
	}
	return op, nil
}

// opName renders a record type for diagnostics.
func opName(t byte) string {
	switch t {
	case recInsert:
		return "insert"
	case recInsertRun:
		return "insert-run"
	case recUpdate:
		return "update"
	case recDelete:
		return "delete"
	case recCommit:
		return "commit"
	case recPageImage:
		return "page-image"
	}
	return fmt.Sprintf("type-%d", t)
}
