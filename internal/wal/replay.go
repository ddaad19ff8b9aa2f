package wal

import (
	"encoding/binary"
	"os"
)

// Applier receives the committed content of a log during recovery. All
// callbacks are idempotent targets: ops name exact (page, slot)
// positions and replay may run more than once if recovery itself is
// interrupted.
type Applier interface {
	// ApplyOp applies one logical redo operation. It is called only for
	// operations whose statement committed, in log order.
	ApplyOp(op Op) error
	// ApplyPageImage restores a full page image at its original
	// position, in log order relative to ops.
	ApplyPageImage(table string, page int64, data []byte) error
}

// ReplayStats describes what a replay recovered and what it refused.
type ReplayStats struct {
	// Statements is the number of committed statements applied.
	Statements int64
	// Ops is the number of redo operations applied; an insert run, however
	// many tuples it carries, is one.
	Ops int64
	// PageImages is the number of full-page images restored.
	PageImages int64
	// DiscardedBytes counts log bytes after the last complete committed
	// statement: a torn tail, a corrupt record, or operations whose
	// commit record never made it. They are never applied.
	DiscardedBytes int64
	// Header is the checkpoint base state the log was created over.
	Header []TableState
	// MaxPage maps each table touched by replay to the highest page id
	// written into it. Recovery truncates each table file to
	// max(checkpoint pages, MaxPage+1) to drop pages allocated by
	// uncommitted statements.
	MaxPage map[string]int64
}

// Replay reads the log at path and applies its committed prefix to a.
// A missing, torn, or corrupted tail is not an error — replay stops at
// the last statement boundary and reports the discarded bytes. Only a
// corrupt header (nothing sound to build on) or an applier failure
// aborts with an error.
func Replay(path string, a Applier) (*ReplayStats, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReplayBytes(raw, a)
}

// ReadHeader returns the table states of the checkpoint header of the log
// at path: what a clean Close left, with nothing after it to replay.
func ReadHeader(path string) ([]TableState, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	states, _, err := decodeHeader(raw)
	return states, err
}

// ReplayBytes is Replay over an in-memory log image; the fuzz harness
// drives it directly.
func ReplayBytes(raw []byte, a Applier) (*ReplayStats, error) {
	states, off, err := decodeHeader(raw)
	if err != nil {
		return nil, err
	}
	st := &ReplayStats{Header: states, MaxPage: make(map[string]int64)}
	touch := func(table string, page int64) {
		if cur, ok := st.MaxPage[table]; !ok || page > cur {
			st.MaxPage[table] = page
		}
	}

	var pending []Op // current statement's ops, held until its commit
	pos := off       // read cursor
	boundary := off  // position just after the last complete statement
scan:
	for {
		body, size, ok := nextRecord(raw[pos:])
		if !ok {
			break // torn or corrupt tail: fail closed
		}
		switch body[0] {
		case recInsert, recInsertRun, recUpdate, recDelete:
			op, err := decodeOp(body)
			if err != nil {
				break scan
			}
			pending = append(pending, op)
		case recCommit:
			if len(body) != 13 {
				break scan
			}
			nOps := int(binary.LittleEndian.Uint32(body[9:]))
			if nOps != len(pending) || nOps == 0 {
				// A commit that does not account for exactly the ops
				// queued since the last boundary means lost or foreign
				// records; applying any of them could half-apply a
				// statement. Stop here.
				break scan
			}
			for _, op := range pending {
				if err := a.ApplyOp(op); err != nil {
					return st, err
				}
				touch(op.Table, op.Page)
			}
			st.Statements++
			st.Ops += int64(len(pending))
			pending = pending[:0]
			boundary = pos + size
		case recPageImage:
			if len(pending) != 0 {
				// The writer only logs page images between statements
				// (the buffer pool never writes back statement-dirty
				// pages); one inside a statement is corruption.
				break scan
			}
			if len(body) < 2 {
				break scan
			}
			nameLen := int(body[1])
			if len(body) < 2+nameLen+8 {
				break scan
			}
			table := string(body[2 : 2+nameLen])
			page := int64(binary.LittleEndian.Uint64(body[2+nameLen:]))
			data := body[2+nameLen+8:]
			if err := a.ApplyPageImage(table, page, data); err != nil {
				return st, err
			}
			st.PageImages++
			touch(table, page)
			boundary = pos + size
		default:
			break scan
		}
		pos += size
	}
	st.DiscardedBytes = int64(len(raw)) - boundary
	return st, nil
}

// nextRecord parses one framed record from the front of raw. ok is
// false at EOF and at any framing or checksum violation; the caller
// treats both as the end of the trustworthy prefix.
func nextRecord(raw []byte) (body []byte, size int64, ok bool) {
	if len(raw) < 8 {
		return nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(raw)
	blen := int(binary.LittleEndian.Uint32(raw[4:]))
	if blen == 0 || blen > maxBody || len(raw) < 8+blen {
		return nil, 0, false
	}
	body = raw[8 : 8+blen]
	if crcChecksum(body) != crc {
		return nil, 0, false
	}
	return body, int64(8 + blen), true
}
