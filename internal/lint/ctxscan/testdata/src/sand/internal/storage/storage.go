// Package storage is a stand-in for the engine's storage layer: its
// import path ends in "internal/storage", so the ctxscan analyzer treats
// these method names as page I/O, and checks the page loops of its
// functions that take a context.
package storage

import "context"

type PageID int64

type RID struct {
	Page PageID
	Slot int
}

type Tuple struct{ Data []byte }

type HeapFile struct{ pages int64 }

func (h *HeapFile) NumPages() int64                    { return h.pages }
func (h *HeapFile) BucketRange(b int) (PageID, PageID) { return 0, 0 }

func (h *HeapFile) ReadPageInto(p PageID, dst []byte) ([]byte, int, error) { return dst, 0, nil }
func (h *HeapFile) Delete(rid RID) (Tuple, error)                          { return Tuple{}, nil }
func (h *HeapFile) Append(t Tuple) (RID, error)                            { return RID{}, nil }
func (h *HeapFile) Scan(visit func(t Tuple, rid RID) error) error          { return nil }

// scanAll takes no context: an offline loop, not the check's business.
func (h *HeapFile) scanAll(dst []byte) ([]byte, error) {
	for p := PageID(0); int64(p) < h.pages; p++ {
		var err error
		if dst, _, err = h.ReadPageInto(p, dst); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

type Frame struct{}

type BufferPool struct{}

func (bp *BufferPool) FetchPage(id PageID) (*Frame, error)     { return &Frame{}, nil }
func (bp *BufferPool) UnpinPage(id PageID) error               { return nil }
func (bp *BufferPool) pinAhead(s *PageStream, limit int) error { return nil }
func (bp *BufferPool) release(s *PageStream)                   {}

// PageStream mirrors the scans' page loop.
type PageStream struct {
	h         *HeapFile
	bp        *BufferPool
	next, end PageID
}

// Release mirrors the stream's release of its pinned batch.
func (s *PageStream) Release() { s.bp.release(s) }

// readPinned pins a batch of pages per pool lock round and checks the
// context it is handed before every page without taking the context's
// mutex: a receive from Done, and Err only for the cause.
func (s *PageStream) readPinned(ctx context.Context) error {
	done := ctx.Done()
	for ; s.next < s.end; s.next++ {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if err := s.bp.pinAhead(s, 8); err != nil {
			return err
		}
	}
	return nil
}

// pinUnchecked is handed the statement's context and pins batch after batch
// regardless.
func (s *PageStream) pinUnchecked(ctx context.Context) error {
	for ; s.next < s.end; s.next++ {
		if err := s.bp.pinAhead(s, 8); err != nil { // want `without a per-iteration context check`
			return err
		}
	}
	return nil
}

// Read checks the context it is handed before every page.
func (s *PageStream) Read(ctx context.Context, dst []byte, room int) ([]byte, int, error) {
	n := 0
	for ; s.next < s.end && n < room; s.next++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return dst, n, err
			}
		}
		var k int
		var err error
		if dst, k, err = s.h.ReadPageInto(s.next, dst); err != nil {
			return dst, n, err
		}
		n += k
	}
	return dst, n, nil
}

// readUnchecked is handed the statement's context and reads on regardless:
// the stream's own per-page check, left out.
func (s *PageStream) readUnchecked(ctx context.Context, dst []byte) ([]byte, error) {
	for ; s.next < s.end; s.next++ {
		var err error
		if dst, _, err = s.h.ReadPageInto(s.next, dst); err != nil { // want `without a per-iteration context check`
			return dst, err
		}
	}
	return dst, nil
}
