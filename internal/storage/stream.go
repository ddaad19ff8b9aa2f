package storage

import "context"

// PageSpan is an inclusive page interval [First, Last]: a run of pages a
// scan reads, so that opening a stream costs O(runs), never O(pages).
type PageSpan struct{ First, Last PageID }

// PageStream is the one loop through which query scans read heap pages. A
// scan opens it over the ascending spans its grades leave — the pages are
// known before the first access — and pulls their live records with Read.
// A scan embeds its stream by value, and Read allocates nothing.
//
// Pages are pinned and released a batch at a time: one pool lock round
// releases the pages the cursor has read and pins the next resident pages
// of the sequence, across span ends, as many as the caller's pin list and
// the room left in its batch hold. The pin list is the caller's memory,
// handed to Open; until Release, the stream may hold pins on pages Read has
// not reached yet. Release drops them all, and a caller that keeps the
// stream open between batches releases before it hands a batch on, so an
// idle cursor holds no page. Close must follow Open; it leaves no pin and
// no reader goroutine behind.
type PageStream struct {
	h     *HeapFile
	spans []PageSpan
	span  int    // the span holding the cursor; len(spans) once drained
	next  PageID // the cursor: the page Read reads next
	pf    *prefetcher
	// pins holds the frames of the current pin batch, in sequence order,
	// from the cursor's page on; pins[:at] are read. fetched is set when the
	// batch is one page the pool's fetch path pinned, and counted already.
	pins    []*Frame
	at      int
	fetched bool
	pages   int // pages read since Open
	hits    int // of those, pages the prefetcher reached first
}

// Open points the stream at the pages of spans, in order, skipping empty
// spans, and reads up to window pages ahead of the cursor when window > 0
// and there is more than one page. pins is the stream's pin list, whose
// capacity bounds how many pages one lock round pins, and so does a quarter
// of the pool, which leaves frames for the misses of other streams. With no
// pin list, or a pool of fewer than four frames, every page is fetched and
// released on its own.
func (s *PageStream) Open(h *HeapFile, spans []PageSpan, window int, pins []*Frame) {
	if pins = pins[:0]; cap(pins) > h.pool.cap/4 {
		pins = pins[: 0 : h.pool.cap/4]
	}
	*s = PageStream{h: h, spans: spans, pins: pins, pf: h.pool.startPrefetch(spans, window)}
	s.span, s.next = s.first(0)
}

// first returns the first non-empty span from span i on and its first page;
// len(spans) when there is none.
func (s *PageStream) first(i int) (int, PageID) {
	for ; i < len(s.spans); i++ {
		if sp := s.spans[i]; sp.First <= sp.Last {
			return i, sp.First
		}
	}
	return i, 0
}

// Next returns the page the next Read starts at; ok is false once every
// page has been read.
func (s *PageStream) Next() (id PageID, ok bool) { return s.next, s.span < len(s.spans) }

// Read appends the live records of the stream's next pages to dst and
// returns the extended slice and the number of records appended; when rids
// is non-nil, each record's position goes to *rids in the same order. It stops
// at the end of the cursor's span, before a page that might not fit in room
// records, and at the first error. Before every page it checks ctx (a nil
// ctx is never cancelled), claims the page from the prefetcher, and counts
// it. When the pages pinned so far are read, it pins the next batch.
func (s *PageStream) Read(ctx context.Context, dst []byte, room int, rids *[]RID) ([]byte, int, error) {
	// Receiving from Done takes no lock, where ctx.Err would take the
	// context's mutex, which the workers of a statement share.
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	per, n := s.h.RecordsPerPage(), 0
	for s.span < len(s.spans) && n+per <= room {
		select {
		case <-done:
			return dst, n, ctx.Err()
		default:
		}
		if s.pf != nil && s.pf.claim() {
			s.hits++
		}
		var k int
		if cap(s.pins) == 0 {
			var err error
			if dst, k, err = s.h.readPage(s.next, dst, rids); err != nil {
				return dst, n, err
			}
		} else {
			if s.at == len(s.pins) {
				if err := s.h.pool.pinAhead(s, min(cap(s.pins), (room-n)/per)); err != nil {
					return dst, n, err
				}
			}
			dst, k = s.h.copyPage(s.pins[s.at], dst, rids)
			s.at++
		}
		n += k
		s.pages++
		if s.next == s.spans[s.span].Last {
			s.span, s.next = s.first(s.span + 1)
			break
		}
		s.next++
	}
	return dst, n, nil
}

// Release drops every pin the stream holds, read or not. Read pins again
// as it goes on.
func (s *PageStream) Release() {
	if len(s.pins) > 0 {
		s.h.pool.release(s)
	}
}

// Counts returns the pages read since Open and how many of them the
// prefetcher had reached before the cursor.
func (s *PageStream) Counts() (pages, hits int) { return s.pages, s.hits }

// Close releases the stream's pins, stops the prefetcher, waits until its
// in-flight reads have landed and released their pins, and returns the
// physical reads it issued. The counts stay until the next Open. Close is
// idempotent.
func (s *PageStream) Close() (prefetched int) {
	s.Release()
	if s.pf != nil {
		s.pf.close()
		prefetched, s.pf = int(s.pf.issued.Load()), nil
	}
	return prefetched
}
