package storage

import "context"

// PageSpan is an inclusive page interval [First, Last]: a run of pages a
// scan reads, so that opening a stream costs O(runs), never O(pages).
type PageSpan struct{ First, Last PageID }

// PageStream is the one loop through which query scans read heap pages. A
// scan opens it over the ascending spans its grades leave — the pages are
// known before the first access — and pulls their live records with Read.
// A scan embeds its stream by value, and Read allocates nothing. Close must
// follow Open; it leaves no pin and no reader goroutine behind.
type PageStream struct {
	h     *HeapFile
	spans []PageSpan
	span  int    // the span holding the cursor; len(spans) once drained
	next  PageID // the cursor: the page Read reads next
	pf    *prefetcher
	pages int // pages read since Open
	hits  int // of those, pages the prefetcher reached first
}

// Open points the stream at the pages of spans, in order, skipping empty
// spans, and reads up to window pages ahead of the cursor when window > 0
// and there is more than one page.
func (s *PageStream) Open(h *HeapFile, spans []PageSpan, window int) {
	*s = PageStream{h: h, spans: spans, pf: h.pool.startPrefetch(spans, window)}
	s.enter(0)
}

// enter moves the cursor to the first non-empty span from span i on.
func (s *PageStream) enter(i int) {
	for i < len(s.spans) && s.spans[i].Last < s.spans[i].First {
		i++
	}
	if s.span = i; i < len(s.spans) {
		s.next = s.spans[i].First
	}
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
// it.
func (s *PageStream) Read(ctx context.Context, dst []byte, room int, rids *[]RID) ([]byte, int, error) {
	per, n := s.h.RecordsPerPage(), 0
	for s.span < len(s.spans) && n+per <= room {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return dst, n, err
			}
		}
		if s.pf != nil && s.pf.claim() {
			s.hits++
		}
		var k int
		var err error
		if dst, k, err = s.h.readPage(s.next, dst, rids); err != nil {
			return dst, n, err
		}
		n += k
		s.pages++
		if s.next == s.spans[s.span].Last {
			s.enter(s.span + 1)
			break
		}
		s.next++
	}
	return dst, n, nil
}

// Counts returns the pages read since Open and how many of them the
// prefetcher had reached before the cursor.
func (s *PageStream) Counts() (pages, hits int) { return s.pages, s.hits }

// Close stops the prefetcher, waits until its in-flight reads have landed
// and released their pins, and returns the physical reads it issued. The
// counts stay until the next Open. Close is idempotent.
func (s *PageStream) Close() (prefetched int) {
	if s.pf != nil {
		s.pf.close()
		prefetched, s.pf = int(s.pf.issued.Load()), nil
	}
	return prefetched
}
