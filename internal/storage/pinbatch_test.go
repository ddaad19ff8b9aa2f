package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// pinHeap returns a heap of pages full pages over a pool of poolPages
// frames, written back to disk and dropped from the pool. Record i holds i
// in its first column.
func pinHeap(t testing.TB, pages, poolPages int) *HeapFile {
	t.Helper()
	h := newHeap(t, 1, poolPages)
	rs, per := h.Schema().RecordSize(), h.RecordsPerPage()
	recs := make([]byte, pages*per*rs)
	for i := 0; i < pages*per; i++ {
		binary.LittleEndian.PutUint64(recs[i*rs:], uint64(i))
	}
	for len(recs) > 0 {
		_, n, err := h.AppendRun(recs)
		if err != nil {
			t.Fatal(err)
		}
		recs = recs[n*rs:]
	}
	if err := h.pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	return h
}

// warmPages fetches and unpins the pages ids, in order.
func warmPages(t testing.TB, bp *BufferPool, ids []PageID) {
	t.Helper()
	for _, id := range ids {
		if _, err := bp.FetchPage(id); err != nil {
			t.Fatal(err)
		}
		if err := bp.UnpinPage(id); err != nil {
			t.Fatal(err)
		}
	}
}

// everyOther returns one-page spans of the even pages below pages:
// scattered ambivalent buckets, each a span of its own.
func everyOther(pages int) []PageSpan {
	var spans []PageSpan
	for p := PageID(0); p < PageID(pages); p += 2 {
		spans = append(spans, PageSpan{First: p, Last: p})
	}
	return spans
}

// TestStreamPinsReleasedOnEveryExit: a stream holds the pins of the pages
// it pinned ahead across Read calls, and whichever way the reading ends —
// a page that fails its checksum, a cancelled context, Close before the
// stream is drained, a panic in the consumer — the deferred Close leaves
// no pin behind: DropAll succeeds, and a quarantined page still answers
// with its typed error. Only the pages read count as pool and prefetch hits.
func TestStreamPinsReleasedOnEveryExit(t *testing.T) {
	const pages, bad = 16, 6
	cases := []struct {
		name string
		// read drives the stream after its first Read; it returns the
		// error the reading ended with.
		read func(s *PageStream, room int) error
		want func(error) bool
	}{
		{"checksum", func(s *PageStream, room int) error {
			for _, ok := s.Next(); ok; _, ok = s.Next() {
				if _, _, err := s.Read(context.Background(), nil, room, nil); err != nil {
					return err
				}
			}
			return nil
		}, IsCorrupt},
		{"cancelled", nil, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"close", func(*PageStream, int) error { return nil }, func(err error) bool { return err == nil }},
		{"panic", func(*PageStream, int) error { panic("consumer") }, func(err error) bool { return err != nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := pinHeap(t, pages, 64)
			if c.name == "checksum" {
				corruptPageByte(t, h.pool.Disk().Path(), bad, 100)
			}
			// A prefetcher loads the pages, so each is a prefetch hit once read.
			warm := []PageSpan{{First: 0, Last: pages - 1}}
			if c.name == "checksum" {
				warm = []PageSpan{{First: 0, Last: bad - 1}, {First: bad + 1, Last: pages - 1}}
			}
			p := h.pool.startPrefetch(warm, pages)
			p.wg.Wait()
			p.close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			room := 8 * h.RecordsPerPage()
			before := h.pool.Stats()
			var s PageStream
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				defer s.Close()
				s.Open(h, everyOther(pages), 0, make([]*Frame, 0, 8))
				if _, _, err := s.Read(ctx, nil, room, nil); err != nil {
					t.Fatal(err)
				}
				if err := h.pool.DropAll(); err == nil {
					t.Fatal("the first Read holds no pin on the pages after its span")
				}
				if c.read == nil { // cancelled under the stream's next Read
					cancel()
					_, _, err := s.Read(ctx, nil, room, nil)
					return err
				}
				return c.read(&s, room)
			}()
			if !c.want(err) {
				t.Fatalf("reading ended with %v", err)
			}
			read, _ := s.Counts()
			if d := deltaOf(before, h.pool.Stats()); d.hits != int64(read) || d.prefetchHits != int64(read) {
				t.Errorf("%d pool hits and %d prefetch hits for %d prefetched pages read", d.hits, d.prefetchHits, read)
			}
			if err := h.pool.DropAll(); err != nil {
				t.Fatalf("a pin outlived the stream: %v", err)
			}
			if c.name == "checksum" {
				if _, err := h.pool.FetchPage(bad); !IsCorrupt(err) {
					t.Fatalf("quarantined page answers %v, want its CorruptPageError", err)
				}
			}
		})
	}
}

// TestStreamSmallPools: streams pinning ahead leave frames for one another.
// Two streams over the same pages of a pool of 1, 2 or 8 frames — taking
// turns on one goroutine, each holding its pins while the other reads, or
// on two goroutines — never find the pool exhausted, and each reads every
// record once. Two goroutines are not run over one frame: a one-frame pool
// has a page for one reader at a time.
func TestStreamSmallPools(t *testing.T) {
	const pages = 24
	spans := []PageSpan{{0, 0}, {2, 5}, {7, 7}, {9, 9}, {11, 16}, {18, 18}, {20, 23}}
	for _, frames := range []int{1, 2, 8} {
		h := pinHeap(t, pages, frames)
		per, rs := h.RecordsPerPage(), h.Schema().RecordSize()
		var want []byte
		for _, sp := range spans {
			for p := sp.First; p <= sp.Last; p++ {
				var err error
				if want, _, err = h.ReadPageInto(p, want); err != nil {
					t.Fatal(err)
				}
			}
		}
		open := func() *PageStream {
			s := new(PageStream)
			s.Open(h, spans, 0, make([]*Frame, 0, 4))
			return s
		}
		// step reads the next Read's worth of a 3-page batch into *got and
		// releases the stream's pins when the batch is full or the stream
		// drained; it reports whether pages remain.
		step := func(s *PageStream, got *[]byte, n *int) (bool, error) {
			var k int
			var err error
			*got, k, err = s.Read(context.Background(), *got, 3*per-*n, nil)
			if *n += k; err != nil {
				return false, err
			}
			_, more := s.Next()
			if !more || *n+per > 3*per {
				s.Release()
				*n = 0
			}
			return more, nil
		}
		check := func(name string, got []byte) {
			t.Helper()
			if !bytes.Equal(got, want) {
				t.Errorf("%d frames, %s: %d records read, want the %d of the spans", frames, name, len(got)/rs, len(want)/rs)
			}
		}
		t.Run(fmt.Sprintf("frames=%d/turns", frames), func(t *testing.T) {
			a, b := open(), open()
			defer a.Close()
			defer b.Close()
			var gotA, gotB []byte
			var nA, nB int
			for moreA, moreB := true, true; moreA || moreB; {
				var err error
				if moreA {
					if moreA, err = step(a, &gotA, &nA); err != nil {
						t.Fatal(err)
					}
				}
				if moreB {
					if moreB, err = step(b, &gotB, &nB); err != nil {
						t.Fatal(err)
					}
				}
			}
			check("stream A", gotA)
			check("stream B", gotB)
		})
		if frames < 2 {
			continue
		}
		t.Run(fmt.Sprintf("frames=%d/goroutines", frames), func(t *testing.T) {
			var wg sync.WaitGroup
			got := make([][]byte, 2)
			errs := make([]error, 2)
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rounds := 0; rounds < 20 && errs[g] == nil; rounds++ {
						s := open()
						got[g] = got[g][:0]
						n := 0
						for more := true; more && errs[g] == nil; more, errs[g] = step(s, &got[g], &n) {
						}
						s.Close()
					}
				}()
			}
			wg.Wait()
			for g := range got {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				check(fmt.Sprintf("goroutine %d", g), got[g])
			}
		})
		if err := h.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// poolDelta is the part of PoolStats a stream's reading moves.
type poolDelta struct{ hits, misses, prefetchHits, evictions int64 }

func deltaOf(a, b PoolStats) poolDelta {
	return poolDelta{b.Hits - a.Hits, b.Misses - a.Misses, b.PrefetchHits - a.PrefetchHits, b.Evictions - a.Evictions}
}

// randomSpans returns ascending, disjoint spans over pages [0, pages),
// some of them empty.
func randomSpans(rng *rand.Rand, pages int) []PageSpan {
	var spans []PageSpan
	for p := rng.Intn(3); p < pages; {
		if rng.Intn(8) == 0 {
			spans = append(spans, PageSpan{First: PageID(p), Last: PageID(p) - 1})
		}
		last := min(pages-1, p+rng.Intn(4))
		if rng.Intn(3) == 0 {
			last = p // a one-page span, as a scattered ambivalent bucket
		}
		spans = append(spans, PageSpan{First: PageID(p), Last: PageID(last)})
		p = last + 1 + rng.Intn(4)
	}
	return spans
}

// TestStreamMatchesOnePageReference: over random span lists, on pools cold,
// partly warm and warm, smaller and larger than the heap, with the pages
// prefetched or not, a stream pinning a batch per lock round reads the
// bytes and positions a loop fetching one page at a time reads, and moves
// the pool's hits, misses, prefetch hits and evictions by the same amounts.
// The stream releases its pins at the end of every batch, as NextBatch
// does.
func TestStreamMatchesOnePageReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for c := 0; c < 400; c++ {
		pages := 4 + rng.Intn(36)
		prefetch := rng.Intn(3) == 0
		poolPages := 4 + rng.Intn(2*pages)
		if prefetch { // room for every page ahead: the readers take the whole sequence before the first Read
			poolPages = 2*pages + rng.Intn(8)
		}
		h := pinHeap(t, pages, poolPages)
		per := h.RecordsPerPage()
		for i := rng.Intn(3 * pages); i > 0; i-- {
			_ = h.Delete(RID{Page: PageID(rng.Intn(pages)), Slot: rng.Intn(per)}) // a repeat fails, harmlessly
		}
		spans := randomSpans(rng, pages)
		perm := rng.Perm(pages)[:rng.Intn(pages+1)]
		warm := make([]PageID, len(perm))
		for i, p := range perm {
			warm[i] = PageID(p)
		}
		room := per * (1 + rng.Intn(6))
		pinCap := 1 + rng.Intn(8)
		withRIDs := rng.Intn(2) == 0
		name := fmt.Sprintf("case %d (%d pages, %d frames, spans %v, warm %v, room %d pages, %d pins, prefetch %v, rids %v)",
			c, pages, poolPages, spans, warm, room/per, pinCap, prefetch, withRIDs)

		// start empties the pool, warms it in order and, with prefetch, lets
		// the readers take every page of the sequence.
		start := func(s *PageStream, pins []*Frame) PoolStats {
			t.Helper()
			if err := h.pool.DropAll(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			warmPages(t, h.pool, warm)
			window := 0
			if prefetch {
				window = pages
			}
			s.Open(h, spans, window, pins)
			if s.pf != nil {
				s.pf.wg.Wait() // the window holds the sequence: the readers take it all, then stop
			}
			return h.pool.Stats()
		}

		// The reference: every page fetched, copied and unpinned on its own.
		var wantRecs []byte
		var wantRIDs []RID
		refRead := func(spans []PageSpan) {
			for _, sp := range spans {
				for p := sp.First; p <= sp.Last; p++ {
					var rids *[]RID
					if withRIDs {
						rids = &wantRIDs
					}
					var err error
					if wantRecs, _, err = h.readPage(p, wantRecs, rids); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
		// The stream, released at the end of every batch.
		var gotRecs []byte
		var gotRIDs []RID
		streamRead := func(s *PageStream) {
			for _, more := s.Next(); more; {
				n := 0
				for ; more && n+per <= room; _, more = s.Next() {
					var rids *[]RID
					if withRIDs {
						rids = &gotRIDs
					}
					var k int
					var err error
					if gotRecs, k, err = s.Read(context.Background(), gotRecs, room-n, rids); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					n += k
				}
				s.Release()
			}
			s.Close()
		}
		// A second pass over other spans reads what the first left resident,
		// so the order in which the first released its pages shows.
		again := spans
		if rng.Intn(2) == 0 {
			again = randomSpans(rng, pages)
		}
		name += fmt.Sprintf(", then spans %v", again)

		var ref PageStream
		before := start(&ref, nil)
		ref.Close() // its readers are done; the loop below claims nothing
		refRead(spans)
		refRead(again)
		wantDelta := deltaOf(before, h.pool.Stats())

		var s PageStream
		pins := make([]*Frame, 0, pinCap)
		before = start(&s, pins)
		streamRead(&s)
		s.Open(h, again, 0, pins)
		streamRead(&s)
		gotDelta := deltaOf(before, h.pool.Stats())

		if !bytes.Equal(gotRecs, wantRecs) || !slices.Equal(gotRIDs, wantRIDs) {
			t.Fatalf("%s: read %d records and %d positions, the reference %d and %d",
				name, len(gotRecs)/h.Schema().RecordSize(), len(gotRIDs), len(wantRecs)/h.Schema().RecordSize(), len(wantRIDs))
		}
		if gotDelta != wantDelta {
			t.Fatalf("%s: pool moved by %+v, the reference by %+v", name, gotDelta, wantDelta)
		}
	}
}

// BenchmarkPageStreamWarm reads scattered one-page spans — every other page
// of a resident heap, as the ambivalent buckets of a selective range are
// scattered — through page streams in batches of 32 pages' records,
// releasing each batch's pins as NextBatch does. With goroutines=2, two
// streams run at once over the same pages, as a statement's two workers do.
// It reports ns/page: wall time per page read, over all goroutines.
func BenchmarkPageStreamWarm(b *testing.B) {
	const pages = 2048
	h := pinHeap(b, pages, pages+16)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = PageID(i)
	}
	warmPages(b, h.pool, ids)
	spans := everyOther(pages)
	per, rs := h.RecordsPerPage(), h.Schema().RecordSize()
	room := 32 * per
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					dst := make([]byte, 0, room*rs)
					pins := make([]*Frame, 0, room/per)
					var s PageStream
					for i := w; i < b.N; i += g {
						s.Open(h, spans, 0, pins)
						for _, more := s.Next(); more; {
							dst, n := dst[:0], 0
							for ; more && n+per <= room; _, more = s.Next() {
								var k int
								var err error
								if dst, k, err = s.Read(ctx, dst, room-n, nil); err != nil {
									panic(err)
								}
								n += k
							}
							s.Release()
						}
						s.Close()
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(spans)), "ns/page")
		})
	}
}
