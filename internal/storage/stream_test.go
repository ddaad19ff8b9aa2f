package storage

import (
	"context"
	"testing"

	"sma/internal/tuple"
)

// TestPageStreamReadAllocatesNothing: on a warm pool, reading pages through
// the stream into a batch buffer with room allocates nothing, page after
// page and across a span boundary, and a Read stops at its span's end.
func TestPageStreamReadAllocatesNothing(t *testing.T) {
	const pages = 40
	h := newHeap(t, 1, 64)
	tp := tuple.NewTuple(h.Schema())
	for i := 0; int64(i) < pages*int64(h.RecordsPerPage()); i++ {
		tp.SetInt64(0, int64(i))
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	var s PageStream
	s.Open(h, []PageSpan{{First: 0, Last: 20}, {First: 25, Last: pages - 1}}, 0, make([]*Frame, 0, 2))
	defer s.Close()
	per := h.RecordsPerPage()
	dst := make([]byte, 0, 2*per*h.Schema().RecordSize())
	ctx := context.Background()
	var n int
	read := func() {
		var err error
		if dst, n, err = s.Read(ctx, dst[:0], 2*per, nil); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun reads once more than it counts: eleven reads of two
	// pages but the last, which ends the first span after one.
	if avg := testing.AllocsPerRun(10, read); avg != 0 {
		t.Errorf("a two-page read allocates %.1f times", avg)
	}
	if got, _ := s.Counts(); got != 21 || n != per {
		t.Errorf("%d pages read, the last read %d records; want the 21 of the first span, the last one page of %d", got, n, per)
	}
	if next, ok := s.Next(); !ok || next != 25 {
		t.Errorf("cursor at %d (%v), want the second span's first page", next, ok)
	}
}
