// Package exec seeds ctxscan violations: its import path ends in
// "internal/exec", so every page-I/O loop here must observe the context.
package exec

import (
	"context"

	"sand/internal/storage"
)

// ctxErr mirrors the engine's per-page check helper.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// badPageLoop reads every page with no cancellation check — the bug shape
// ctxscan exists for.
func badPageLoop(h *storage.HeapFile) error {
	var buf []byte
	for p := storage.PageID(0); int64(p) < h.NumPages(); p++ {
		_, _, err := h.ReadPageInto(p, buf) // want `without a per-iteration context check`
		if err != nil {
			return err
		}
	}
	return nil
}

// badRangeDelete deletes a collected RID set without checking the context
// per iteration (the deleteWhere bug).
func badRangeDelete(h *storage.HeapFile, rids []storage.RID) error {
	for _, rid := range rids {
		if _, err := h.Delete(rid); err != nil { // want `without a per-iteration context check`
			return err
		}
	}
	return nil
}

// badNestedLoop has the check only in the outer loop; the inner page loop
// can still run a whole bucket un-cancellable.
func badNestedLoop(ctx context.Context, h *storage.HeapFile, buckets []int) error {
	var buf []byte
	for _, b := range buckets {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		first, last := h.BucketRange(b)
		for p := first; p <= last; p++ {
			_, _, err := h.ReadPageInto(p, buf) // want `without a per-iteration context check`
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// goodDirectErr checks ctx.Err() every page.
func goodDirectErr(ctx context.Context, h *storage.HeapFile) error {
	var buf []byte
	for p := storage.PageID(0); int64(p) < h.NumPages(); p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, _, err := h.ReadPageInto(p, buf); err != nil {
			return err
		}
	}
	return nil
}

// goodHelper delegates the check to the ctxErr helper.
func goodHelper(ctx context.Context, h *storage.HeapFile) error {
	var buf []byte
	for p := storage.PageID(0); int64(p) < h.NumPages(); p++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if _, _, err := h.ReadPageInto(p, buf); err != nil {
			return err
		}
	}
	return nil
}

// goodDone selects on ctx.Done each iteration.
func goodDone(ctx context.Context, h *storage.HeapFile, pages []storage.PageID) error {
	for _, p := range pages {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if _, _, err := h.ReadPageInto(p, nil); err != nil {
			return err
		}
	}
	return nil
}

// badStreamLoop pulls pages through the stream with no context in reach:
// neither nil nor a fresh Background can ever be cancelled.
func badStreamLoop(st *storage.PageStream) error {
	var buf []byte
	for {
		var n int
		var err error
		if buf, n, err = st.Read(nil, buf[:0], 64); err != nil || n == 0 { // want `without a per-iteration context check`
			return err
		}
		if _, _, err = st.Read(context.Background(), buf[:0], 64); err != nil {
			return err
		}
	}
}

// goodStreamLoop hands the stream the statement's context, which it checks
// before every page.
func goodStreamLoop(ctx context.Context, st *storage.PageStream) error {
	var buf []byte
	for {
		var n int
		var err error
		if buf, n, err = st.Read(ctx, buf[:0], 64); err != nil || n == 0 {
			return err
		}
	}
}

// badReleaseLoop hands the pool back a stream's pinned batch, batch after
// batch, with no context in reach.
func badReleaseLoop(st *storage.PageStream, batches int) {
	for i := 0; i < batches; i++ {
		st.Release() // want `without a per-iteration context check`
	}
}

// goodReleaseLoop checks the statement's context before each release.
func goodReleaseLoop(ctx context.Context, st *storage.PageStream) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.Release()
	}
}

// goodMetadataLoop touches only cheap accessors; no check required.
func goodMetadataLoop(h *storage.HeapFile, buckets []int) int64 {
	var total int64
	for _, b := range buckets {
		first, last := h.BucketRange(b)
		total += int64(last - first)
	}
	return total
}
