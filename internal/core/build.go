package core

import (
	"fmt"
	"math"

	"sma/internal/storage"
	"sma/internal/tuple"
)

// Build bulkloads an SMA over the heap file in a single sequential pass, the
// operation the paper highlights as trivially cheap ("for every bucket the
// aggregate can easily be computed and storing this aggregate is cheap").
// The heap file's BucketPages determines the bucket granularity.
func Build(h *storage.HeapFile, def Def) (*SMA, error) {
	smas, err := BuildMany(h, []Def{def})
	if err != nil {
		return nil, err
	}
	return smas[0], nil
}

// BuildMany bulkloads several SMAs over the same relation in a single
// sequential pass — the paper's creation table builds its eight SMAs one
// scan each, but notes that SMA processing scans "all the SMAs ... at the
// same time"; symmetrically, building them together amortizes the relation
// scan across all definitions. It is the bucket refold over every bucket
// of freshly opened SMAs, so a build and the maintenance of UPDATE and
// DELETE read and fold a bucket the same way.
//
// The result slice is positionally aligned with defs.
func BuildMany(h *storage.HeapFile, defs []Def) ([]*SMA, error) {
	smas := make([]*SMA, len(defs))
	for i, def := range defs {
		s, err := newSMA(def, h.Schema(), h.BucketPages)
		if err != nil {
			return nil, err
		}
		smas[i] = s
	}
	var recs []byte
	for b, nb := 0, h.NumBuckets(); b < nb; b++ {
		var err error
		if recs, err = refold(h, smas, b, recs); err != nil {
			return nil, err
		}
	}
	return smas, nil
}

// Refold recomputes the given buckets of every SMA in smas from the heap,
// each bucket's pages read once for all of them. It is the maintenance of
// UPDATE and DELETE: the statement changes the heap, then refolds each
// bucket it touched once, so the vectors stay bit-identical to a fresh
// build — the paper's "at most one additional page access" per updated
// tuple, paid per touched bucket and statement rather than per row.
func Refold(h *storage.HeapFile, smas []*SMA, buckets []int) error {
	var recs []byte
	for _, b := range buckets {
		if nb := h.NumBuckets(); b < 0 || b >= nb {
			return errf("refold of bucket %d, heap has [0,%d)", b, nb)
		}
		var err error
		if recs, err = refold(h, smas, b, recs); err != nil {
			return err
		}
	}
	return nil
}

// refold reads bucket b's live records into recs and folds them into every
// SMA as the whole of bucket b — the one place a bucket is read for
// folding. An SMA that does not reach b yet opens buckets up to it; one
// that does has b's entries cleared first. The bucket is read before any
// entry changes, so a failed read leaves every SMA as it was.
func refold(h *storage.HeapFile, smas []*SMA, b int, recs []byte) ([]byte, error) {
	recs = recs[:0]
	first, last := h.BucketRange(b)
	for p := first; p <= last; p++ {
		var err error
		if recs, _, err = h.ReadPageInto(p, recs); err != nil {
			return recs, err
		}
	}
	for _, s := range smas {
		if b < s.NumBuckets {
			for _, g := range s.files {
				g.clear(b)
			}
		}
		for b >= s.NumBuckets {
			s.openBucket()
		}
		s.foldRun(b, recs)
	}
	return recs, nil
}

// OnAppend maintains the SMA after t was appended at rid: the one-row case
// of AppendRun.
func (s *SMA) OnAppend(h *storage.HeapFile, t tuple.Tuple, rid storage.RID) error {
	return s.AppendRun(h.BucketOf(rid.Page), t.Data)
}

// Verify checks the SMA against a fresh build over the heap file, bit for
// bit, returning the first discrepancy found. Appends and refolds fold
// every entry exactly as a build does, so there is no tolerance. Every
// settled level-2 block must equal a fresh derivation from level 1 too. It
// is used by tests and by `smactl verify`.
func (s *SMA) Verify(h *storage.HeapFile) error {
	if err := s.checkFiles(); err != nil {
		return err
	}
	for _, g := range s.files {
		if err := g.checkSummary(); err != nil {
			return errf("sma %s: %w", s.Def.Name, err)
		}
	}
	fresh, err := Build(h, s.Def)
	if err != nil {
		return err
	}
	if fresh.NumBuckets != s.NumBuckets {
		return errf("sma %s: bucket count %d, heap has %d", s.Def.Name, s.NumBuckets, fresh.NumBuckets)
	}
	// Groups present in the SMA but absent from a fresh build are fine as
	// long as every bucket is marked absent (a group can die out through
	// deletes; its SMA-file legitimately lingers).
	for key, g := range s.groups {
		if fresh.groups[key] != nil {
			continue
		}
		for b := 0; b < s.NumBuckets; b++ {
			if g.Present.Get(b) {
				return errf("sma %s: group %q present in bucket %d but absent from the heap",
					s.Def.Name, string(key), b)
			}
		}
	}
	for key, fg := range fresh.groups {
		g := s.groups[key]
		if g == nil {
			return errf("sma %s: missing group %q", s.Def.Name, string(key))
		}
		for b := 0; b < fresh.NumBuckets; b++ {
			fv, fp := fg.ValueAt(b)
			v, p := g.ValueAt(b)
			if fp != p {
				return errf("sma %s group %q bucket %d: presence %v, want %v", s.Def.Name, string(key), b, p, fp)
			}
			if math.Float64bits(fv) != math.Float64bits(v) {
				return errf("sma %s group %q bucket %d: value %v, want %v", s.Def.Name, string(key), b, v, fv)
			}
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("core: "+format, args...)
}
