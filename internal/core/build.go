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
// scan across all definitions. Every page's live records are one bucket
// run through each SMA's run kernel (foldRun), the path appends take.
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
		for _, s := range smas {
			s.openBucket()
		}
		first, last := h.BucketRange(b)
		for p := first; p <= last; p++ {
			var err error
			if recs, _, err = h.ReadPageInto(p, recs[:0]); err != nil {
				return nil, err
			}
			for _, s := range smas {
				s.foldRun(b, recs)
			}
		}
	}
	return smas, nil
}

// RecomputeBucket rebuilds bucket b's entry in every group file by
// rescanning the bucket. It is the fallback maintenance path for updates
// that shrink a min/max or move a tuple between groups; its cost is one
// bucket scan, in line with the paper's "at most one additional page access
// is needed for an updated tuple" for page-sized buckets. The bucket is read
// before any entry changes, so a failed read leaves the SMA as it was.
func (s *SMA) RecomputeBucket(h *storage.HeapFile, b int) error {
	if err := s.checkBucket(b); err != nil {
		return err
	}
	recs := s.recs[:0]
	first, last := h.BucketRange(b)
	for p := first; p <= last; p++ {
		var err error
		if recs, _, err = h.ReadPageInto(p, recs); err != nil {
			return err
		}
	}
	s.recs = recs
	for _, g := range s.files {
		g.Vec.Set(b, 0)
		g.Present.Set(b, false)
	}
	s.foldRun(b, recs)
	return nil
}

// OnAppend maintains the SMA after t was appended at rid: the one-row case
// of AppendRun.
func (s *SMA) OnAppend(h *storage.HeapFile, t tuple.Tuple, rid storage.RID) error {
	return s.AppendRun(h.BucketOf(rid.Page), t.Data)
}

// OnUpdate maintains the SMA after the record at rid changed from old to
// new. Sum and count (same group) are adjusted in O(1); min/max fall back
// to RecomputeBucket only when the old value sat on the bucket boundary, and
// group migration always recomputes the bucket.
func (s *SMA) OnUpdate(h *storage.HeapFile, oldT, newT tuple.Tuple, rid storage.RID) error {
	b := h.BucketOf(rid.Page)
	if err := s.checkBucket(b); err != nil {
		return err
	}
	var oldKey, newKey GroupKey
	if s.gx != nil {
		oldKey = s.gx.Key(oldT)
		newKey = s.gx.Key(newT)
	}
	if oldKey != newKey {
		return s.RecomputeBucket(h, b)
	}
	g := s.groups[oldKey]
	if g == nil || !g.Present.Get(b) {
		// The SMA is out of sync with the heap; rebuild the bucket.
		return s.RecomputeBucket(h, b)
	}
	var oldV, newV float64
	if s.Def.Expr != nil {
		oldV = s.Def.Expr.Eval(oldT)
		newV = s.Def.Expr.Eval(newT)
	}
	cur := g.Vec.Get(b)
	switch s.Def.Agg {
	case Count:
		return nil // cardinality unchanged
	case Sum:
		g.Vec.Set(b, cur+newV-oldV)
		return nil
	case Min:
		if newV <= cur {
			g.Vec.Set(b, newV)
			return nil
		}
		if oldV > cur {
			return nil // old value was interior; min unaffected
		}
		return s.RecomputeBucket(h, b)
	case Max:
		if newV >= cur {
			g.Vec.Set(b, newV)
			return nil
		}
		if oldV < cur {
			return nil
		}
		return s.RecomputeBucket(h, b)
	}
	return nil
}

// OnDelete maintains the SMA after the record old (at rid) was deleted
// from the heap. Count and sum adjust in O(1); min/max recompute the bucket
// only when the deleted value sat on the boundary.
func (s *SMA) OnDelete(h *storage.HeapFile, old tuple.Tuple, rid storage.RID) error {
	b := h.BucketOf(rid.Page)
	if err := s.checkBucket(b); err != nil {
		return err
	}
	var key GroupKey
	if s.gx != nil {
		key = s.gx.Key(old)
	}
	g := s.groups[key]
	if g == nil || !g.Present.Get(b) {
		return s.RecomputeBucket(h, b)
	}
	var v float64
	if s.Def.Expr != nil {
		v = s.Def.Expr.Eval(old)
	}
	cur := g.Vec.Get(b)
	switch s.Def.Agg {
	case Count:
		if cur <= 1 {
			return s.RecomputeBucket(h, b) // group may be empty now
		}
		g.Vec.Set(b, cur-1)
		return nil
	case Sum:
		// A sum SMA alone cannot tell whether the group just became empty
		// in this bucket (its presence bit would have to flip), so deletes
		// rebuild the bucket — still only one bucket scan, the same bound
		// the paper gives for updates.
		return s.RecomputeBucket(h, b)
	case Min:
		if v > cur {
			return nil // interior value; min unaffected
		}
		return s.RecomputeBucket(h, b)
	case Max:
		if v < cur {
			return nil
		}
		return s.RecomputeBucket(h, b)
	}
	return nil
}

// Verify checks the SMA against the heap file, returning the first
// discrepancy found. It is used by tests and by `smactl verify`.
func (s *SMA) Verify(h *storage.HeapFile) error {
	if err := s.checkFiles(); err != nil {
		return err
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
			if fp && !almostEqual(fv, v) {
				return errf("sma %s group %q bucket %d: value %g, want %g", s.Def.Name, string(key), b, v, fv)
			}
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("core: "+format, args...)
}

// almostEqual compares with a relative tolerance; sums of floats accumulate
// rounding differences between incremental and batch computation.
func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}
