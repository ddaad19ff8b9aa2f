package core

import (
	"fmt"
	"math"

	"sma/internal/storage"
	"sma/internal/tuple"
)

// acc accumulates one bucket's aggregate for one group.
type acc struct {
	vals []GroupVal
	cnt  int64
	sum  float64
	min  float64
	max  float64
	seen bool
}

func (a *acc) add(v float64) {
	a.cnt++
	a.sum += v
	if !a.seen || v < a.min {
		a.min = v
	}
	if !a.seen || v > a.max {
		a.max = v
	}
	a.seen = true
}

func (a *acc) value(k AggKind) float64 {
	switch k {
	case Min:
		return a.min
	case Max:
		return a.max
	case Sum:
		return a.sum
	default:
		return float64(a.cnt)
	}
}

// Build bulkloads an SMA over the heap file in a single sequential pass, the
// operation the paper highlights as trivially cheap ("for every bucket the
// aggregate can easily be computed and storing this aggregate is cheap").
// The heap file's BucketPages determines the bucket granularity.
func Build(h *storage.HeapFile, def Def) (*SMA, error) {
	s, err := newSMA(def, h.Schema(), h.BucketPages)
	if err != nil {
		return nil, err
	}
	nb := h.NumBuckets()
	accs := make(map[GroupKey]*acc)
	for b := 0; b < nb; b++ {
		if err := h.ScanBucket(b, func(t tuple.Tuple, _ storage.RID) error {
			s.accumulate(accs, t)
			return nil
		}); err != nil {
			return nil, err
		}
		s.flushBucket(accs, b)
	}
	s.NumBuckets = nb
	return s, nil
}

// accumulate folds tuple t into the per-group accumulators.
func (s *SMA) accumulate(accs map[GroupKey]*acc, t tuple.Tuple) {
	var key GroupKey
	var vals []GroupVal
	if s.gx != nil {
		vals = s.gx.Vals(t)
		key = MakeGroupKey(vals)
	}
	a := accs[key]
	if a == nil {
		a = &acc{vals: vals}
		accs[key] = a
	}
	v := 0.0
	if s.Def.Expr != nil {
		v = s.Def.Expr.Eval(t)
	}
	a.add(v)
}

// flushBucket appends bucket b's entries to every group file (absent for
// groups with no tuples in the bucket) and resets the accumulators.
func (s *SMA) flushBucket(accs map[GroupKey]*acc, b int) {
	// Register groups first seen in this bucket, backfilled with absent
	// entries for buckets [0, b).
	for key, a := range accs {
		if _, ok := s.groups[key]; !ok {
			s.addGroup(key, a.vals, b)
		}
	}
	for key, g := range s.groups {
		if a, ok := accs[key]; ok {
			g.Vec.Append(a.value(s.Def.Agg))
			g.Present.Append(true)
			delete(accs, key)
		} else {
			g.Vec.Append(0)
			g.Present.Append(false)
		}
	}
}

// RecomputeBucket rebuilds bucket b's entry in every group file by
// rescanning the bucket. It is the fallback maintenance path for updates
// that shrink a min/max or move a tuple between groups; its cost is one
// bucket scan, in line with the paper's "at most one additional page access
// is needed for an updated tuple" for page-sized buckets.
func (s *SMA) RecomputeBucket(h *storage.HeapFile, b int) error {
	if err := s.checkBucket(b); err != nil {
		return err
	}
	accs := make(map[GroupKey]*acc)
	if err := h.ScanBucket(b, func(t tuple.Tuple, _ storage.RID) error {
		s.accumulate(accs, t)
		return nil
	}); err != nil {
		return err
	}
	for key, a := range accs {
		if _, ok := s.groups[key]; !ok {
			s.addGroup(key, a.vals, s.NumBuckets)
		}
	}
	for key, g := range s.groups {
		if a, ok := accs[key]; ok {
			g.Vec.Set(b, a.value(s.Def.Agg))
			g.Present.Set(b, true)
		} else {
			g.Vec.Set(b, 0)
			g.Present.Set(b, false)
		}
	}
	return nil
}

// OnAppend maintains the SMA after t was appended at rid. Appends extend
// the last bucket (or open a new one); the update is O(1) per SMA-file.
func (s *SMA) OnAppend(h *storage.HeapFile, t tuple.Tuple, rid storage.RID) error {
	b := h.BucketOf(rid.Page)
	for b >= s.NumBuckets {
		// Open a new bucket: one absent entry in every group file.
		for _, g := range s.files {
			g.Vec.Append(0)
			g.Present.Append(false)
		}
		s.NumBuckets++
	}
	var key GroupKey
	var vals []GroupVal
	if s.gx != nil {
		vals = s.gx.Vals(t)
		key = MakeGroupKey(vals)
	}
	g, ok := s.groups[key]
	if !ok {
		g = s.addGroup(key, vals, s.NumBuckets)
		// addGroup backfilled all buckets including b as absent.
	}
	v := 0.0
	if s.Def.Expr != nil {
		v = s.Def.Expr.Eval(t)
	}
	if !g.Present.Get(b) {
		switch s.Def.Agg {
		case Count:
			g.Vec.Set(b, 1)
		default:
			g.Vec.Set(b, v)
		}
		g.Present.Set(b, true)
		return nil
	}
	cur := g.Vec.Get(b)
	switch s.Def.Agg {
	case Min:
		if v < cur {
			g.Vec.Set(b, v)
		}
	case Max:
		if v > cur {
			g.Vec.Set(b, v)
		}
	case Sum:
		g.Vec.Set(b, cur+v)
	case Count:
		g.Vec.Set(b, cur+1)
	}
	return nil
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
