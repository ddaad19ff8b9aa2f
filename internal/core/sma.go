package core

import (
	"math"
	"sort"

	"sma/internal/storage"
	"sma/internal/tuple"
)

// GroupFile is one SMA-file: the materialized aggregate of one group,
// aligned positionally with the buckets of the indexed relation. An
// ungrouped SMA has exactly one GroupFile with the empty key.
type GroupFile struct {
	Key  GroupKey
	Vals []GroupVal // decoded group-by column values (nil for ungrouped)

	Vec *Vector
	// Present marks buckets in which the group has at least one tuple;
	// min/max entries of absent buckets are meaningless and must be
	// skipped during grading and aggregation.
	Present *Bitmap

	// l2 is the level-2 summary (summary.go), derived from Vec and
	// Present. A new or loaded file starts with an empty summary; after
	// that level 1 changes only through appendAbsent, clear and fold, and
	// each lowers its watermark.
	l2 summary
}

// ValueAt returns the aggregate for bucket b and whether it is present.
func (g *GroupFile) ValueAt(b int) (float64, bool) {
	if !g.Present.Get(b) {
		return 0, false
	}
	return g.Vec.Get(b), true
}

// appendAbsent opens one more bucket in g, absent.
func (g *GroupFile) appendAbsent() {
	g.invalidate(g.Present.n)
	g.Vec.append(0)
	g.Present.append(false)
}

// clear makes bucket b absent, the first step of its refold.
func (g *GroupFile) clear(b int) {
	g.invalidate(b)
	g.Vec.set(b, 0)
	g.Present.set(b, false)
}

// SMA is a built Small Materialized Aggregate over one relation: the
// definition plus one GroupFile per group.
type SMA struct {
	Def         Def
	BucketPages int
	NumBuckets  int

	elem   ElemType
	schema *tuple.Schema
	gx     *Extractor // nil for ungrouped SMAs

	groups map[GroupKey]*GroupFile
	// files holds the SMA-files in ascending key order: the deterministic
	// iteration order, and what the grading and fold loops walk so that
	// nothing hashes a key per bucket.
	files []*GroupFile

	run // maintenance state: what foldRun needs, see run.go
}

// newSMA allocates an empty SMA skeleton bound to schema.
func newSMA(def Def, schema *tuple.Schema, bucketPages int) (*SMA, error) {
	if err := def.Validate(schema); err != nil {
		return nil, err
	}
	s := &SMA{
		Def:         def,
		BucketPages: bucketPages,
		elem:        def.ElemTypeFor(schema),
		schema:      schema,
		groups:      make(map[GroupKey]*GroupFile),
	}
	if def.Grouped() {
		gx, err := NewExtractor(schema, def.GroupBy)
		if err != nil {
			return nil, err
		}
		s.gx = gx
	}
	if err := s.compileRun(); err != nil {
		return nil, err
	}
	return s, nil
}

// ElemType returns the storage type of the SMA's entries.
func (s *SMA) ElemType() ElemType { return s.elem }

// Schema returns the schema the SMA is bound to.
func (s *SMA) Schema() *tuple.Schema { return s.schema }

// NumFiles returns the number of SMA-files (one per group).
func (s *SMA) NumFiles() int { return len(s.groups) }

// GroupKeys returns the group keys in deterministic order.
func (s *SMA) GroupKeys() []GroupKey {
	out := make([]GroupKey, len(s.files))
	for i, g := range s.files {
		out[i] = g.Key
	}
	return out
}

// Group returns the SMA-file for key (nil if the group never occurred).
func (s *SMA) Group(key GroupKey) *GroupFile { return s.groups[key] }

// Groups visits every SMA-file in deterministic order.
func (s *SMA) Groups(visit func(g *GroupFile) error) error {
	for _, g := range s.files {
		if err := visit(g); err != nil {
			return err
		}
	}
	return nil
}

// addGroup registers a new group, backfilling absent entries for the first
// backfill buckets.
func (s *SMA) addGroup(key GroupKey, vals []GroupVal, backfill int) *GroupFile {
	g := &GroupFile{Key: key, Vals: vals, Vec: NewVector(s.elem), Present: NewBitmap()}
	for i := 0; i < backfill; i++ {
		g.appendAbsent()
	}
	s.groups[key] = g
	at := sort.Search(len(s.files), func(i int) bool { return s.files[i].Key >= key })
	s.files = append(s.files, nil)
	copy(s.files[at+1:], s.files[at:])
	s.files[at] = g
	return g
}

// checkFiles reports a files slice that fell out of step with the group
// index: it must hold every group exactly once, in ascending key order.
func (s *SMA) checkFiles() error {
	if len(s.files) != len(s.groups) {
		return errf("sma %s: %d ordered SMA-files for %d groups", s.Def.Name, len(s.files), len(s.groups))
	}
	for i, g := range s.files {
		if s.groups[g.Key] != g {
			return errf("sma %s: ordered SMA-file %d (group %q) is not the indexed one", s.Def.Name, i, string(g.Key))
		}
		if i > 0 && s.files[i-1].Key >= g.Key {
			return errf("sma %s: SMA-files out of key order at %d (%q after %q)",
				s.Def.Name, i, string(g.Key), string(s.files[i-1].Key))
		}
	}
	return nil
}

// BucketMin returns the smallest aggregate value over all groups present in
// bucket b. For an SMA defined with the min aggregate this is the bucket
// minimum of the indexed expression (the paper's min_i(A)); grouped min
// SMAs are usable for selection by taking the min over all groups (§3.1).
func (s *SMA) BucketMin(b int) (float64, bool) {
	lo, ok := math.Inf(1), false
	for _, g := range s.files {
		if v, present := g.ValueAt(b); present {
			if v < lo {
				lo = v
			}
			ok = true
		}
	}
	return lo, ok
}

// BucketMax returns the largest aggregate value over all groups present in
// bucket b (the paper's max_i(A) for max SMAs).
func (s *SMA) BucketMax(b int) (float64, bool) {
	hi, ok := math.Inf(-1), false
	for _, g := range s.files {
		if v, present := g.ValueAt(b); present {
			if v > hi {
				hi = v
			}
			ok = true
		}
	}
	return hi, ok
}

// SizeBytes returns the total payload size of all SMA-files (aggregate
// entries only, the quantity the paper's size table reports).
func (s *SMA) SizeBytes() int64 {
	var total int64
	for _, g := range s.groups {
		total += g.Vec.SizeBytes()
	}
	return total
}

// PagesUsed returns the number of pages the SMA-files occupy, rounding each
// file up to whole pages as the paper's per-file accounting does.
func (s *SMA) PagesUsed() int64 {
	var total int64
	for _, g := range s.groups {
		bytes := g.Vec.SizeBytes()
		total += (bytes + storage.PageSize - 1) / storage.PageSize
	}
	return total
}
