package core

import (
	"bytes"
	"fmt"

	"sma/internal/expr"
	"sma/internal/tuple"
)

// run is what an SMA needs to fold a bucket run — packed live records of one
// bucket, in physical order — into its SMA-files: the aggregate's argument
// compiled into the vector program the scan operators use, an index from a
// record's raw group bytes (Extractor.Regions) to its SMA-file, and
// scratch. None of it allocates per record. It is writer state: runs are
// folded under the engine's write lock (or into an SMA nobody else can see
// yet), never by readers.
type run struct {
	prog expr.Program
	arg  int32 // the argument's node; unused for count(*)

	byRaw map[string]*GroupFile // raw group-column bytes -> SMA-file
	raw   [2][]byte             // raw keys of the current and the previous record
	vals  []float64             // argument vectors
}

// compileRun prepares s.run for def; newSMA calls it once.
func (s *SMA) compileRun() error {
	if s.Def.Expr != nil {
		var err error
		if s.arg, err = s.prog.Add(s.Def.Expr, s.schema); err != nil {
			return fmt.Errorf("core: sma %s: %w", s.Def.Name, err)
		}
	}
	if s.gx != nil {
		s.byRaw = make(map[string]*GroupFile)
	}
	return nil
}

// openBucket appends one absent entry to every SMA-file.
func (s *SMA) openBucket() {
	for _, g := range s.files {
		g.appendAbsent()
	}
	s.NumBuckets++
}

// AppendRun maintains the SMA after the packed records recs were appended
// to bucket b, the last bucket or a new one. Appends extend the last bucket
// (or open a new one); the update is O(1) per record and SMA-file.
func (s *SMA) AppendRun(b int, recs []byte) error {
	if len(recs)%s.schema.RecordSize() != 0 {
		return errf("sma %s: run of %d bytes is not whole %d-byte records", s.Def.Name, len(recs), s.schema.RecordSize())
	}
	for b >= s.NumBuckets {
		s.openBucket()
	}
	s.foldRun(b, recs)
	return nil
}

// foldRun folds the packed records recs, all of bucket b < NumBuckets, into
// the SMA-files: the one accumulate path, shared by appends (AppendRun; a
// single row is OnAppend) and bucket refolds (Refold, and Build and
// BuildMany, which refold every bucket). The argument is evaluated once for the run into a
// vector; each record's group is resolved from its raw group-column bytes;
// and every maximal stretch of records of one group advances that group's
// entry in one typed loop. A group's entry receives its records in row
// order, each through the operation a row-at-a-time fold performs, so the
// vectors are bit-identical to one — whatever the run boundaries.
func (s *SMA) foldRun(b int, recs []byte) {
	rs := s.schema.RecordSize()
	n := len(recs) / rs
	if n == 0 {
		return
	}
	var vals []float64 // nil for count(*)
	if s.Def.Expr != nil {
		var c float64
		vals, c = s.prog.Value(s.arg, s.prog.Eval(&s.vals, recs, rs, nil, n), n)
		if vals == nil { // a constant argument fills no vector of its own
			if cap(s.vals) < n {
				s.vals = make([]float64, n)
			}
			vals = s.vals[:n]
			for i := range vals {
				vals[i] = c
			}
		}
	}
	if s.gx == nil {
		if len(s.files) == 0 {
			s.addGroup("", nil, s.NumBuckets)
		}
		s.files[0].fold(b, s.Def.Agg, vals, n)
		return
	}
	// prev is the raw group key of the records [start, i), cur that of
	// record i; the stretch is folded when the key changes or the run ends.
	start, prev, cur := 0, s.raw[0], s.raw[1]
	for i := 0; i <= n; i++ {
		if i < n {
			rec := recs[i*rs : (i+1)*rs]
			cur = cur[:0]
			for _, reg := range s.gx.Regions() {
				cur = append(cur, rec[reg.Off:reg.Off+reg.Width]...)
			}
			if i > 0 && bytes.Equal(cur, prev) {
				continue
			}
		}
		if i > 0 {
			g := s.fileOf(prev, recs[start*rs:(start+1)*rs])
			if vals == nil {
				g.fold(b, s.Def.Agg, nil, i-start)
			} else {
				g.fold(b, s.Def.Agg, vals[start:i], i-start)
			}
		}
		start, prev, cur = i, cur, prev
	}
	s.raw[0], s.raw[1] = prev, cur
}

// fileOf resolves the SMA-file of a grouped SMA's record rec from its raw
// group-column bytes, registering a group first seen — backfilled absent
// through the current bucket. Only a raw key never met builds the canonical
// key: two raw keys of one canonical group (two NaN encodings; int64s that
// round to one float64) meet in the canonical index and share a file.
func (s *SMA) fileOf(raw, rec []byte) *GroupFile {
	if g, ok := s.byRaw[string(raw)]; ok {
		return g
	}
	vals := s.gx.Vals(tuple.Tuple{Schema: s.schema, Data: rec})
	key := MakeGroupKey(vals)
	g, ok := s.groups[key]
	if !ok {
		g = s.addGroup(key, vals, s.NumBuckets)
	}
	s.byRaw[string(raw)] = g
	return g
}

// fold advances the entry of bucket b by n records with the argument
// values vals (nil for count(*)), in order: the first record of an absent
// entry sets it, every other one goes through the aggregate's step at the
// entry's own width, exactly what one OnAppend per record did.
func (g *GroupFile) fold(b int, agg AggKind, vals []float64, n int) {
	g.invalidate(b)
	if !g.Present.Get(b) {
		g.Present.set(b, true)
		if agg == Count {
			g.Vec.set(b, 1)
		} else {
			g.Vec.set(b, vals[0])
			vals = vals[1:]
		}
		n--
	}
	switch v := g.Vec; v.typ {
	case EInt32:
		foldEntry(&v.i32[b], agg, vals, n)
	case EInt64:
		foldEntry(&v.i64[b], agg, vals, n)
	default:
		foldEntry(&v.f64[b], agg, vals, n)
	}
}

// foldEntry is the typed loop of fold: the running value stays in a
// register, widened to float64 for every step and narrowed back as
// Vector.set narrows.
func foldEntry[T int32 | int64 | float64](p *T, agg AggKind, vals []float64, n int) {
	cur := *p
	switch agg {
	case Min:
		for _, v := range vals {
			if v < float64(cur) {
				cur = T(v)
			}
		}
	case Max:
		for _, v := range vals {
			if v > float64(cur) {
				cur = T(v)
			}
		}
	case Sum:
		for _, v := range vals {
			cur = T(float64(cur) + v)
		}
	case Count:
		cur = T(float64(cur) + float64(n)) // n steps of +1: counts are exact integers
	}
	*p = cur
}
