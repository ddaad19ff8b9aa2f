package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"sma/internal/pred"
)

// Grade is the three-way classification of a bucket against a selection
// predicate (§3.1): every tuple qualifies, no tuple qualifies, or the bucket
// must be inspected.
type Grade uint8

// Grades. The zero value is Ambivalent so that "no information" degrades
// safely to inspection.
const (
	Ambivalent Grade = iota
	Qualifies
	Disqualifies
)

// String names the grade.
func (g Grade) String() string {
	switch g {
	case Qualifies:
		return "qualifies"
	case Disqualifies:
		return "disqualifies"
	case Ambivalent:
		return "ambivalent"
	default:
		return fmt.Sprintf("Grade(%d)", uint8(g))
	}
}

// and combines two partition memberships under conjunction (§3.1):
// BU_q = BU_q¹ ∩ BU_q², BU_d = BU_d¹ ∪ BU_d², rest ambivalent.
func (g Grade) and(h Grade) Grade {
	switch {
	case g == Disqualifies || h == Disqualifies:
		return Disqualifies
	case g == Qualifies && h == Qualifies:
		return Qualifies
	default:
		return Ambivalent
	}
}

// or combines two partition memberships under disjunction (§3.1):
// BU_q = BU_q¹ ∪ BU_q², BU_d = BU_d¹ ∩ BU_d², rest ambivalent.
func (g Grade) or(h Grade) Grade {
	switch {
	case g == Qualifies || h == Qualifies:
		return Qualifies
	case g == Disqualifies && h == Disqualifies:
		return Disqualifies
	default:
		return Ambivalent
	}
}

// not inverts a grade: if all tuples satisfy p, none satisfy ¬p, and vice
// versa. (Sound extension of the paper's rules to negation.)
func (g Grade) not() Grade {
	switch g {
	case Qualifies:
		return Disqualifies
	case Disqualifies:
		return Qualifies
	default:
		return Ambivalent
	}
}

// bound is an optionally-known scalar bound.
type bound struct {
	v  float64
	ok bool
}

// gradeConst implements the paper's rules for atomic predicates A op c given
// the bucket's min/max of A (either possibly unknown). Unknown information
// always degrades to Ambivalent ("The else case is also applied if the
// max/min aggregates are not defined").
func gradeConst(min, max bound, op pred.CmpOp, c float64) Grade {
	switch op {
	case pred.Eq:
		// if c < min_i(A) or c > max_i(A): disqualifies; else ambivalent.
		if min.ok && c < min.v {
			return Disqualifies
		}
		if max.ok && c > max.v {
			return Disqualifies
		}
		// Refinement: a constant bucket equal to c fully qualifies.
		if min.ok && max.ok && min.v == max.v && min.v == c {
			return Qualifies
		}
		return Ambivalent
	case pred.Ne:
		if min.ok && c < min.v {
			return Qualifies
		}
		if max.ok && c > max.v {
			return Qualifies
		}
		if min.ok && max.ok && min.v == max.v && min.v == c {
			return Disqualifies
		}
		return Ambivalent
	case pred.Le:
		// if max_i(A) <= c: qualifies; if min_i(A) > c: disqualifies.
		if max.ok && max.v <= c {
			return Qualifies
		}
		if min.ok && min.v > c {
			return Disqualifies
		}
		return Ambivalent
	case pred.Lt:
		if max.ok && max.v < c {
			return Qualifies
		}
		if min.ok && min.v >= c {
			return Disqualifies
		}
		return Ambivalent
	case pred.Ge:
		// if min_i(A) >= c: qualifies; if max_i(A) < c: disqualifies.
		if min.ok && min.v >= c {
			return Qualifies
		}
		if max.ok && max.v < c {
			return Disqualifies
		}
		return Ambivalent
	case pred.Gt:
		if min.ok && min.v > c {
			return Qualifies
		}
		if max.ok && max.v <= c {
			return Disqualifies
		}
		return Ambivalent
	default:
		return Ambivalent
	}
}

// gradeColCol implements the paper's A θ B rules given per-bucket bounds of
// both columns: if max_i(A) <= min_i(B) the bucket qualifies for A <= B; if
// min_i(A) > max_i(B) it disqualifies.
func gradeColCol(minA, maxA, minB, maxB bound, op pred.CmpOp) Grade {
	switch op {
	case pred.Le:
		if maxA.ok && minB.ok && maxA.v <= minB.v {
			return Qualifies
		}
		if minA.ok && maxB.ok && minA.v > maxB.v {
			return Disqualifies
		}
		return Ambivalent
	case pred.Lt:
		if maxA.ok && minB.ok && maxA.v < minB.v {
			return Qualifies
		}
		if minA.ok && maxB.ok && minA.v >= maxB.v {
			return Disqualifies
		}
		return Ambivalent
	case pred.Ge:
		return gradeColCol(minB, maxB, minA, maxA, pred.Le)
	case pred.Gt:
		return gradeColCol(minB, maxB, minA, maxA, pred.Lt)
	case pred.Eq:
		if minA.ok && maxB.ok && minA.v > maxB.v {
			return Disqualifies
		}
		if maxA.ok && minB.ok && maxA.v < minB.v {
			return Disqualifies
		}
		if minA.ok && maxA.ok && minB.ok && maxB.ok &&
			minA.v == maxA.v && minB.v == maxB.v && minA.v == minB.v {
			return Qualifies
		}
		return Ambivalent
	case pred.Ne:
		if minA.ok && maxB.ok && minA.v > maxB.v {
			return Qualifies
		}
		if maxA.ok && minB.ok && maxA.v < minB.v {
			return Qualifies
		}
		return Ambivalent
	default:
		return Ambivalent
	}
}

// Grader implements the paper's grade(bucket, predicate) function over a set
// of SMAs: min/max SMAs on bare columns (grouped or not) and count SMAs
// grouped by a single column (per-value counts, §3.1's last rule family).
type Grader struct {
	numBuckets int
	mins       map[string]*SMA // column -> min SMA
	maxs       map[string]*SMA // column -> max SMA
	counts     map[string]*SMA // column -> count(*) group by column SMA
}

// NewGrader indexes the given SMAs by the columns they can grade. SMAs that
// cannot help with selection (e.g. sums, or min/max of compound
// expressions) are ignored, mirroring the paper: grading only ever uses
// min/max SMAs and count-group-by-A SMAs.
func NewGrader(smas ...*SMA) *Grader {
	g := &Grader{
		mins:   make(map[string]*SMA),
		maxs:   make(map[string]*SMA),
		counts: make(map[string]*SMA),
	}
	for _, s := range smas {
		if s == nil {
			continue
		}
		if s.NumBuckets > g.numBuckets {
			g.numBuckets = s.NumBuckets
		}
		switch s.Def.Agg {
		case Min:
			if col := s.Def.ColumnOf(); col != "" {
				g.mins[col] = s
			}
		case Max:
			if col := s.Def.ColumnOf(); col != "" {
				g.maxs[col] = s
			}
		case Count:
			if len(s.Def.GroupBy) == 1 {
				g.counts[strings.ToUpper(s.Def.GroupBy[0])] = s
			}
		}
	}
	return g
}

// NumBuckets returns the bucket count covered by the grader's SMAs.
func (g *Grader) NumBuckets() int { return g.numBuckets }

// HasSelectionSMA reports whether any atom of p can be graded by the
// available SMAs (i.e. whether an SMA scan can prune anything at all).
func (g *Grader) HasSelectionSMA(p pred.Predicate) bool {
	for _, a := range pred.Atoms(p) {
		if g.mins[a.Col] != nil || g.maxs[a.Col] != nil || g.counts[a.Col] != nil {
			return true
		}
		if a.RightCol != "" && (g.mins[a.RightCol] != nil || g.maxs[a.RightCol] != nil) {
			return true
		}
	}
	return false
}

// bounds carries what a min or a max SMA knows about up to 64 consecutive
// buckets sharing one presence word: v[i] is a bound iff bit i of ok is set.
type bounds struct {
	v  [64]float64
	ok uint64
}

func (bs *bounds) at(i int) bound { return bound{bs.v[i], bs.ok>>uint(i)&1 != 0} }

// wordBounds loads the bucket minima of a min SMA (or, with upper, the
// bucket maxima of a max SMA) for buckets [lo, lo+n), which must share a
// presence word: the vector form of BucketMin/BucketMax, reading each
// SMA-file's presence bits a word at a time. A nil SMA and buckets it does
// not cover yield unknown bounds.
func (s *SMA) wordBounds(upper bool, lo, n int, out *bounds) {
	out.ok = 0
	if s == nil {
		return
	}
	if n = min(n, s.NumBuckets-lo); n <= 0 {
		return
	}
	inf := math.Inf(1)
	if upper {
		inf = math.Inf(-1)
	}
	for i := range out.v[:n] {
		out.v[i] = inf
	}
	for _, g := range s.files {
		m := g.Present.bits(lo, n)
		out.ok |= m
		switch v := g.Vec; v.typ {
		case EInt32:
			loadBounds(v.i32[lo:], m, upper, out)
		case EInt64:
			loadBounds(v.i64[lo:], m, upper, out)
		default:
			loadBounds(v.f64[lo:], m, upper, out)
		}
	}
}

// loadBounds tightens out with the entries of vals selected by mask m.
func loadBounds[T int32 | int64 | float64](vals []T, m uint64, upper bool, out *bounds) {
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		v := float64(vals[i])
		if upper {
			if v > out.v[i] {
				out.v[i] = v
			}
		} else if v < out.v[i] {
			out.v[i] = v
		}
	}
}

// Grade classifies bucket b against predicate p: the one-bucket case of
// GradeAll.
func (g *Grader) Grade(b int, p pred.Predicate) Grade {
	var out [1]Grade
	g.gradeRange(p, b, out[:], nil)
	return out[0]
}

// GradeAll grades every bucket and returns the slice of grades.
func (g *Grader) GradeAll(p pred.Predicate) []Grade {
	out := make([]Grade, g.numBuckets)
	g.gradeRange(p, 0, out, nil)
	return out
}

// gradeRange grades the len(out) buckets from lo on against p. Each atom
// is resolved to its SMAs once and graded over the whole range; And, Or
// and Not combine their operands' vectors element-wise with the §3.1
// partition algebra. It never errs toward Qualifies/Disqualifies: anything
// it cannot decide contributes Ambivalent. A non-nil need marks the buckets
// whose grade the caller will use: a sibling operand has already settled
// the others, so they may be left at whatever the min/max SMAs say.
func (g *Grader) gradeRange(p pred.Predicate, lo int, out []Grade, need []bool) {
	switch q := p.(type) {
	case *pred.Atom:
		g.gradeAtomRange(q, lo, out, need)
	case *pred.And:
		g.combineRange(q.Kids, true, lo, out, need)
	case *pred.Or:
		g.combineRange(q.Kids, false, lo, out, need)
	case *pred.Not:
		g.gradeRange(q.Kid, lo, out, need)
		for i, k := range out {
			out[i] = k.not()
		}
	case pred.True, *pred.True:
		fill(out, Qualifies)
	default:
		fill(out, Ambivalent)
	}
}

// combineRange grades a conjunction (conj) or disjunction of kids into out.
// A bucket one operand disqualifies (conj) or qualifies (disjunction) is
// settled whatever the later operands say — the per-bucket short-circuit —
// so where value-count SMAs make an atom cost a walk over all their
// SMA-files per bucket, later kids are asked only for the unsettled ones.
func (g *Grader) combineRange(kids []pred.Predicate, conj bool, lo int, out []Grade, need []bool) {
	settled := Qualifies
	if conj {
		settled = Disqualifies
	}
	if len(kids) == 0 {
		// The empty conjunction holds everywhere, the empty disjunction nowhere.
		fill(out, settled.not())
		return
	}
	g.gradeRange(kids[0], lo, out, need)
	if len(kids) == 1 {
		return
	}
	kid := make([]Grade, len(out))
	var open []bool
	if len(g.counts) > 0 {
		open = make([]bool, len(out))
	}
	for _, k := range kids[1:] {
		if open != nil {
			left := false
			for i, h := range out {
				open[i] = h != settled && (need == nil || need[i])
				left = left || open[i]
			}
			if !left {
				return
			}
		}
		g.gradeRange(k, lo, kid, open)
		for i, h := range kid {
			if conj {
				out[i] = out[i].and(h)
			} else {
				out[i] = out[i].or(h)
			}
		}
	}
}

func fill(out []Grade, g Grade) {
	for i := range out {
		out[i] = g
	}
}

// gradeAtomRange grades one atomic comparison over the buckets starting at
// lo, a presence word at a time, preferring min/max SMAs and falling back
// to a count-group-by-A SMA where min/max information is absent or
// indecisive and the bucket's grade is needed.
//
// A comparison with a constant first grades a whole presence word by its
// level-2 bounds, when every bucket of the word has a min and a max entry.
// Each bucket's [min, max] lies within the word's (the min and the max SMA
// fold the same rows, so no bucket's min exceeds its max), so a word the
// bounds qualify or disqualify gives each of its buckets the grade the
// bucket's own bounds give it; an undecided word is graded bucket by bucket.
func (g *Grader) gradeAtomRange(a *pred.Atom, lo int, out []Grade, need []bool) {
	minA, maxA := g.mins[a.Col], g.maxs[a.Col]
	minB, maxB := g.mins[a.RightCol], g.maxs[a.RightCol]
	counts := g.counts[a.Col]
	var mnA, mxA, mnB, mxB bounds
	for len(out) > 0 {
		n := min(len(out), 64-lo&63)
		var word Grade // the grade of the whole presence word, if it has one
		if n == blockLen && a.RightCol == "" {
			word = gradeBlock(minA, maxA, lo/blockLen, a.Op, a.Value)
		}
		switch {
		case word != Ambivalent:
			fill(out[:n], word)
		case a.RightCol != "":
			minA.wordBounds(false, lo, n, &mnA)
			maxA.wordBounds(true, lo, n, &mxA)
			minB.wordBounds(false, lo, n, &mnB)
			maxB.wordBounds(true, lo, n, &mxB)
			for i := range out[:n] {
				out[i] = gradeColCol(mnA.at(i), mxA.at(i), mnB.at(i), mxB.at(i), a.Op)
			}
		default:
			minA.wordBounds(false, lo, n, &mnA)
			maxA.wordBounds(true, lo, n, &mxA)
			for i := range out[:n] {
				out[i] = gradeConst(mnA.at(i), mxA.at(i), a.Op, a.Value)
				if out[i] == Ambivalent && counts != nil && (need == nil || need[i]) {
					out[i] = gradeByValueCounts(counts, lo+i, a.Op, a.Value)
				}
			}
		}
		lo, out = lo+n, out[n:]
		if need != nil {
			need = need[n:]
		}
	}
}

// gradeBlock grades presence word k against A op c by the level-2 bounds
// of A's min and max SMAs: Ambivalent unless both bound every bucket of it.
func gradeBlock(minA, maxA *SMA, k int, op pred.CmpOp, c float64) Grade {
	mn, ok := minA.blockBounds(false, k)
	if !ok {
		return Ambivalent
	}
	mx, ok := maxA.blockBounds(true, k)
	if !ok {
		return Ambivalent
	}
	return gradeConst(bound{mn, true}, bound{mx, true}, op, c)
}

// gradeByValueCounts grades bucket b of a count(*) SMA grouped by exactly
// the predicate column: the group keys enumerate the values occurring in
// the bucket, so the bucket qualifies when every present value satisfies
// the comparison and disqualifies when none does (§3.1).
func gradeByValueCounts(s *SMA, b int, op pred.CmpOp, c float64) Grade {
	if b >= s.NumBuckets {
		return Ambivalent
	}
	sawAny := false
	allSat, noneSat := true, true
	for _, gf := range s.files {
		v, present := gf.ValueAt(b)
		if !present || v <= 0 {
			continue
		}
		x, ok := gf.Vals[0].Numeric()
		if !ok {
			return Ambivalent // value not comparable (multi-char string)
		}
		sawAny = true
		if op.Compare(x, c) {
			noneSat = false
		} else {
			allSat = false
		}
		if !allSat && !noneSat {
			return Ambivalent
		}
	}
	if !sawAny {
		// Empty bucket: vacuously no qualifying tuples.
		return Disqualifies
	}
	if allSat {
		return Qualifies
	}
	return Disqualifies
}

// PadGrades cuts or extends a whole-vector grading pass to nb buckets. A
// bucket beyond the vector — one the SMAs do not cover — is Ambivalent:
// missing information degrades to inspection, never to a wrong skip.
func PadGrades(grades []Grade, nb int) []Grade {
	if len(grades) >= nb {
		return grades[:nb]
	}
	out := make([]Grade, nb) // the zero Grade is Ambivalent
	copy(out, grades)
	return out
}

// GradeCounts summarizes a grading pass; the planner uses it for the
// breakeven decision (Fig. 5: SMAs stop paying off at ≈25% ambivalent
// buckets).
type GradeCounts struct {
	Qualifying    int
	Disqualifying int
	Ambivalent    int
}

// Total returns the number of graded buckets.
func (c GradeCounts) Total() int { return c.Qualifying + c.Disqualifying + c.Ambivalent }

// AmbivalentFrac returns the fraction of buckets that must be inspected.
func (c GradeCounts) AmbivalentFrac() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Ambivalent) / float64(c.Total())
}

// CountGrades tallies a grade slice.
func CountGrades(grades []Grade) GradeCounts {
	var c GradeCounts
	for _, g := range grades {
		switch g {
		case Qualifies:
			c.Qualifying++
		case Disqualifies:
			c.Disqualifying++
		default:
			c.Ambivalent++
		}
	}
	return c
}
