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
	var out [1]Run
	return g.gradeRuns(p, b, b+1, out[:0])[0].Grade
}

// Run is a stretch of consecutive buckets [Lo, Hi) that share one grade.
// Bucket numbers are 32-bit: a run list is the one grading structure a
// statement allocates, and it stays half the size.
type Run struct {
	Lo, Hi int32
	Grade  Grade
}

// Len returns the number of buckets in the run.
func (r Run) Len() int { return int(r.Hi - r.Lo) }

// addRun appends buckets [lo, hi) graded gr to runs, extending the last
// run instead when it ends at lo with the same grade. An empty stretch adds
// nothing.
func addRun(runs []Run, lo, hi int, gr Grade) []Run {
	if lo >= hi {
		return runs
	}
	if n := len(runs); n > 0 && int(runs[n-1].Hi) == lo && runs[n-1].Grade == gr {
		runs[n-1].Hi = int32(hi)
		return runs
	}
	return append(runs, Run{Lo: int32(lo), Hi: int32(hi), Grade: gr})
}

// RunsOf folds per-bucket grades into runs: grades[i] is the grade of
// bucket buckets[i], or of bucket i when buckets is nil. The buckets must
// ascend; a gap between them is a gap between runs.
func RunsOf(buckets []int, grades []Grade) []Run {
	var out []Run
	for i := 0; i < len(grades); {
		lo := i
		if buckets != nil {
			lo = buckets[i]
		}
		j := i + 1
		for j < len(grades) && grades[j] == grades[i] && (buckets == nil || buckets[j] == lo+j-i) {
			j++
		}
		out = append(out, Run{Lo: int32(lo), Hi: int32(lo + j - i), Grade: grades[i]})
		i = j
	}
	return out
}

// GradeAll grades every bucket the grader's SMAs cover and returns the run
// list: sorted, maximal (no two adjacent runs share a grade) and covering
// [0, NumBuckets()) without a gap.
func (g *Grader) GradeAll(p pred.Predicate) []Run {
	return g.gradeRuns(p, 0, g.numBuckets, nil)
}

// RunsFor grades the nb buckets of a relation against p: GradeAll cut or
// extended to nb buckets, where the stretch the SMAs do not cover is one
// Ambivalent run — missing information degrades to inspection, never to a
// wrong skip. A nil predicate qualifies every bucket.
func (g *Grader) RunsFor(p pred.Predicate, nb int) []Run {
	if p == nil {
		return addRun(nil, 0, nb, Qualifies)
	}
	n := min(g.numBuckets, nb)
	return addRun(g.gradeRuns(p, 0, n, nil), n, nb, Ambivalent)
}

// gradeRuns grades buckets [lo, hi) against p into the run list it returns,
// reusing out's array. Each atom is resolved to its SMAs once and graded
// over the whole stretch; Not flips its operand's runs, and And and Or
// merge their operands' run lists with the §3.1 partition algebra. It never
// errs toward Qualifies/Disqualifies: anything it cannot decide contributes
// Ambivalent.
func (g *Grader) gradeRuns(p pred.Predicate, lo, hi int, out []Run) []Run {
	out = out[:0]
	switch q := p.(type) {
	case *pred.Atom:
		return g.gradeAtomRuns(q, lo, hi, out)
	case *pred.And:
		return g.combineRuns(q.Kids, true, lo, hi, out)
	case *pred.Or:
		return g.combineRuns(q.Kids, false, lo, hi, out)
	case *pred.Not:
		out = g.gradeRuns(q.Kid, lo, hi, out)
		for i := range out {
			out[i].Grade = out[i].Grade.not()
		}
		return out
	case pred.True, *pred.True:
		return addRun(out, lo, hi, Qualifies)
	default:
		return addRun(out, lo, hi, Ambivalent)
	}
}

// combineRuns grades a conjunction (conj) or disjunction of kids over
// [lo, hi). A bucket one operand disqualifies (conj) or qualifies
// (disjunction) is settled whatever the later operands say — the
// per-bucket short-circuit — so where value-count SMAs make an atom cost a
// walk over all their SMA-files per bucket, later kids are graded only over
// the runs still open. Without them a kid is graded over the whole stretch
// at once and its runs are merged.
func (g *Grader) combineRuns(kids []pred.Predicate, conj bool, lo, hi int, out []Run) []Run {
	settled, op := Qualifies, Grade.or
	if conj {
		settled, op = Disqualifies, Grade.and
	}
	if len(kids) == 0 {
		// The empty conjunction holds everywhere, the empty disjunction nowhere.
		return addRun(out, lo, hi, settled.not())
	}
	acc := g.gradeRuns(kids[0], lo, hi, out)
	var kid, next []Run
	perRun := len(g.counts) > 0
	for _, k := range kids[1:] {
		if len(acc) == 1 && acc[0].Grade == settled {
			break
		}
		if !perRun {
			kid = g.gradeRuns(k, lo, hi, kid)
		}
		next = next[:0]
		j := 0 // kid[:j] end at or before the current run
		for _, r := range acc {
			if r.Grade == settled {
				next = addRun(next, int(r.Lo), int(r.Hi), settled)
				continue
			}
			if perRun {
				kid, j = g.gradeRuns(k, int(r.Lo), int(r.Hi), kid), 0
			}
			for j < len(kid) && kid[j].Hi <= r.Lo {
				j++
			}
			for i := j; i < len(kid) && kid[i].Lo < r.Hi; i++ {
				next = addRun(next, int(max(kid[i].Lo, r.Lo)), int(min(kid[i].Hi, r.Hi)), op(r.Grade, kid[i].Grade))
			}
		}
		acc, next = next, acc
	}
	return acc
}

// gradeAtomRuns grades one atomic comparison over buckets [lo, hi), a
// presence word at a time, preferring min/max SMAs and falling back to a
// count-group-by-A SMA where min/max information is absent or indecisive.
//
// A comparison with a constant first grades a whole presence word by its
// level-2 bounds, when every bucket of the word has a min and a max entry.
// Each bucket's [min, max] lies within the word's (the min and the max SMA
// fold the same rows, so no bucket's min exceeds its max), so a word the
// bounds qualify or disqualify is one run with the grade each of its
// buckets' own bounds give it; an undecided word is graded bucket by
// bucket, and its grades fold into runs as they are produced.
func (g *Grader) gradeAtomRuns(a *pred.Atom, lo, hi int, out []Run) []Run {
	minA, maxA := g.mins[a.Col], g.maxs[a.Col]
	minB, maxB := g.mins[a.RightCol], g.maxs[a.RightCol]
	counts := g.counts[a.Col]
	var mnA, mxA, mnB, mxB bounds
	for lo < hi {
		n := min(hi-lo, 64-lo&63)
		var word Grade // the grade of the whole presence word, if it has one
		if n == blockLen && a.RightCol == "" {
			word = gradeBlock(minA, maxA, lo/blockLen, a.Op, a.Value)
		}
		switch {
		case word != Ambivalent:
			out = addRun(out, lo, lo+n, word)
		case a.RightCol != "":
			minA.wordBounds(false, lo, n, &mnA)
			maxA.wordBounds(true, lo, n, &mxA)
			minB.wordBounds(false, lo, n, &mnB)
			maxB.wordBounds(true, lo, n, &mxB)
			for i := range n {
				out = addRun(out, lo+i, lo+i+1, gradeColCol(mnA.at(i), mxA.at(i), mnB.at(i), mxB.at(i), a.Op))
			}
		default:
			minA.wordBounds(false, lo, n, &mnA)
			maxA.wordBounds(true, lo, n, &mxA)
			for i := range n {
				gr := gradeConst(mnA.at(i), mxA.at(i), a.Op, a.Value)
				if gr == Ambivalent && counts != nil {
					gr = gradeByValueCounts(counts, lo+i, a.Op, a.Value)
				}
				out = addRun(out, lo+i, lo+i+1, gr)
			}
		}
		lo += n
	}
	return out
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

// CountGrades sums the lengths of a run list's runs by grade.
func CountGrades(runs []Run) GradeCounts {
	var c GradeCounts
	for _, r := range runs {
		switch n := r.Len(); r.Grade {
		case Qualifies:
			c.Qualifying += n
		case Disqualifies:
			c.Disqualifying += n
		default:
			c.Ambivalent += n
		}
	}
	return c
}
