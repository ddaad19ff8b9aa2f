package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"sma/internal/core"
	"sma/internal/pred"
)

// halves returns runs whole and cut in two at the middle bucket, the way a
// two-worker partition splits them.
func halves(runs []core.Run) [][]core.Run {
	if len(runs) == 0 {
		return [][]core.Run{runs}
	}
	mid := (runs[0].Lo + runs[len(runs)-1].Hi) / 2
	var lo, hi []core.Run
	for _, r := range runs {
		switch {
		case r.Hi <= mid:
			lo = append(lo, r)
		case r.Lo >= mid:
			hi = append(hi, r)
		default:
			lo = append(lo, core.Run{Lo: r.Lo, Hi: mid, Grade: r.Grade})
			hi = append(hi, core.Run{Lo: mid, Hi: r.Hi, Grade: r.Grade})
		}
	}
	return [][]core.Run{runs, lo, hi}
}

// sameStats compares the grade counts and pages two operators report.
func sameStats(t *testing.T, what string, got, want ScanStats) {
	t.Helper()
	if got.Qualifying != want.Qualifying || got.Disqualifying != want.Disqualifying || got.Ambivalent != want.Ambivalent ||
		got.PagesRead != want.PagesRead || got.PagesPruned != want.PagesPruned || got.Batches != want.Batches {
		t.Errorf("%s: stats %+v, want %+v", what, got, want)
	}
}

// TestBoundOperatorsEqualSelfBound: an operator handed the binding a plan
// makes (BindSMAGAggr, BindGAggr) and one that binds in its own Open give
// bit-identical Partials and the same stats over the same runs — the whole
// run list and each half of it, as two workers sharing the binding get
// them — and a binding opened again gives them again. Covered: Query 1's
// eight specs over four (RF, LS) groups with one ambivalent bucket; every
// aggregate over every element type, AVG with its count SMA, under SMAs
// grouped as the query and finer than it (several SMA-files rolling into
// one target, and into the one group of a global aggregate); and hash
// aggregation above an SMA scan.
func TestBoundOperatorsEqualSelfBound(t *testing.T) {
	check := func(what string, open func(bound bool, runs []core.Run) (map[core.GroupKey]*Partial, ScanStats, func()), runs []core.Run) {
		t.Helper()
		for i, part := range halves(runs) {
			what := fmt.Sprintf("%s part %d", what, i)
			want, wantStats, closeWant := open(false, part)
			got, gotStats, closeGot := open(true, part)
			samePartials(t, what, got, want)
			sameStats(t, what, gotStats, wantStats)
			closeGot()
			again, againStats, closeAgain := open(true, part)
			samePartials(t, what+" (binding opened again)", again, want)
			sameStats(t, what+" (binding opened again)", againStats, wantStats)
			closeAgain()
			closeWant()
		}
	}
	smaGAggr := func(t *testing.T, mk func() *SMAGAggr) func(bool, []core.Run) (map[core.GroupKey]*Partial, ScanStats, func()) {
		proto := mk()
		b, err := BindSMAGAggr(proto.H, proto.Pred, proto.Specs, proto.GroupBy, proto.AggSMAs, proto.CountSMA)
		if err != nil {
			t.Fatal(err)
		}
		return func(bound bool, runs []core.Run) (map[core.GroupKey]*Partial, ScanStats, func()) {
			op := mk()
			op.Runs, op.KeepPartials = runs, true
			if bound {
				op.Bound = b
			}
			if err := op.Open(); err != nil {
				t.Fatal(err)
			}
			return op.Partials(), op.Stats(), func() { op.Close() }
		}
	}

	t.Run("query1", func(t *testing.T) {
		op, _ := q1Fixture(t)
		// Including the cutoff date splits its bucket: one ambivalent bucket.
		p := pred.NewAtom("D", pred.Le, q1Cutoff)
		mk := func() *SMAGAggr {
			return NewSMAGAggr(op.H, p, op.Specs, op.GroupBy, op.Grader, op.AggSMAs, op.CountSMA)
		}
		runs := op.Grader.RunsFor(p, op.H.NumBuckets())
		if c := core.CountGrades(runs); c.Ambivalent != 1 || c.Qualifying == 0 {
			t.Fatalf("grades %+v, want qualifying buckets and one ambivalent", c)
		}
		check("query 1", smaGAggr(t, mk), runs)
	})

	rng := rand.New(rand.NewSource(44))
	h := loadFoldRelation(t, rng, 330)
	for _, smaGroupBy := range [][]string{{"G1", "G2"}, {"G1"}} {
		fx := buildFoldSMAs(t, h, smaGroupBy)
		specs, aggSMAs := foldSpecs(fx)
		grader := core.NewGrader(fx["fmin"], fx["fmax"])
		p := pred.NewAtom("F", pred.Le, float64(rng.Intn(330*10)))
		if err := p.Bind(h.Schema()); err != nil {
			t.Fatal(err)
		}
		runs := grader.RunsFor(p, h.NumBuckets())
		for _, groupBy := range [][]string{smaGroupBy, {"G1"}, nil} {
			what := fmt.Sprintf("SMAs by %v, query by %v", smaGroupBy, groupBy)
			mk := func() *SMAGAggr { return NewSMAGAggr(h, p, specs, groupBy, grader, aggSMAs, fx["count"]) }
			check("SMA_GAggr, "+what, smaGAggr(t, mk), runs)

			b, err := BindGAggr(h.Schema(), p, specs, groupBy)
			if err != nil {
				t.Fatal(err)
			}
			check("SMA_Scan+GAggr, "+what, func(bound bool, runs []core.Run) (map[core.GroupKey]*Partial, ScanStats, func()) {
				scan := NewBatchSMAScan(h, p, grader, ExecOptions{})
				scan.Runs = runs
				ga := NewBatchGAggr(scan, h.Schema(), specs, groupBy)
				ga.KeepPartials = true
				if bound {
					scan.Bound, ga.Bound = b, b
				}
				if err := ga.Open(); err != nil {
					t.Fatal(err)
				}
				return ga.Partials(), scan.Stats(), func() { ga.Close() }
			}, runs)
		}
	}
}
