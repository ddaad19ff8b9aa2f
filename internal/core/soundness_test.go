package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// randSoundnessPred builds a random predicate over columns A and B.
func randSoundnessPred(rng *rand.Rand, depth int) pred.Predicate {
	if depth == 0 || rng.Intn(3) == 0 {
		col := []string{"A", "B"}[rng.Intn(2)]
		op := []pred.CmpOp{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge}[rng.Intn(6)]
		if rng.Intn(6) == 0 {
			other := "B"
			if col == "B" {
				other = "A"
			}
			return pred.NewColAtom(col, op, other)
		}
		return pred.NewAtom(col, op, float64(rng.Intn(120)-10))
	}
	a := randSoundnessPred(rng, depth-1)
	b := randSoundnessPred(rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return pred.NewAnd(a, b)
	case 1:
		return pred.NewOr(a, b)
	default:
		return pred.NewNot(a)
	}
}

// TestQuickGradeSoundness is the fundamental safety property of §3.1: for
// any random data and predicate, a Qualifies grade implies every tuple in
// the bucket satisfies the predicate, and Disqualifies implies none does.
// The grader here has min/max SMAs on both columns plus a per-value count
// SMA on A, so all three §3.1 rule families are exercised.
func TestQuickGradeSoundness(t *testing.T) {
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "A", Type: tuple.TFloat64},
		{Name: "B", Type: tuple.TFloat64},
		{Name: "PAD", Type: tuple.TChar, Len: 239}, // 16 tuples per page
	})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := testutil.NewHeap(t, schema, 1, 64)
		tp := tuple.NewTuple(schema)
		n := 200 + rng.Intn(200)
		rows := make([][2]float64, n)
		for i := range rows {
			// Mix clustered and noisy values so all grades occur.
			rows[i] = [2]float64{
				float64(i/10) + float64(rng.Intn(5)),
				float64(rng.Intn(100)),
			}
			tp.SetFloat64(0, rows[i][0])
			tp.SetFloat64(1, rows[i][1])
			if _, err := h.Append(tp); err != nil {
				return false
			}
		}
		minA, err := core.Build(h, core.NewDef("mna", "T", core.Min, expr.NewCol("A")))
		if err != nil {
			return false
		}
		maxA, err := core.Build(h, core.NewDef("mxa", "T", core.Max, expr.NewCol("A")))
		if err != nil {
			return false
		}
		minB, err := core.Build(h, core.NewDef("mnb", "T", core.Min, expr.NewCol("B")))
		if err != nil {
			return false
		}
		maxB, err := core.Build(h, core.NewDef("mxb", "T", core.Max, expr.NewCol("B")))
		if err != nil {
			return false
		}
		cntA, err := core.Build(h, core.NewDef("cta", "T", core.Count, nil, "A"))
		if err != nil {
			return false
		}
		g := core.NewGrader(minA, maxA, minB, maxB, cntA)

		for trial := 0; trial < 8; trial++ {
			p := randSoundnessPred(rng, 2)
			if err := p.Bind(schema); err != nil {
				return false
			}
			for b := 0; b < h.NumBuckets(); b++ {
				grade := g.Grade(b, p)
				sound := true
				err := testutil.BucketRecords(h, b, func(t tuple.Tuple, _ storage.RID) error {
					sat := testutil.EvalPred(p, t)
					if grade == core.Qualifies && !sat {
						sound = false
					}
					if grade == core.Disqualifies && sat {
						sound = false
					}
					return nil
				})
				if err != nil || !sound {
					t.Logf("seed %d trial %d bucket %d: grade %s unsound for %s",
						seed, trial, b, grade, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
