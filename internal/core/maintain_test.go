package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// allDefs returns one definition of each aggregate kind, grouped and
// ungrouped, over a (A float, G char) schema.
func allDefs() []core.Def {
	return []core.Def{
		core.NewDef("mn", "T", core.Min, expr.NewCol("A")),
		core.NewDef("mx", "T", core.Max, expr.NewCol("A")),
		core.NewDef("sm", "T", core.Sum, expr.NewCol("A")),
		core.NewDef("ct", "T", core.Count, nil),
		core.NewDef("gmn", "T", core.Min, expr.NewCol("A"), "G"),
		core.NewDef("gmx", "T", core.Max, expr.NewCol("A"), "G"),
		core.NewDef("gsm", "T", core.Sum, expr.NewCol("A"), "G"),
		core.NewDef("gct", "T", core.Count, nil, "G"),
	}
}

func groupedSchema(t testing.TB) *tuple.Schema {
	t.Helper()
	return tuple.MustSchema([]tuple.Column{
		{Name: "A", Type: tuple.TFloat64},
		{Name: "G", Type: tuple.TChar, Len: 1},
	})
}

func appendRow(t testing.TB, h *storage.HeapFile, smas []*core.SMA, a float64, g string) storage.RID {
	t.Helper()
	tp := tuple.NewTuple(h.Schema())
	tp.SetFloat64(0, a)
	tp.SetChar(1, g)
	rid, err := h.Append(tp)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	for _, s := range smas {
		if err := s.OnAppend(h, tp, rid); err != nil {
			t.Fatalf("OnAppend(%s): %v", s.Def.Name, err)
		}
	}
	return rid
}

func verifyAll(t *testing.T, h *storage.HeapFile, smas []*core.SMA, when string) {
	t.Helper()
	for _, s := range smas {
		if err := s.Verify(h); err != nil {
			t.Errorf("%s: %v", when, err)
		}
	}
}

// TestOnAppendMaintainsAllKinds appends rows one by one (crossing bucket
// boundaries and introducing new groups midway) and checks every SMA stays
// identical to a fresh bulkload.
func TestOnAppendMaintainsAllKinds(t *testing.T) {
	h := testutil.NewHeap(t, groupedSchema(t), 1, 64)
	var smas []*core.SMA
	for _, def := range allDefs() {
		s, err := core.Build(h, def) // build over empty heap
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		smas = append(smas, s)
	}
	rng := rand.New(rand.NewSource(1))
	groups := []string{"X", "Y", "Z"}
	for i := 0; i < 2000; i++ {
		g := groups[rng.Intn(3)]
		if i < 500 {
			g = "X" // groups Y, Z appear only after bucket boundaries passed
		}
		appendRow(t, h, smas, rng.Float64()*100-50, g)
	}
	verifyAll(t, h, smas, "after appends")
}

// TestQuickMaintenanceEquivalence is the central maintenance property: for
// random append/update workloads, appends folded as runs and updates
// followed by the refold of the bucket they touched produce exactly — bit
// for bit — the SMA a fresh bulkload would. The first seed is one whose
// per-row sum deltas (cur+new-old) drifted from a fresh build in the last
// bits.
func TestQuickMaintenanceEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := testutil.NewHeap(t, groupedSchema(t), 1, 64)
		var smas []*core.SMA
		for _, def := range allDefs() {
			s, err := core.Build(h, def)
			if err != nil {
				return false
			}
			smas = append(smas, s)
		}
		groups := []string{"P", "Q"}
		var rids []storage.RID
		for op := 0; op < 400; op++ {
			if len(rids) == 0 || rng.Intn(3) > 0 {
				rids = append(rids, appendRow(t, h, smas,
					rng.Float64()*200-100, groups[rng.Intn(2)]))
			} else {
				rid := rids[rng.Intn(len(rids))]
				nw, err := h.Get(rid)
				if err != nil {
					return false
				}
				nw.SetFloat64(0, rng.Float64()*200-100)
				nw.SetChar(1, groups[rng.Intn(2)])
				if err := h.Update(rid, nw); err != nil {
					return false
				}
				if err := core.Refold(h, smas, []int{h.BucketOf(rid.Page)}); err != nil {
					return false
				}
			}
		}
		for _, s := range smas {
			if err := s.Verify(h); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if !f(7605280876762340014) {
		t.Error("seed 7605280876762340014: maintained SMAs differ from a fresh build")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestRecomputeBucket checks the bucket refold directly: a change the SMAs
// never saw is picked up by refolding its bucket, and a bucket the heap
// does not have is refused.
func TestRecomputeBucket(t *testing.T) {
	h := testutil.NewHeap(t, groupedSchema(t), 1, 64)
	var smas []*core.SMA
	tpl := tuple.NewTuple(h.Schema())
	for i := 0; i < 100; i++ {
		tpl.SetFloat64(0, float64(i))
		tpl.SetChar(1, "X")
		if _, err := h.Append(tpl); err != nil {
			t.Fatal(err)
		}
	}
	for _, def := range allDefs() {
		s, err := core.Build(h, def)
		if err != nil {
			t.Fatal(err)
		}
		smas = append(smas, s)
	}
	// Change the heap behind the SMAs' back, then refold.
	tpl.SetFloat64(0, -999)
	tpl.SetChar(1, "W")
	if err := h.Update(storage.RID{Page: 0, Slot: 0}, tpl); err != nil {
		t.Fatal(err)
	}
	if err := core.Refold(h, smas, []int{0}); err != nil {
		t.Fatalf("refold: %v", err)
	}
	verifyAll(t, h, smas, "after refold")
	if err := core.Refold(h, smas, []int{999}); err == nil {
		t.Errorf("refold of an out-of-range bucket should fail")
	}
}
