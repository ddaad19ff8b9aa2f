package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sma/internal/core"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// TestOnDeleteAllKinds deletes interior, boundary and last-of-group tuples,
// refolding the bucket after each, and verifies every SMA kind stays equal
// to a fresh build.
func TestOnDeleteAllKinds(t *testing.T) {
	h := testutil.NewHeap(t, groupedSchema(t), 1, 64)
	tpl := tuple.NewTuple(h.Schema())
	var rids []storage.RID
	rows := []struct {
		a float64
		g string
	}{
		{10, "X"}, {20, "X"}, {30, "X"}, // bucket contents
		{5, "Y"}, // single tuple of group Y
	}
	for _, r := range rows {
		tpl.SetFloat64(0, r.a)
		tpl.SetChar(1, r.g)
		rid, err := h.Append(tpl)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	var smas []*core.SMA
	for _, def := range allDefs() {
		smas = append(smas, build(t, h, def))
	}
	del := func(i int) {
		t.Helper()
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
		if err := core.Refold(h, smas, []int{h.BucketOf(rids[i].Page)}); err != nil {
			t.Fatal(err)
		}
		verifyAll(t, h, smas, "after delete")
	}
	del(1) // interior of group X (20)
	del(0) // minimum of group X (10) — boundary recompute
	del(3) // last tuple of group Y — presence must flip
	del(2) // last tuple of group X in the bucket
}

// TestQuickDeleteEquivalence: random mixed append/delete workloads, every
// delete followed by the refold of its bucket, keep every SMA identical to
// a fresh bulkload.
func TestQuickDeleteEquivalence(t *testing.T) {
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
		groups := []string{"P", "Q", "R"}
		var live []storage.RID
		for op := 0; op < 300; op++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				live = append(live, appendRow(t, h, smas,
					float64(rng.Intn(100)), groups[rng.Intn(3)]))
			} else {
				i := rng.Intn(len(live))
				rid := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := h.Delete(rid); err != nil {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
