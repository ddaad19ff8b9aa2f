package core_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sma/internal/core"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// TestFoldRangeMatchesEntryAtATime checks the range kernels against the
// obvious loop over ValueAt — bit for bit, since the kernels promise the
// same ascending addition order — for every element type and aggregate
// kind, presence densities from empty to full, and ranges that start and
// end inside, on and past presence-word edges.
func TestFoldRangeMatchesEntryAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 300
	for _, elem := range []core.ElemType{core.EInt32, core.EInt64, core.EFloat64} {
		for _, density := range []float64{0, 0.03, 0.5, 0.97, 1} {
			gf := &core.GroupFile{Vec: core.NewVector(elem), Present: core.NewBitmap()}
			for i := 0; i < n; i++ {
				gf.Vec.Append((rng.Float64() - 0.4) * 1e6 / 3)
				gf.Present.Append(rng.Float64() < density)
			}
			for trial := 0; trial < 200; trial++ {
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n+40-lo) // may run past the end
				if trial%10 == 0 {
					lo, hi = lo&^63, (hi+63)&^63 // word-aligned
				}
				for _, kind := range []core.AggKind{core.Sum, core.Count, core.Min, core.Max} {
					for _, seen := range []bool{false, true} {
						acc := 0.0
						if seen {
							acc = (rng.Float64() - 0.5) * 1e6
						}
						want, wantSeen := acc, seen
						for b := lo; b < hi; b++ {
							v, ok := gf.ValueAt(b)
							if !ok {
								continue
							}
							switch {
							case kind == core.Min && (!wantSeen || v < want), kind == core.Max && (!wantSeen || v > want):
								want = v
							case kind == core.Sum, kind == core.Count:
								want += v
							}
							wantSeen = true
						}
						got, gotSeen := gf.FoldRange(kind, lo, hi, acc, seen)
						if math.Float64bits(got) != math.Float64bits(want) || gotSeen != wantSeen {
							t.Fatalf("%s density %v %s [%d,%d) from (%v,%v): got (%v,%v), want (%v,%v)",
								elem, density, kind, lo, hi, acc, seen, got, gotSeen, want, wantSeen)
						}
					}
				}
			}
		}
	}
}

// TestSMAFilesStayInKeyOrder: groups registered in any order — by bulkload,
// by appends, by a bucket recompute, by a load from disk — leave the ordered
// SMA-files sorted by key and in step with the group index (Verify asserts
// the latter).
func TestSMAFilesStayInKeyOrder(t *testing.T) {
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "K", Type: tuple.TInt32},
		{Name: "PAD", Type: tuple.TChar, Len: (storage.PageSize-16)/8 - 4}, // 8 tuples per page
	})
	h := testutil.NewHeap(t, schema, 1, 64)
	rng := rand.New(rand.NewSource(5))
	tp := tuple.NewTuple(schema)
	appendKey := func(k int) storage.RID {
		tp.SetInt32(0, int32(k))
		rid, err := h.Append(tp)
		if err != nil {
			t.Fatal(err)
		}
		return rid
	}
	for i := 0; i < 400; i++ {
		appendKey(rng.Intn(150))
	}
	s := build(t, h, core.NewDef("cnt", "T", core.Count, nil, "K"))

	check := func(when string, s *core.SMA) {
		t.Helper()
		keys := s.GroupKeys()
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Errorf("%s: group keys out of order: %q", when, keys)
		}
		i := 0
		_ = s.Groups(func(g *core.GroupFile) error {
			if g.Key != keys[i] || s.Group(g.Key) != g {
				t.Errorf("%s: SMA-file %d (%q) out of step with the group index", when, i, g.Key)
			}
			i++
			return nil
		})
		if i != s.NumFiles() {
			t.Errorf("%s: visited %d SMA-files of %d", when, i, s.NumFiles())
		}
		if err := s.Verify(h); err != nil {
			t.Errorf("%s: %v", when, err)
		}
	}
	check("after bulkload", s)

	for i := 0; i < 200; i++ { // new groups arrive in random key order
		k := 150 + rng.Intn(300)
		tp.SetInt32(0, int32(k))
		if err := s.OnAppend(h, tp, appendKey(k)); err != nil {
			t.Fatal(err)
		}
	}
	check("after appends", s)

	// A group the SMA has never seen, introduced by an update it learns of
	// only through the bucket refold.
	tp.SetInt32(0, -7)
	if err := h.Update(storage.RID{Page: 3, Slot: 2}, tp); err != nil {
		t.Fatal(err)
	}
	if err := core.Refold(h, []*core.SMA{s}, []int{3}); err != nil {
		t.Fatal(err)
	}
	check("after refold", s)

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(dir, s.Def, schema)
	if err != nil {
		t.Fatal(err)
	}
	check("after load", loaded)
	if got, want := loaded.NumFiles(), s.NumFiles(); got != want {
		t.Errorf("loaded %d SMA-files, saved %d", got, want)
	}
}
