package core_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// TestFoldRangeMatchesEntryAtATime checks the range kernels against the
// obvious loop over ValueAt — bit for bit, since the kernels promise the
// same ascending addition order — for every element type and aggregate
// kind, presence densities from empty to full, and ranges that start and
// end inside, on and past presence-word edges. Runs [0, hi) of a sum or a
// count from the identity take whole presence words from the level-2
// summary; they are checked across growing files and across files that
// appends and bucket refolds change after their summary settled.
func TestFoldRangeMatchesEntryAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 300
	for _, elem := range []core.ElemType{core.EInt32, core.EInt64, core.EFloat64} {
		for _, density := range []float64{0, 0.03, 0.5, 0.97, 1} {
			gf := &core.GroupFile{Vec: core.NewVector(elem), Present: core.NewBitmap()}
			for i := 0; i < n; i++ {
				gf.AppendEntry((rng.Float64()-0.4)*1e6/3, rng.Float64() < density)
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
						checkFoldRange(t, gf, kind, lo, hi, acc, seen)
					}
				}
			}
		}
		t.Run("prefix/"+elem.String(), func(t *testing.T) { checkGrowingPrefixes(t, rng, elem) })
	}
	t.Run("prefix/maintained", checkMaintainedPrefixes)
}

// checkFoldRange compares FoldRange with the entry-at-a-time loop.
func checkFoldRange(t *testing.T, gf *core.GroupFile, kind core.AggKind, lo, hi int, acc float64, seen bool) {
	t.Helper()
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
		t.Fatalf("%s %q %s [%d,%d) from (%v,%v): got (%v,%v), want (%v,%v)",
			gf.Vec.Type(), gf.Key, kind, lo, hi, acc, seen, got, gotSeen, want, wantSeen)
	}
}

// checkPrefixes checks every run [0, hi) of a sum and a count from the
// identity, hi up to past the end of the file.
func checkPrefixes(t *testing.T, gf *core.GroupFile) {
	t.Helper()
	for hi := 0; hi <= gf.Present.Len()+65; hi++ {
		checkFoldRange(t, gf, core.Sum, 0, hi, 0, false)
		checkFoldRange(t, gf, core.Count, 0, hi, 0, false)
	}
}

// checkGrowingPrefixes grows a file of elem entries to more than six
// presence words, checking every prefix as it goes, so the summary of the
// partial last word settles and then goes stale with the next append.
// Int64 entries lie above 2^53, where float sums round, floats include -0,
// and NaN arrives in the last word only, so it does not hide the rest.
func checkGrowingPrefixes(t *testing.T, rng *rand.Rand, elem core.ElemType) {
	const n = 6*64 + 17
	gf := &core.GroupFile{Vec: core.NewVector(elem), Present: core.NewBitmap()}
	for i := 0; i < n; i++ {
		v := (rng.Float64() - 0.4) * 1e6 / 3
		switch r := rng.Intn(8); {
		case r == 0:
			v = math.Copysign(0, -1)
		case r < 4 && elem == core.EInt64:
			v = float64(1<<53 + 2*rng.Int63n(1<<40))
		case r == 4 && elem == core.EFloat64 && i >= n-17:
			v = math.NaN()
		}
		gf.AppendEntry(v, rng.Intn(6) != 0)
		if i%29 == 0 || i == n-1 {
			checkPrefixes(t, gf)
		}
	}
}

// checkMaintainedPrefixes folds prefixes of maintained SMA-files of all
// three element types — count(*) (i32), sum(V) (f64) and max(N) (i64, N
// above 2^53), the first two grouped — while appends and bucket refolds
// change them under a settled summary. A refold that leaves a group absent
// from its bucket changes that group's file through the clear alone.
func checkMaintainedPrefixes(t *testing.T) {
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "K", Type: tuple.TChar, Len: 1},
		{Name: "N", Type: tuple.TInt64},
		{Name: "V", Type: tuple.TFloat64},
		{Name: "PAD", Type: tuple.TChar, Len: testutil.RecordSize(8) - 21}, // 8 tuples per page
	})
	h := testutil.NewHeap(t, schema, 1, 64)
	rng := rand.New(rand.NewSource(12))
	tp := tuple.NewTuple(schema)
	row := func(k string) tuple.Tuple {
		tp.SetChar(0, k)
		tp.SetInt64(1, 1<<53+2*rng.Int63n(1<<40))
		tp.SetFloat64(2, (rng.Float64()-0.4)*1e6/3)
		if rng.Intn(50) == 0 {
			tp.SetFloat64(2, math.Copysign(0, -1))
		}
		return tp
	}
	for i := 0; i < 5*64*8+80; i++ { // slot 0 of every page holds the one "b"
		k := "a"
		if i%8 == 0 {
			k = "b"
		}
		if _, err := h.Append(row(k)); err != nil {
			t.Fatal(err)
		}
	}
	smas, err := core.BuildMany(h, []core.Def{
		core.NewDef("cnt", "T", core.Count, nil, "K"),
		core.NewDef("v", "T", core.Sum, expr.NewCol("V"), "K"),
		core.NewDef("n", "T", core.Max, expr.NewCol("N")),
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for _, s := range smas {
			if err := s.Verify(h); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			_ = s.Groups(func(gf *core.GroupFile) error {
				checkPrefixes(t, gf)
				return nil
			})
		}
	}
	refold := func(rid storage.RID, k string, del bool) {
		t.Helper()
		var err error
		if del {
			err = h.Delete(rid)
		} else {
			err = h.Update(rid, row(k))
		}
		if err == nil {
			err = core.Refold(h, smas, []int{h.BucketOf(rid.Page)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	check("after build")
	for i := 0; i < 13; i++ { // fills the last page, then opens a bucket
		k := []string{"a", "b", "c"}[rng.Intn(3)]
		rid, err := h.Append(row(k))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range smas {
			if err := s.OnAppend(h, tp, rid); err != nil {
				t.Fatal(err)
			}
		}
		check("after append")
	}
	refold(storage.RID{Page: 70, Slot: 3}, "a", false)
	check("after a refold that changes values")
	refold(storage.RID{Page: 130, Slot: 0}, "a", false)
	check("after a refold that leaves group b absent")
	refold(storage.RID{Page: 200, Slot: 0}, "", true)
	check("after a delete that leaves group b absent")
}

// TestSMAFilesStayInKeyOrder: groups registered in any order — by bulkload,
// by appends, by a bucket recompute, by a load from disk — leave the ordered
// SMA-files sorted by key and in step with the group index (Verify asserts
// the latter).
func TestSMAFilesStayInKeyOrder(t *testing.T) {
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "K", Type: tuple.TInt32},
		{Name: "PAD", Type: tuple.TChar, Len: testutil.RecordSize(8) - 4}, // 8 tuples per page
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
