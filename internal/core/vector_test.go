package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestVectorTypes(t *testing.T) {
	cases := []struct {
		typ   ElemType
		width int
		vals  []float64
		back  []float64 // after narrowing
	}{
		{EInt32, 4, []float64{1, -2, 2.9}, []float64{1, -2, 2}},
		{EInt64, 8, []float64{1 << 40, -5}, []float64{1 << 40, -5}},
		{EFloat64, 8, []float64{1.5, -0.25}, []float64{1.5, -0.25}},
	}
	for _, tc := range cases {
		v := NewVector(tc.typ)
		if v.Type() != tc.typ || tc.typ.Width() != tc.width {
			t.Errorf("%s: type/width wrong", tc.typ)
		}
		for _, x := range tc.vals {
			v.append(x)
		}
		if v.Len() != len(tc.vals) {
			t.Fatalf("%s: Len = %d", tc.typ, v.Len())
		}
		for i, want := range tc.back {
			if got := v.Get(i); got != want {
				t.Errorf("%s[%d] = %g, want %g", tc.typ, i, got, want)
			}
		}
		if v.SizeBytes() != int64(len(tc.vals)*tc.width) {
			t.Errorf("%s: SizeBytes = %d", tc.typ, v.SizeBytes())
		}
		v.set(0, 7)
		if v.Get(0) != 7 {
			t.Errorf("%s: set failed", tc.typ)
		}
	}
}

// TestVectorEncodeDecode round-trips each element type.
func TestVectorEncodeDecode(t *testing.T) {
	for _, typ := range []ElemType{EInt32, EInt64, EFloat64} {
		v := NewVector(typ)
		rng := rand.New(rand.NewSource(int64(typ)))
		for i := 0; i < 1000; i++ {
			v.append(float64(rng.Intn(100000) - 50000))
		}
		buf := v.encode(nil)
		back, n, err := decodeVector(typ, v.Len(), buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Errorf("%s: consumed %d of %d", typ, n, len(buf))
		}
		for i := 0; i < v.Len(); i++ {
			if back.Get(i) != v.Get(i) {
				t.Fatalf("%s[%d]: %g != %g", typ, i, back.Get(i), v.Get(i))
			}
		}
		if _, _, err := decodeVector(typ, 2000, buf); err == nil {
			t.Errorf("%s: truncated decode should fail", typ)
		}
	}
}

func TestBitmap(t *testing.T) {
	b := NewBitmap()
	pattern := []bool{true, false, true, true, false}
	for i := 0; i < 200; i++ {
		b.append(pattern[i%len(pattern)])
	}
	if b.Len() != 200 {
		t.Fatalf("Len = %d", b.Len())
	}
	count := 0
	for i := 0; i < 200; i++ {
		want := pattern[i%len(pattern)]
		if b.Get(i) != want {
			t.Fatalf("bit %d = %v", i, b.Get(i))
		}
		if want {
			count++
		}
	}
	if b.Count() != count {
		t.Errorf("Count = %d, want %d", b.Count(), count)
	}
	b.set(0, false)
	if b.Get(0) {
		t.Errorf("set(0,false) failed")
	}
	b.set(1, true)
	if !b.Get(1) {
		t.Errorf("set(1,true) failed")
	}
	if b.Get(-1) || b.Get(10_000) {
		t.Errorf("out-of-range Get should be false")
	}
}

func TestBitmapSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("set out of range should panic")
		}
	}()
	NewBitmap().set(0, true)
}

// TestQuickBitmapRoundTrip: encode/decode preserves random bit patterns of
// any length (incl. non-multiples of 64).
func TestQuickBitmapRoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		b := NewBitmap()
		for _, x := range bits {
			b.append(x)
		}
		buf := b.encode(nil)
		back, _, err := decodeBitmap(len(bits), buf)
		if err != nil {
			return false
		}
		for i, x := range bits {
			if back.Get(i) != x {
				return false
			}
		}
		return back.Count() == b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGradeStrings covers the Stringers used in diagnostics.
func TestGradeStrings(t *testing.T) {
	if Qualifies.String() != "qualifies" || Disqualifies.String() != "disqualifies" ||
		Ambivalent.String() != "ambivalent" {
		t.Errorf("grade names wrong")
	}
	if Min.String() != "min" || Count.String() != "count" {
		t.Errorf("agg names wrong")
	}
	if EInt32.String() != "i32" || EFloat64.String() != "f64" {
		t.Errorf("elem names wrong")
	}
}

// TestParseAggKind round-trips all kinds and rejects junk.
func TestParseAggKind(t *testing.T) {
	for _, k := range []AggKind{Min, Max, Sum, Count} {
		got, err := ParseAggKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %s failed", k)
		}
	}
	if _, err := ParseAggKind("avg"); err == nil {
		t.Errorf("avg is not an SMA aggregate (rewritten to sum/count)")
	}
}

// TestGradeCounts checks the run list helpers and the tally: per-bucket
// grades fold into maximal runs, a gap in the buckets ends a run, and the
// counts are run-length sums.
func TestGradeCounts(t *testing.T) {
	runs := RunsOf(nil, []Grade{Qualifies, Ambivalent, Ambivalent, Disqualifies, Ambivalent})
	want := []Run{{0, 1, Qualifies}, {1, 3, Ambivalent}, {3, 4, Disqualifies}, {4, 5, Ambivalent}}
	if !slices.Equal(runs, want) {
		t.Errorf("RunsOf = %v, want %v", runs, want)
	}
	if got := RunsOf([]int{2, 3, 5}, []Grade{Qualifies, Qualifies, Qualifies}); !slices.Equal(got, []Run{{2, 4, Qualifies}, {5, 6, Qualifies}}) {
		t.Errorf("RunsOf over a gap = %v", got)
	}
	c := CountGrades(runs)
	if c.Qualifying != 1 || c.Disqualifying != 1 || c.Ambivalent != 3 {
		t.Errorf("counts = %+v", c)
	}
	if c.Total() != 5 || c.AmbivalentFrac() != 0.6 {
		t.Errorf("derived = %d / %g", c.Total(), c.AmbivalentFrac())
	}
	var zero GradeCounts
	if zero.AmbivalentFrac() != 0 {
		t.Errorf("empty counts should have frac 0")
	}
}
