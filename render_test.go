package sma

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sma/internal/engine"
)

// renderCases are the values the renderer's differential test covers: ±0,
// each power of ten from 1e-5 to 1e17 with its neighbouring floats, halves
// of the fourth decimal (exact ones, such as k + m/32 with m odd, and
// inexact ones, such as 2.00005), carries into the next decade, subnormals,
// the edges of the kernel's range, ±Inf and NaN, each also negated.
func renderCases() []float64 {
	xs := []float64{0, 2.00005, 9.99995, 99999.99995, 0.99995, 0.00015, 0.00025, 0.000099995, 0.00099995,
		9999999999999.99995, 99999999999999.99, 1.23456789e13, 123.456789, 4.9e-324, 2.2250738585072014e-308,
		2.225073858507201e-308, math.SmallestNonzeroFloat64, math.MaxFloat64, 1 << 62, 1 << 63, 1e19,
		math.Inf(1), math.NaN()}
	for _, edge := range []float64{0x1p-12, 0x1p-11, 0x1p49, 0x1p48} { // where the kernel's range ends
		xs = append(xs, edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
	}
	for k := -5; k <= 17; k++ {
		p := math.Pow(10, float64(k))
		xs = append(xs, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)),
			p-5e-5, p+5e-5, p-0.5e-4*p, p*(1-1e-16))
	}
	for _, whole := range []float64{0, 1, 2, 9, 99, 12345, 99999, 1e9 + 7, 1 << 40} {
		for m := 1; m < 64; m += 2 {
			xs = append(xs, whole+float64(m)/32, whole+float64(m)/64)
		}
		for f := 0; f < 10; f++ {
			xs = append(xs, whole+float64(f)/1e4+5e-5, whole+float64(f)/1e4+4.9999e-5)
		}
	}
	out := make([]float64, 0, 2*len(xs))
	for _, x := range xs {
		out = append(out, x, -x)
	}
	return out
}

// TestRenderAggregateMatchesSprintf compares the kernel with fmt's "%.4f"
// byte for byte, over the edge cases above and random values across the
// kernel's range and beyond it.
func TestRenderAggregateMatchesSprintf(t *testing.T) {
	xs := renderCases()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200000; i++ {
		xs = append(xs, math.Pow(10, rng.Float64()*24-7)*(rng.Float64()-0.5))
		xs = append(xs, float64(rng.Intn(1e9))/float64(1+rng.Intn(1e4)))
	}
	for _, x := range xs {
		if got, want := string(appendAggregate(nil, x)), fmt.Sprintf("%.4f", x); got != want {
			t.Errorf("appendAggregate(%v [%#x]) = %q, fmt says %q", x, math.Float64bits(x), got, want)
		}
	}
}

// TestRenderAllocs holds the kernel to no allocation given room, and a
// rendered row to two: its []string and the one string its cells share.
func TestRenderAllocs(t *testing.T) {
	var buf [64]byte
	for _, x := range []float64{1234567.891, -0.5, 0.00012, 99999.99995, 1e20} {
		if n := testing.AllocsPerRun(100, func() { _ = appendAggregate(buf[:0], x) }); n != 0 {
			t.Errorf("appendAggregate(%v): %v allocations, want none", x, n)
		}
	}
	r := &Rows{
		cols: []engine.ColInfo{{Name: "F"}, {Name: "N"}, {Name: "S", IsAgg: true}, {Name: "A", IsAgg: true}, {Name: "C", IsAgg: true}},
		vals: []any{"A", int64(7), 56586554400.7299, 25.5, float64(1478)},
	}
	if got, err := r.RowStrings(); err != nil || strings.Join(got, "|") != "A|7|56586554400.7299|25.5000|1478" {
		t.Fatalf("RowStrings = %q, %v", got, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = r.RowStrings() }); n > 2 {
		t.Errorf("RowStrings: %v allocations, want 2", n)
	}
}

// FuzzRenderAggregate compares the kernel with fmt's "%.4f" over raw
// float64 bits: every value, finite or not, renders to the same bytes.
func FuzzRenderAggregate(f *testing.F) {
	for _, x := range renderCases() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if got, want := string(appendAggregate(nil, x)), fmt.Sprintf("%.4f", x); got != want {
			t.Errorf("appendAggregate(%v [%#x]) = %q, fmt says %q", x, bits, got, want)
		}
	})
}

// BenchmarkRenderAggregate times one Query 1 aggregate cell through the
// kernel and through fmt.
func BenchmarkRenderAggregate(b *testing.B) {
	const x = 56586554400.7299
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			renderSink = appendAggregate(renderSink[:0], x)
		}
	})
	b.Run("sprintf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			renderSink = fmt.Appendf(renderSink[:0], "%.4f", x)
		}
	})
}

var renderSink []byte
