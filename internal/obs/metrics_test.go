package obs

import (
	"testing"
	"time"
)

// TestHistogramCumulative checks bucket accounting.
func TestHistogramCumulative(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	if count != 5 || sum != 106 {
		t.Fatalf("count=%d sum=%v, want 5, 106", count, sum)
	}
	// cum is per-bound cumulative: <=1: 2 (0.5, 1), <=2: 3, <=4: 4, +Inf: 5.
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d]=%d, want %d (cum=%v)", i, cum[i], w, cum)
		}
	}
}

// TestNilMetricHandles verifies the disabled path: nil handles are inert.
func TestNilMetricHandles(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g.Set(3)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 {
		t.Fatal("nil histogram has observations")
	}
	cv.With("x").Inc()
	hv.With("x").Observe(1)
}

// TestRegistryPanics documents that registration errors are programmer
// errors.
func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "x")
	mustPanic("dup", func() { r.Counter("ok_total", "x") })
	mustPanic("bad name", func() { r.Counter("bad-name", "x") })
	mustPanic("bad label", func() { r.CounterVec("ok2_total", "x", "bad-label") })
	mustPanic("no help", func() { r.Counter("ok3_total", "") })
	mustPanic("bad bounds", func() { r.Histogram("ok4", "x", []float64{2, 1}) })
	mustPanic("label arity", func() { r.CounterVec("ok5_total", "x", "a").With("1", "2") })
}
