package obs

import "math"

// Gauge is a settable instantaneous value.
type Gauge struct{ s *series }

// Set stores v. Safe on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.gaugeBits.Store(math.Float64bits(v))
}

// Value returns the stored value. Safe on a nil gauge (returns 0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.s.gaugeBits.Load())
}

// Gauge registers a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	return &Gauge{s: f.get()}
}

// Count returns the total number of observations. Safe on a nil
// histogram (returns 0).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
