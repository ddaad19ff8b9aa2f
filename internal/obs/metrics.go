// Package obs is the engine's dependency-free observability layer: a
// metrics registry with generic Prometheus text exposition, the statement
// phase clock whose rendering is the trace behind EXPLAIN ANALYZE and the
// wire trace frame, and slog-based structured logging with per-query IDs.
//
// Metrics are plain atomics behind pointers that call sites nil-check, so
// a database without an observer pays one pointer test per statement. The
// phase clock is a fixed array in the statement record, filled on every
// query without allocating; only a traced query renders it.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricNameRE is the Prometheus metric-name grammar; label names drop the
// colon (colons are reserved for recording rules).
var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families and renders them as Prometheus text
// exposition format. Registration happens once at startup; observation
// methods on the returned handles are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: a scalar series, a set of labeled
// series, or a callback-backed value sampled at render time.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", or "histogram"
	labels []string

	mu     sync.Mutex
	series map[string]*series // by joined label values
	order  []string           // registration order of series keys
	fn     func() float64     // callback-backed scalar families
}

// series is one (label-values, value) sample within a family.
type series struct {
	labelVals []string
	counter   atomic.Int64
	gaugeBits atomic.Uint64 // float64 bits for gauges
	hist      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and installs a family; registration errors are
// programmer errors, so it panics like the prometheus client does.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	if help == "" {
		panic(fmt.Sprintf("obs: metric %s registered without help text", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %s registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		series: make(map[string]*series)}
	r.families[name] = f
	return f
}

// get returns (creating on first use) the series for the given label
// values.
func (f *family) get(labelVals ...string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: append([]string(nil), labelVals...)}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing integer-valued metric.
type Counter struct{ s *series }

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotone). Safe
// on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.s.counter.Add(n)
}

// Value returns the current count. Safe on a nil counter (returns 0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.s.counter.Load()
}

// Counter registers a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	return &Counter{s: f.get()}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels)}
}

// With returns the counter for the given label values, creating it on
// first use. Safe on a nil vec (returns a nil counter).
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.get(labelVals...)}
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time — the bridge for pre-existing atomic counters (buffer
// pool stats) that must keep their own representation.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "counter", nil)
	f.fn = fn
}

// GaugeFunc registers a gauge whose value is sampled from fn at
// exposition time (uptime, pool occupancy, session counts).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.fn = fn
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in increasing order; the implicit +Inf bucket is always present.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // one per bound, plus +Inf at the end
	sumBits atomic.Uint64  // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value. Safe on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds. Safe on a nil histogram.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// snapshot returns cumulative bucket counts, the total count, and the sum.
func (h *Histogram) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	for i := range h.counts {
		count += h.counts[i].Load()
		cum[i] = count
	}
	return cum, count, math.Float64frombits(h.sumBits.Load())
}

// Histogram registers a scalar histogram with the given upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, "histogram", nil)
	s := f.get()
	s.hist = newHistogram(bounds)
	return s.hist
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers a labeled histogram family; every series shares
// the same bucket bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	newHistogram(bounds) // validate bounds once
	return &HistogramVec{f: r.register(name, help, "histogram", labels), bounds: bounds}
}

// With returns the histogram for the given label values, creating it on
// first use. Safe on a nil vec (returns a nil histogram).
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	if v == nil {
		return nil
	}
	s := v.f.get(labelVals...)
	v.f.mu.Lock()
	if s.hist == nil {
		s.hist = newHistogram(v.bounds)
	}
	h := s.hist
	v.f.mu.Unlock()
	return h
}

// DefSecondsBuckets covers query and I/O latencies from 50µs to ~30s.
func DefSecondsBuckets() []float64 {
	return []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// DefShareBuckets covers fractions in [0, 1] (ambivalent share, worker
// utilization).
func DefShareBuckets() []float64 {
	return []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}
}

// DefRatioBuckets covers ratios >= 1 (partition skew: max/mean pages).
func DefRatioBuckets() []float64 {
	return []float64{1, 1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10}
}

// DefCountBuckets covers small occupancy counts (prefetch window).
func DefCountBuckets() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
}
