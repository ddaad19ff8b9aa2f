package obs_test

import (
	"strings"
	"testing"
	"time"

	"sma/internal/obs"
	"sma/internal/testutil"
)

// TestExpositionRoundTrip renders a registry exercising every metric
// kind and validates it with the strict parser.
func TestExpositionRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("t_requests_total", "Requests served.")
	c.Add(3)
	cv := r.CounterVec("t_queries_total", "Queries by strategy.", "strategy")
	cv.With("SMA_GAggr").Add(2)
	cv.With("FullScan+GAggr").Inc()
	g := r.Gauge("t_sessions", "Active sessions.")
	g.Set(4)
	r.GaugeFunc("t_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.CounterFunc("t_pool_hits_total", "Pool hits.", func() float64 { return 99 })
	h := r.Histogram("t_read_seconds", "Read latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)
	hv := r.HistogramVec("t_route_seconds", "Per-route latency.", []float64{0.01, 0.1}, "route")
	hv.With("/query").ObserveDuration(20 * time.Millisecond)
	// A label value needing escaping.
	cv.With("weird\"strategy\\with\nnewline").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	if err := testutil.ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# HELP t_requests_total Requests served.",
		"# TYPE t_requests_total counter",
		"t_requests_total 3",
		`t_queries_total{strategy="SMA_GAggr"} 2`,
		`t_queries_total{strategy="weird\"strategy\\with\nnewline"} 1`,
		"t_sessions 4",
		"t_uptime_seconds 12.5",
		"t_pool_hits_total 99",
		`t_read_seconds_bucket{le="0.001"} 1`,
		`t_read_seconds_bucket{le="+Inf"} 3`,
		"t_read_seconds_count 3",
		`t_route_seconds_bucket{route="/query",le="0.1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestObserverBasics exercises ids and the registered families.
func TestObserverBasics(t *testing.T) {
	o := obs.NewObserver(obs.Config{})
	if id := o.NextQueryID(); id != "q1" {
		t.Fatalf("first id %q", id)
	}
	if id := o.NextQueryID(); id != "q2" {
		t.Fatalf("second id %q", id)
	}
	o.Engine.Queries.With("SMA_GAggr").Inc()
	o.Engine.QuerySeconds.With("SMA_GAggr").Observe(0.01)
	o.Storage.ReadSeconds.Observe(0.001)
	o.Parallel.PartitionSkew.Observe(1.2)
	var b strings.Builder
	if err := o.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := testutil.ValidateExposition([]byte(b.String())); err != nil {
		t.Fatalf("observer registry exposition invalid: %v", err)
	}
	// Nil observer is inert.
	var nilO *obs.Observer
	if nilO.NextQueryID() != "" {
		t.Fatal("nil observer minted an id")
	}
	if nilO.Logger() == nil {
		t.Fatal("nil observer logger is nil")
	}
	nilO.Logger().Info("dropped")
}
