package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []*span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // reaches past the parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestReplayLayout(t *testing.T) {
	tr := newTracer()
	root, _ := tr.live(1, nil, "engine.query", func(*span) error { time.Sleep(2 * time.Millisecond); return nil })
	a, _ := tr.replay(1, root, "parser.parse", func(a *span) error {
		// A live child of a replayed span moves with it.
		_, err := tr.live(1, a, "inner", func(*span) error { return nil })
		return err
	})
	b := tr.placed(1, root, "exec.scan", time.Millisecond)
	inner := tr.spans[2]
	if a.Start != root.Start || b.Start != a.End || b.dur() != time.Millisecond {
		t.Errorf("replayed children are not laid out from the parent's start: root %d, a %d-%d, b %d-%d",
			root.Start, a.Start, a.End, b.Start, b.End)
	}
	if inner.Start < a.Start || inner.End > a.End {
		t.Errorf("inner span %d-%d left its replayed parent %d-%d", inner.Start, inner.End, a.Start, a.End)
	}
	if a.Counts["replayed"] != 1 || root.Counts["replayed"] != 0 {
		t.Errorf("replayed flags: root %v, child %v", root.Counts, a.Counts)
	}
	self := selfTimes(tr.spans)
	if want := root.dur() - a.dur() - b.dur(); self[root.ID] != want {
		t.Errorf("root self time %v, want %v", self[root.ID], want)
	}
}

// streamHash sets a workload up at the smoke scale and hashes the first
// statements of every client's stream.
func streamHash(t *testing.T, w *workload, seed int64) uint64 {
	t.Helper()
	e, err := newEnv(w, seed, shortScale, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := w.prepare(e); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, next := range e.next {
		for i := 0; i < 64; i++ {
			h.Write([]byte(next().sql))
		}
	}
	return h.Sum64()
}

func TestSameSeedSameStatements(t *testing.T) {
	t.Parallel() // beside TestSmoke: neither asserts a time
	for _, w := range workloads {
		a, b, c := streamHash(t, w, 7), streamHash(t, w, 7), streamHash(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different statement streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same statement stream", w.name)
		}
	}
}

// TestSmoke runs every workload at sf 0.002 with 200 ms windows, end to end
// and through the layer walk, and wants every named metric with a unit.
func TestSmoke(t *testing.T) {
	t.Parallel()
	o := options{seed: 42, seconds: 0.2, warmup: 0.05, rounds: 1, sc: shortScale, work: t.TempDir()}
	for _, w := range workloads {
		res, err := runWorkload(w, o, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %s", w.name, res.Correct, res.Attempted, res.Failed, res.Error)
		}
		for _, name := range driverEndToEnd() {
			checkMetric(t, w.name, res, name)
		}
		if res.Samples["stmt_p50_ms"] == 0 {
			t.Errorf("%s: no latency samples", w.name)
		}
		walked, err := runWorkload(w, o, true)
		if err != nil {
			t.Fatal(err)
		}
		if !walked.Correct {
			t.Errorf("%s: layer walk failed: %s", w.name, walked.Error)
		}
		for _, name := range layerMetricNames() {
			checkMetric(t, w.name, walked, name)
		}
		if m := walked.Metrics["planner.strategy_match"].Value; m != 1 {
			t.Errorf("%s: planner.strategy_match = %v", w.name, m)
		}
	}
}

func checkMetric(t *testing.T, workload string, res *result, name string) {
	t.Helper()
	m, ok := res.Metrics[name]
	switch {
	case !ok:
		t.Errorf("%s: metric %s was not emitted", workload, name)
	case m.Unit == "":
		t.Errorf("%s: metric %s has no unit", workload, name)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("%s: metric %s = %v", workload, name, m.Value)
	}
}

// TestBenchmarkJSON keeps the contract file at the repository root in step
// with the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	type declared struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, file.Workloads[i].Name, w.name)
		}
	}
	var universal []e2eMetric
	for _, m := range endToEndMetrics {
		if m.universal {
			universal = append(universal, m)
		}
	}
	if len(file.EndToEnd) != len(universal) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(file.EndToEnd), len(universal))
	}
	for i, m := range universal {
		if d := file.EndToEnd[i]; d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, d, m)
		}
	}
	if len(file.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(file.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if d := file.PerLayer[i]; d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %s %s", i, d, m.name, m.unit)
		}
	}
}
