// Command bench is the repository's performance ledger: five workloads over
// the public sma and sma/client packages for end-to-end numbers, and a
// traced walk that times the exported calls of each internal package for
// per-layer numbers. README.md documents workloads, metrics and caveats.
//
// Two ways to run it:
//
//	bash bench/run.sh -seed 1998 -out bench/out/result.json   # the whole ledger
//	bash bench/run.sh --workload q1_sma --seed 7 --seconds 10 --trace 0   # one run, one JSON line
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples gives the number of observations behind a metric where that
	// is not obvious; Error holds the first failure.
	Samples map[string]int `json:"samples,omitempty"`
	Error   string         `json:"error,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

const (
	workRoot        = ".bench_build/work" // databases live here, inside the checkout, for the length of a run
	windowSeconds   = 5                   // an end-to-end run is split into rounds with windows about this long
	minSliceSamples = 30                  // a slice of a window holds at least this many statements
	maxSlices       = 25                  // per window
)

// options are the knobs of a run.
type options struct {
	seed     int64
	seconds  float64 // timed windows of an end-to-end run, together
	warmup   float64 // untimed warm-up before each
	rounds   int     // rounds of an end-to-end run; seconds is split among them
	sc       scale
	work     string // directory for databases, emptied after the run
	spans    string // file the traced walk writes its spans to ("" = none)
	profiles profiles
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five)")
		seed         = flag.Int64("seed", 1998, "seed for data generation and statement parameters")
		seconds      = flag.Float64("seconds", 10, "length of the timed window of each workload")
		trace        = flag.Int("trace", -1, "0: end-to-end run, 1: traced layer walk; prints one JSON line (needs -workload)")
		repeat       = flag.Int("repeat", 1, "run the whole set N times and check the spread of every end-to-end metric")
		out          = flag.String("out", "bench/out/result.json", "result file of a ledger run; spans.jsonl is written next to it")
		short        = flag.Bool("short", false, "tiny datasets (sf 0.002), for smoke runs")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile of the timed window")
		memprofile   = flag.String("memprofile", "", "write an allocation profile of the timed window")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workRoot, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	opts := options{seed: *seed, seconds: *seconds, warmup: 2, rounds: max(int(*seconds/windowSeconds+0.5), 1), sc: fullScale, work: work,
		profiles: profiles{cpu: *cpuprofile, mem: *memprofile}}
	if *short {
		opts.sc = shortScale
	}
	if *cpuprofile != "" || *memprofile != "" {
		opts.rounds = 1 // one window, one profile
	}

	if *trace >= 0 {
		// Driver mode: one workload, one kind of run, one JSON line.
		w := findWorkload(*workloadName)
		if w == nil {
			return fmt.Errorf("-trace needs -workload, one of %v", workloadNames())
		}
		if *trace == 1 {
			opts.spans = filepath.Join(filepath.Dir(*out), "spans.jsonl")
		}
		res, err := runWorkload(w, opts, *trace == 1)
		if err != nil {
			return err
		}
		return printDriverLine(res, *trace == 1)
	}

	set := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q, want one of %v", *workloadName, workloadNames())
		}
		set = []*workload{w}
	}
	opts.spans = filepath.Join(filepath.Dir(*out), "spans.jsonl")
	return runLedger(set, opts, *repeat, *out)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runWorkload measures a workload end to end with tracing off, or walks its
// layers.
//
// The end-to-end run is o.rounds rounds of set-up, warm-up, timed window and
// correctness gate, each in a fresh directory. Rounds spread the measurement
// over more wall time than one long window would, so a stretch in which the
// sandbox is busy with something else (they last seconds) cannot cover all of
// it; and they give setup_s one sample each.
func runWorkload(w *workload, o options, traced bool) (*result, error) {
	res := &result{Workload: w.name, Seed: o.seed, Traced: traced,
		Metrics: map[string]metric{}, Samples: map[string]int{}}
	if traced {
		e, err := newEnv(w, o.seed, o.sc, o.work, 0)
		if err != nil {
			return nil, err
		}
		defer e.discard()
		if err := w.prepare(e); err != nil {
			return nil, err
		}
		return res, walkLayers(e, o, res)
	}
	var setups []float64
	var wins []*windowResult
	for r := 0; r < o.rounds; r++ {
		win, setup, err := runRound(w, o, r, res)
		if err != nil {
			return nil, err
		}
		setups, wins = append(setups, setup), append(wins, win)
	}
	res.set("setup_s", median(setups), "s")
	res.Samples["setup_s"] = len(setups)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	endToEnd(wins, res)
	return res, nil
}

// runRound is one round of an end-to-end run; it returns the timed window
// and how long the set-up took.
func runRound(w *workload, o options, round int, res *result) (*windowResult, float64, error) {
	start := time.Now()
	e, err := newEnv(w, o.seed, o.sc, o.work, round)
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(start).Seconds()
	defer e.discard()
	if err := w.prepare(e); err != nil {
		return nil, 0, err
	}
	runWindow(e, time.Duration(o.warmup*float64(time.Second))) // caches fill, lazy set-up finishes
	stop, err := o.profiles.start()
	if err != nil {
		return nil, 0, err
	}
	win := runWindow(e, time.Duration(o.seconds/float64(o.rounds)*float64(time.Second)))
	if err := stop(); err != nil {
		return nil, 0, err
	}
	res.Attempted += win.attempted
	res.Failed += win.failed
	if win.firstErr != nil && res.Error == "" {
		res.Error = win.firstErr.Error()
	}
	if e.post != nil {
		if err := e.post(); err != nil {
			res.Failed++
			if res.Error == "" {
				res.Error = err.Error()
			}
		}
	}
	return win, setup, nil
}

// endToEnd derives the end-to-end metrics from the rounds' windows.
//
// The sandbox stalls: a few times a second, for ~150 ms, memory-bound code
// runs 1.6 times slower (an ALU spin loop does not notice — it is contention
// from outside the process), and how often varies from minute to minute. A
// statistic over the whole window therefore measures the neighbours. So every
// window is cut into equal time slices, each latency percentile and the
// throughput are taken per slice, and the quietest slice's value is reported
// (the lowest of the slices' latency percentiles, the highest of their
// rates): what the program does when it has the machine, which is where a
// change to the program shows. The noise is one-sided — nothing makes a slice
// faster than the program is — so the best slice repeats far better than the
// median one. Both sides of a comparison are measured the same way.
func endToEnd(wins []*windowResult, res *result) {
	var stretches [][]sample
	var samples []sample
	var rates []float64
	var allocKB float64
	failed, attempted := 0, 0
	for _, win := range wins {
		k := min(max(len(win.samples)/minSliceSamples, 1), maxSlices)
		for _, sl := range win.slices(k) {
			stretches = append(stretches, sl)
			rates = append(rates, float64(len(sl))/(win.elapsed.Seconds()/float64(k)))
		}
		samples = append(samples, win.samples...)
		allocKB += win.allocKB
		failed, attempted = failed+win.failed, attempted+win.attempted
	}
	n := len(samples)
	quiet := func(keep func(sample) bool, p float64) float64 {
		var v []float64
		for _, sl := range stretches {
			if lat := latencies(sl, keep); len(lat) >= minSliceSamples/3 {
				v = append(v, percentile(lat, p))
			}
		}
		if len(v) == 0 { // too few statements of this class to slice
			return percentile(latencies(samples, keep), p)
		}
		return slices.Min(v)
	}
	res.set("stmt_p50_ms", quiet(anySample, 50), "ms")
	res.set("stmt_p95_ms", quiet(anySample, 95), "ms")
	res.set("stmts_per_s", slices.Max(rates), "1/s")
	res.set("alloc_kb_per_stmt", allocKB/float64(n), "KiB")
	res.set("fail_frac", float64(failed)/float64(max(attempted, 1)), "fraction")
	res.Samples["stmt_p50_ms"], res.Samples["stmt_p95_ms"] = n, n
	res.Samples["stmts_per_s"] = len(stretches)
	for _, class := range []struct {
		name string
		keep func(sample) bool
	}{{"read", readSample}, {"write", writeSample}} {
		lat := latencies(samples, class.keep)
		if len(lat) == 0 {
			continue
		}
		res.set(class.name+"_p50_ms", quiet(class.keep, 50), "ms")
		res.set(class.name+"_p95_ms", quiet(class.keep, 95), "ms")
		res.Samples[class.name+"_p50_ms"], res.Samples[class.name+"_p95_ms"] = len(lat), len(lat)
		// The reporting rule: the highest percentile that still has ten
		// samples beyond it, over the whole windows, stalls included.
		if p := highestPercentile(len(lat)); p > 0 {
			res.set(fmt.Sprintf("%s_tail_p%v_ms", class.name, p), percentile(lat, p), "ms")
		}
	}
}

// driverEndToEnd lists the end-to-end metrics every workload has. With the
// per-layer list in layers.go they are the names BENCHMARK.json declares;
// the driver wants exactly these and no others.
func driverEndToEnd() []string {
	var out []string
	for _, m := range endToEndMetrics {
		if m.universal {
			out = append(out, m.name)
		}
	}
	return out
}

// printDriverLine prints the single JSON object the benchmark contract asks
// for as the last line of standard output.
func printDriverLine(res *result, traced bool) error {
	names := driverEndToEnd()
	if traced {
		names = layerMetricNames()
	}
	metrics := map[string]metric{}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, n)
		}
		metrics[n] = m
	}
	if res.Error != "" {
		fmt.Fprintln(os.Stderr, "bench:", res.Error)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("outputs were not correct")
	}
	return nil
}

// sortedMetricNames lists a result's metrics in a stable order.
func sortedMetricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// profiles scopes -cpuprofile/-memprofile to the timed window.
type profiles struct{ cpu, mem string }

func (p profiles) start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.cpu != "" {
		if cpuFile, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if p.mem == "" {
			return nil
		}
		f, err := os.Create(p.mem)
		if err != nil {
			return err
		}
		runtime.GC() // settle the allocation statistics
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
