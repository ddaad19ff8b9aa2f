package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// e2eMetric is one row of the end-to-end table. bound is the share of the
// median by which the metric may spread between repeated runs of one
// commit — and so the smallest regression the ledger can resolve.
type e2eMetric struct {
	name, unit, better string
	bound              float64
	// universal metrics exist on every workload and are the ones
	// BENCHMARK.json declares; the others exist where their statement
	// class does (README.md lists which).
	universal bool
}

var endToEndMetrics = []e2eMetric{
	{"stmt_p50_ms", "ms", "lower", 0.25, true},
	{"stmts_per_s", "1/s", "higher", 0.25, true},
	{"alloc_kb_per_stmt", "KiB", "lower", 0.15, true},
	{"setup_s", "s", "lower", 0.25, true},
	// The tail cannot repeat within a tenth on this sandbox (see endToEnd),
	// so it is reported but not among the metrics BENCHMARK.json bounds.
	{"stmt_p95_ms", "ms", "lower", 0.25, false},
	{"read_p50_ms", "ms", "lower", 0.25, false},
	{"read_p95_ms", "ms", "lower", 0.25, false},
	{"write_p50_ms", "ms", "lower", 0.25, false},
	{"write_p95_ms", "ms", "lower", 0.25, false},
	{"fail_frac", "fraction", "lower", 0, false},
}

// stamp records where and on what the numbers were taken.
type stamp struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Filesystem string  `json:"filesystem"`
}

func newStamp(o options) stamp {
	st := stamp{Seed: o.seed, Seconds: o.seconds, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: "unknown", Filesystem: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if fs := filesystemOf(o.work); fs != "" {
		st.Filesystem = fs
	}
	return st
}

// filesystemOf names the filesystem type holding path, from /proc/mounts.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return ""
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return ""
	}
	best, fs := "", ""
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// ledgerFile is what -out receives.
type ledgerFile struct {
	Stamp  stamp       `json:"stamp"`
	Runs   [][]*result `json:"runs"` // per repetition: an end-to-end and a traced result per workload
	Spread []spreadRow `json:"spread,omitempty"`
}

// spreadRow is the repeat check's verdict on one metric of one workload.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"iqr_over_median"`
	Bound    float64   `json:"bound"`
	Exact    bool      `json:"exact,omitempty"`
	OK       bool      `json:"ok"`
}

// runLedger is the one command: every workload end to end with tracing off,
// then its traced layer walk; every metric printed by name with its unit;
// outputs checked. With repeat > 1 the whole set runs that many times and the
// spread of every end-to-end metric is held against its bound.
func runLedger(set []*workload, o options, repeat int, out string) error {
	file := ledgerFile{Stamp: newStamp(o)}
	fmt.Printf("# seed %d, %gs windows, %s, GOMAXPROCS %d of %d CPUs, commit %s, %s\n", o.seed, o.seconds,
		file.Stamp.GoVersion, file.Stamp.GOMAXPROCS, file.Stamp.NumCPU, file.Stamp.Commit, file.Stamp.Filesystem)
	failed := false
	for r := 0; r < repeat; r++ {
		var runs []*result
		for _, w := range set {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(w, o, traced)
				if err != nil {
					return err
				}
				printResult(res)
				runs = append(runs, res)
				failed = failed || !res.Correct
			}
		}
		file.Runs = append(file.Runs, runs)
	}
	if repeat > 1 {
		file.Spread = spreadOf(file.Runs)
		for _, row := range file.Spread {
			verdict := "ok"
			if !row.OK {
				verdict, failed = "EXCEEDED", true
			}
			fmt.Printf("repeat %-13s %-34s median %14.4f  q1 %14.4f  q3 %14.4f  iqr/median %.4f  bound %.2f  %s\n",
				row.Workload, row.Metric, row.Median, row.Q1, row.Q3, row.Spread, row.Bound, verdict)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", out)
	}
	if failed {
		return fmt.Errorf("the ledger does not hold: an output was wrong or a spread exceeded its bound")
	}
	return nil
}

func printResult(res *result) {
	kind := "end-to-end"
	if res.Traced {
		kind = "layer walk"
	}
	fmt.Printf("# %s %s: correct=%v attempted=%d failed=%d %s\n", res.Workload, kind, res.Correct, res.Attempted, res.Failed, res.Error)
	for _, n := range sortedMetricNames(res.Metrics) {
		m := res.Metrics[n]
		samples := ""
		if k, ok := res.Samples[n]; ok {
			samples = fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Printf("%-13s %-34s %16.4f %s%s\n", res.Workload, n, m.Value, m.Unit, samples)
	}
}

// quartiles mirrors Python's statistics.quantiles(values, n=4), the rule the
// benchmark contract names.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadOf holds the spread of every end-to-end metric (from the untraced
// runs) against its bound, and requires the exact counters (from the traced
// walks) to repeat.
func spreadOf(runs [][]*result) []spreadRow {
	bounds := map[string]float64{}
	for _, m := range endToEndMetrics {
		bounds[m.name] = m.bound
	}
	exact := map[string]bool{}
	for _, m := range layerMetrics {
		exact[m.name] = m.exact
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	var order []key
	for _, rep := range runs {
		for _, res := range rep {
			for _, n := range sortedMetricNames(res.Metrics) {
				if _, bounded := bounds[n]; res.Traced && !exact[n] || !res.Traced && !bounded {
					continue
				}
				k := key{res.Workload, n}
				if _, seen := values[k]; !seen {
					order = append(order, k)
				}
				values[k] = append(values[k], res.Metrics[n].Value)
			}
		}
	}
	var out []spreadRow
	for _, k := range order {
		v := values[k]
		q1, med, q3 := quartiles(v)
		row := spreadRow{Workload: k.workload, Metric: k.metric, Values: v, Median: med, Q1: q1, Q3: q3,
			Bound: bounds[k.metric], Exact: exact[k.metric]}
		if med != 0 {
			row.Spread = math.Abs((q3 - q1) / med)
		}
		if row.Exact {
			row.OK = slices.Min(v) == slices.Max(v)
		} else {
			row.OK = row.Spread <= row.Bound
		}
		out = append(out, row)
	}
	return out
}
