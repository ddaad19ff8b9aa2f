// Command smabench regenerates every table and figure of the paper's
// evaluation (§2.4) plus the §4 tuning ablations.
//
// Usage:
//
//	smabench [-exp all|e1|e2|...|e11] [-sf 0.02] [-latency] [-delta 90]
//	smabench -exp obs [-out obs.json]     # observability overhead (off/metrics/trace), timing advisory
//	smabench -exp chaos [-out chaos.json] # availability under injected faults + crashes
//
// Each experiment prints the measured rows next to the paper's published
// numbers; EXPERIMENTS.md records a full paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sma/internal/experiments"
	"sma/internal/tpcd"
)

// experimentCatalog describes every experiment -exp accepts; -list prints
// it so the set is discoverable without reading the source.
var experimentCatalog = []struct{ ID, Desc string }{
	{"e1", "Table 1: SMA sizes for the paper's eight Query-1 SMAs"},
	{"e2", "space: SMAs vs a B+-tree on L_SHIPDATE"},
	{"e3", "materialized data cube storage model vs SMAs"},
	{"e4", "Table 4: Query 1 with delta-day selection window"},
	{"e5", "Figure 5: cost crossover as the ambivalent fraction grows"},
	{"e6", "Figure 1: SMA file layout walkthrough"},
	{"e7", "Figure 2: implicit (diagonal) clustering per data order"},
	{"e8", "§4 ablation: bucket-size trade-off on diagonally clustered data"},
	{"e9", "§4 ablation: hierarchical SMAs, presence words the level-2 summary decides and level-1 entries it spares"},
	{"e10", "§4 ablation: semi-join SMAs, LINEITEM ⋉ early ORDERS on L_SHIPDATE <= O_ORDERDATE reduced to L_SHIPDATE <= max(O_ORDERDATE)"},
	{"e11", "§4 ablation: SMA scan vs index plan by selectivity"},
	{"obs", "observability + stats overhead vs disabled (timing advisory; fails on diverging answers)"},
	{"chaos", "availability under injected faults and crashes"},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, e1..e11, obs, chaos")
	list := flag.Bool("list", false, "list every experiment with a one-line description and exit")
	sf := flag.Float64("sf", 0.02, "TPC-D scale factor (paper: 1.0)")
	delta := flag.Int("delta", 90, "Query 1 delta in days")
	latency := flag.Bool("latency", true, "simulate disk latency (100µs sequential page read, +500µs seek on random access)")
	seed := flag.Int64("seed", 1998, "data generation seed")
	out := flag.String("out", "", "write the experiment's JSON artifact to this file")
	flag.Parse()

	if *list {
		for _, e := range experimentCatalog {
			fmt.Printf("%-6s %s\n", e.ID, e.Desc)
		}
		return
	}

	// E1–E4 use shipdate-sorted LINEITEM, the paper's "optimal case"; the
	// other experiments override the order themselves.
	cfg := experiments.Config{SF: *sf, Seed: *seed, Order: tpcd.OrderSorted}
	if *latency {
		cfg.ReadLatency = 100 * time.Microsecond
		cfg.SeekLatency = 500 * time.Microsecond
	}

	want := strings.ToLower(*exp)
	run := func(id string) bool { return want == "all" || want == id }
	ok := false

	if run("e1") || run("e2") || run("e3") || run("e4") {
		ok = true
		if err := runTables(cfg, *delta, run); err != nil {
			fatal(err)
		}
	}
	if run("e5") {
		ok = true
		sweepCfg := cfg
		sweepCfg.SF = min(*sf, 0.02) // per-point envs; keep the sweep quick
		res, err := experiments.RunE5(sweepCfg, *delta,
			[]float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if run("e6") {
		ok = true
		dir, err := os.MkdirTemp("", "sma-fig1-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		out, err := experiments.RunE6(dir)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if run("e7") {
		ok = true
		res, err := experiments.RunE7(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if run("e8") {
		ok = true
		res, err := experiments.RunE8(cfg, *delta, []int{1, 2, 4, 8, 16, 32})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if run("e9") {
		ok = true
		diag := cfg
		diag.Order = tpcd.OrderDiagonal
		e, err := experiments.NewEnv(diag)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RunE9(e, *delta).Render())
		e.Close()
	}
	if run("e10") {
		ok = true
		res, err := experiments.RunE10(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if run("e11") {
		ok = true
		e11cfg := cfg
		e11cfg.SF = min(*sf, 0.01) // the index plan is deliberately slow at high selectivity
		res, err := experiments.RunE11(e11cfg, []float64{0.001, 0.01, 0.05, 0.10, 0.20})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
	}
	if run("obs") && want == "obs" {
		ok = true
		if err := runObs(*sf, *seed, *delta, *out); err != nil {
			fatal(err)
		}
	}
	if run("chaos") && want == "chaos" {
		ok = true
		if err := runChaos(*seed, *out); err != nil {
			fatal(err)
		}
	}
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (want all, e1..e11, obs, or chaos)", *exp))
	}
}

// runTables shares one environment across E1–E4.
func runTables(cfg experiments.Config, delta int, run func(string) bool) error {
	e, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}
	defer closeOrWarn("experiment env", e.Close)
	if run("e1") {
		fmt.Println(experiments.RunE1(e).Render())
	}
	if run("e2") {
		res, err := experiments.RunE2(e)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if run("e3") {
		res, err := experiments.RunE3(e)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if run("e4") {
		res, err := experiments.RunE4(e, delta)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smabench:", err)
	os.Exit(1)
}

// closeOrWarn runs a deferred close, reporting (but not failing on) errors.
func closeOrWarn(what string, close func() error) {
	if err := close(); err != nil {
		fmt.Fprintf(os.Stderr, "smabench: close %s: %v\n", what, err)
	}
}
