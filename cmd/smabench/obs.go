package main

// The obs experiment measures what the observability subsystem costs on
// the paper's Query 1 (warm, SMA-covered, dop=1): the same query runs
// with observability off (an engine opened with a nil Options.Obs, which
// the public sma.Open never does), with the observer on but tracing off
// (the production configuration — metrics plus the statement-stats
// collector behind the introspection catalog, so fingerprinting and
// per-query stats accounting are inside this measurement), and with
// per-query tracing on. -out writes ns/op per configuration and the
// overhead percentages as JSON.
//
// The timing is advisory: on a ~35–55 µs statement four runs a side spread
// −1.8…+5.2 %, so this instrument resolves 2–3 µs and cannot hold a bar
// that is a fraction of a microsecond. What it enforces is that the three
// configurations return the same answer from the same plan; the enforced
// overhead budget is the allocation count in the engine's
// TestObserverAllocBudget, which repeats exactly.
//
// The three configurations are measured interleaved, not sequentially:
// each gets its own database over an identically-seeded directory, and
// every timing round samples all three back to back. Sequential
// measurement lets minutes-scale environment drift (noisy neighbours,
// frequency scaling) land entirely on one configuration, which at
// sub-millisecond query times dwarfs the effect being measured;
// interleaving makes drift hit all three equally, and the overheads are
// the medians of the per-round paired ratios (metrics vs off inside the
// same round), which cancels whatever drift remains.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"sma/internal/engine"
	"sma/internal/experiments"
	"sma/internal/obs"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// obsResult is one configuration's measurement.
type obsResult struct {
	Config   string  `json:"config"` // "off", "metrics", "trace"
	Strategy string  `json:"strategy"`
	NsPerOp  int64   `json:"ns_per_op"`
	Rows     int     `json:"rows"`
	Checksum float64 `json:"checksum"`
}

// obsFile is the on-disk artifact format.
type obsFile struct {
	PR                  int         `json:"pr"`
	SF                  float64     `json:"sf"`
	Query               string      `json:"query"`
	Iters               int         `json:"iters"`
	Results             []obsResult `json:"results"`
	DisabledOverheadPct float64     `json:"disabled_overhead_pct"` // metrics vs off
	TraceOverheadPct    float64     `json:"trace_overhead_pct"`    // trace vs off
	MaxDisabledPct      float64     `json:"max_disabled_pct"`      // advisory bar
	Pass                bool        `json:"pass"`
}

// obsConfig is one observability configuration under measurement.
type obsConfig struct {
	name  string
	obs   bool
	trace bool

	db     *engine.DB
	best   obsResult
	rounds []int64 // per-round batch time, nanoseconds
}

// runObs builds an identically-seeded Query-1 dataset per configuration,
// measures the three observability configurations interleaved on the warm
// SMA-covered Query 1, prints the comparison, and writes the JSON
// artifact.
func runObs(sf float64, seed int64, delta int, out string) error {
	const rounds = 99
	file := obsFile{PR: 7, SF: sf, Query: "q1_sma", Iters: rounds, MaxDisabledPct: 2.0}

	configs := []*obsConfig{
		{name: "off"},
		{name: "metrics", obs: true},
		{name: "trace", obs: true, trace: true},
	}
	var query string
	var warmNS int64
	for _, cfg := range configs {
		dir, err := os.MkdirTemp("", "sma-obs-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if err := loadQ1(dir, sf, seed); err != nil {
			return err
		}
		query = q1SMAQuery(delta)
		opts := engine.Options{PoolPages: 16384}
		if cfg.obs {
			// A fresh observer per open: observers must not be shared
			// across databases.
			opts.Obs = obs.NewObserver(obs.Config{})
		}
		cfg.db, err = engine.Open(dir, opts)
		if err != nil {
			return fmt.Errorf("obs %s: %w", cfg.name, err)
		}
		defer closeOrWarn("database", cfg.db.Close)
		_, warm, err := obsRun(cfg.db, query, cfg.trace) // warm the pool
		if err != nil {
			return fmt.Errorf("obs %s: %w", cfg.name, err)
		}
		warmNS = warm.Nanoseconds()
		cfg.best.NsPerOp = int64(1<<62 - 1)
	}

	// Each round times a small batch per configuration: enough queries
	// that a single scheduler hiccup cannot dominate a sample, few enough
	// that the paired samples stay close together in time — the target is
	// a ~2.5 ms sample regardless of how long one query takes.
	batch := int(2_500_000 / max(warmNS, 1))
	if batch < 1 {
		batch = 1
	}
	if batch > 8 {
		batch = 8
	}
	for r := 0; r < rounds; r++ {
		for _, cfg := range configs {
			var total int64
			for b := 0; b < batch; b++ {
				res, elapsed, err := obsRun(cfg.db, query, cfg.trace)
				if err != nil {
					return fmt.Errorf("obs %s: %w", cfg.name, err)
				}
				total += elapsed.Nanoseconds()
				if ns := elapsed.Nanoseconds(); ns < cfg.best.NsPerOp {
					res.NsPerOp = ns
					cfg.best = res
				}
			}
			cfg.rounds = append(cfg.rounds, total/int64(batch))
		}
	}

	byName := map[string]*obsConfig{}
	for _, cfg := range configs {
		cfg.best.Config = cfg.name
		file.Results = append(file.Results, cfg.best)
		byName[cfg.name] = cfg
		fmt.Printf("%-8s %-14s %12.3fms  rows=%d\n",
			cfg.name, cfg.best.Strategy, float64(cfg.best.NsPerOp)/1e6, cfg.best.Rows)
	}

	// Observability must not change the answer: every configuration runs
	// the same plan to the same rows over identically seeded data.
	off := byName["off"].best
	for _, cfg := range configs[1:] {
		if b := cfg.best; b.Rows != off.Rows || b.Checksum != off.Checksum || b.Strategy != off.Strategy {
			return fmt.Errorf("obs: %s answered %d rows, checksum %v via %s; off answered %d rows, checksum %v via %s",
				cfg.name, b.Rows, b.Checksum, b.Strategy, off.Rows, off.Checksum, off.Strategy)
		}
	}

	file.DisabledOverheadPct = medianRatioPct(byName["metrics"].rounds, byName["off"].rounds)
	file.TraceOverheadPct = medianRatioPct(byName["trace"].rounds, byName["off"].rounds)
	file.Pass = file.DisabledOverheadPct <= file.MaxDisabledPct
	fmt.Printf("disabled-path overhead (metrics vs off): %+.2f%% (advisory bar ≤ %.0f%%: %v)\n",
		file.DisabledOverheadPct, file.MaxDisabledPct, file.Pass)
	fmt.Printf("tracing overhead (trace vs off): %+.2f%%\n", file.TraceOverheadPct)

	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

// medianRatioPct pairs each round's measurement with the baseline's from
// the same round and returns the median overhead percentage. Paired
// ratios cancel machine-wide drift that hits both configurations alike.
func medianRatioPct(cfg, base []int64) float64 {
	n := len(cfg)
	if len(base) < n {
		n = len(base)
	}
	if n == 0 {
		return 0
	}
	ratios := make([]float64, n)
	for i := 0; i < n; i++ {
		ratios[i] = float64(cfg[i]) / float64(base[i])
	}
	sort.Float64s(ratios)
	mid := ratios[n/2]
	if n%2 == 0 {
		mid = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	return (mid - 1) * 100
}

// obsRun executes and fully drains the query once at dop=1.
func obsRun(db *engine.DB, query string, trace bool) (obsResult, time.Duration, error) {
	var res obsResult
	qopts := []engine.QueryOption{engine.WithDOP(1)}
	if trace {
		qopts = append(qopts, engine.WithTrace(true))
	}
	start := time.Now()
	cur, err := db.QueryContext(context.Background(), query, qopts...)
	if err != nil {
		return res, 0, err
	}
	for {
		vals, ok, err := cur.Next()
		if err != nil {
			_ = cur.Close()
			return res, 0, err
		}
		if !ok {
			break
		}
		res.Rows++
		for _, v := range vals {
			if f, ok := v.(float64); ok {
				res.Checksum += f
			}
		}
	}
	elapsed := time.Since(start)
	if err := cur.Close(); err != nil {
		return res, 0, err
	}
	res.Strategy = "?"
	if p := cur.Plan(); p != nil {
		res.Strategy = p.StrategyName()
	}
	return res, elapsed, nil
}

// loadQ1 creates the LINEITEM table (shipdate-sorted, the paper's layout)
// and its eight Query-1 SMAs in dir.
func loadQ1(dir string, sf float64, seed int64) error {
	db, err := engine.Open(dir, engine.Options{})
	if err != nil {
		return err
	}
	defer closeOrWarn("database", db.Close)
	tbl, err := db.CreateTable("LINEITEM", tpcd.LineItemSchema().Columns())
	if err != nil {
		return err
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: sf, Seed: seed, Order: tpcd.OrderSorted})
	tp := tuple.NewTuple(tbl.Schema)
	for i := range items {
		items[i].FillTuple(tp)
		if _, err := tbl.Append(tp); err != nil {
			return err
		}
	}
	for _, def := range experiments.Q1SMADefs() {
		if _, err := db.DefineSMADef(def); err != nil {
			return err
		}
	}
	return nil
}

// q1SMAQuery is the paper's Query 1, covered by the eight SMAs (plan
// SMA_GAggr); delta is its parameter in days.
func q1SMAQuery(delta int) string {
	cutoff := tuple.FormatDate(tpcd.EndDate - int32(delta))
	return fmt.Sprintf(`SELECT L_RETURNFLAG, L_LINESTATUS,
		SUM(L_QUANTITY) AS SUM_QTY,
		SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
		SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
		SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
		AVG(L_QUANTITY) AS AVG_QTY, AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
		AVG(L_DISCOUNT) AS AVG_DISC, COUNT(*) AS COUNT_ORDER
		FROM LINEITEM WHERE L_SHIPDATE <= DATE '%s'
		GROUP BY L_RETURNFLAG, L_LINESTATUS
		ORDER BY L_RETURNFLAG, L_LINESTATUS`, cutoff)
}
