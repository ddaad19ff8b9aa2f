// Package experiments implements one driver per table and figure of the
// paper's evaluation (§2.4) plus the §4 tuning ablations. The drivers are
// shared by cmd/smabench and the repository's Go benchmarks; each returns a
// structured result and can render the same rows the paper reports.
//
// Hardware substitution: the paper ran on a Sun Ultra I with 4 GB SCSI
// disks. Here the storage engine counts page I/O and (optionally) simulates
// per-page read latency with a random-access penalty; results report both
// wall time and page counts so the shape comparison does not depend on the
// machine.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// Config parameterizes an experiment environment.
type Config struct {
	// SF is the TPC-D scale factor (the paper uses 1.0; benches default to
	// a laptop-friendly 0.02–0.05, and every quantity scales linearly).
	SF float64
	// Seed drives deterministic data generation.
	Seed int64
	// Order is the physical ordering of LINEITEM.
	Order tpcd.Order
	// BucketPages is the SMA bucket granularity (paper default: 1 page).
	BucketPages int
	// PoolPages is the buffer-pool capacity; keep it well below the table
	// size so scans hit "disk", as the paper's 8 MB buffer did for a 733 MB
	// relation.
	PoolPages int
	// ReadLatency simulates the per-page cost of a sequential disk read.
	ReadLatency time.Duration
	// SeekLatency is the additional cost of a non-sequential read. The
	// default 3x penalty (total 4x a sequential read) reproduces the
	// paper's ≈25% Fig.-5 breakeven.
	SeekLatency time.Duration
	// AmbivalentFrac plants extreme shipdates in this fraction of buckets
	// (Fig. 5's control variable).
	AmbivalentFrac float64
	// Dir is the working directory; a temp dir is created when empty.
	Dir string
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.SF == 0 {
		c.SF = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 1998
	}
	if c.BucketPages == 0 {
		c.BucketPages = 1
	}
	if c.PoolPages == 0 {
		c.PoolPages = 512
	}
	return c
}

// Env is a loaded experiment environment: the LINEITEM heap, its eight
// Query-1 SMAs (Fig. 4), and the knobs to run cold or warm.
type Env struct {
	Cfg      Config
	LineItem *storage.HeapFile
	SMAs     map[string]*core.SMA
	// BuildTime records the bulkload duration per SMA (paper Table E1).
	BuildTime map[string]time.Duration
	NumRows   int

	dir    string
	ownDir bool
	disk   *storage.DiskManager
	pool   *storage.BufferPool
}

// NewEnv generates data, loads the heap, and bulkloads the eight SMAs.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	e := &Env{Cfg: cfg, SMAs: map[string]*core.SMA{}, BuildTime: map[string]time.Duration{}}
	e.dir = cfg.Dir
	if e.dir == "" {
		d, err := os.MkdirTemp("", "sma-exp-*")
		if err != nil {
			return nil, err
		}
		e.dir = d
		e.ownDir = true
	}
	dm, err := storage.OpenDiskManager(filepath.Join(e.dir, "lineitem.tbl"))
	if err != nil {
		return nil, err
	}
	e.disk = dm
	e.pool = storage.NewBufferPool(dm, cfg.PoolPages)
	e.LineItem, err = storage.NewHeapFile(e.pool, tpcd.LineItemSchema(), cfg.BucketPages)
	if err != nil {
		dm.Close()
		return nil, err
	}
	n, err := tpcd.LoadLineItem(e.LineItem, tpcd.Config{
		ScaleFactor:    cfg.SF,
		Seed:           cfg.Seed,
		Order:          cfg.Order,
		AmbivalentFrac: cfg.AmbivalentFrac,
	})
	if err != nil {
		dm.Close()
		return nil, err
	}
	e.NumRows = n
	if err := e.pool.FlushAll(); err != nil {
		return nil, err
	}
	// E1 measures per-SMA creation cost, so the eight SMAs are built one
	// scan each here; engines that want a single shared pass use
	// core.BuildMany instead (see BenchmarkSMABuildManyVsSeparate).
	for _, def := range Q1SMADefs() {
		start := time.Now()
		s, err := core.Build(e.LineItem, def)
		if err != nil {
			return nil, fmt.Errorf("build sma %s: %w", def.Name, err)
		}
		e.BuildTime[def.Name] = time.Since(start)
		e.SMAs[def.Name] = s
	}
	return e, nil
}

// Close releases the environment (and its temp dir, if owned).
func (e *Env) Close() error {
	err := e.disk.Close()
	if e.ownDir {
		os.RemoveAll(e.dir)
	}
	return err
}

// Pool returns the buffer pool.
func (e *Env) Pool() *storage.BufferPool { return e.pool }

// Disk returns the disk manager.
func (e *Env) Disk() *storage.DiskManager { return e.disk }

// GoCold empties the buffer pool, resets I/O statistics and enables the
// configured latency simulation.
func (e *Env) GoCold() error {
	if err := e.pool.DropAll(); err != nil {
		return err
	}
	e.pool.ResetStats()
	e.disk.ResetStats()
	e.disk.SetReadLatency(e.Cfg.ReadLatency)
	e.disk.SetSeekLatency(e.Cfg.SeekLatency)
	return nil
}

// ResetStats clears I/O statistics without dropping the pool (a "warm"
// boundary).
func (e *Env) ResetStats() {
	e.pool.ResetStats()
	e.disk.ResetStats()
}

// SMAPages returns the total SMA-file page count (all files of all eight
// SMAs, the paper's 8444-page figure at SF 1).
func (e *Env) SMAPages() int64 {
	var total int64
	for _, s := range e.SMAs {
		total += s.PagesUsed()
	}
	return total
}

// SMASizeBytes returns the total SMA payload size in bytes.
func (e *Env) SMASizeBytes() int64 {
	var total int64
	for _, s := range e.SMAs {
		total += s.SizeBytes()
	}
	return total
}

// --- the Query 1 workload ------------------------------------------------

// Q1GroupBy is Query 1's grouping.
func Q1GroupBy() []string { return []string{"L_RETURNFLAG", "L_LINESTATUS"} }

// q1DiscPrice builds L_EXTENDEDPRICE*(1-L_DISCOUNT).
func q1DiscPrice() expr.Expr {
	return expr.Mul(expr.NewCol("L_EXTENDEDPRICE"),
		expr.Sub(expr.NewConst(1), expr.NewCol("L_DISCOUNT")))
}

// q1Charge builds L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX).
func q1Charge() expr.Expr {
	return expr.Mul(q1DiscPrice(), expr.Add(expr.NewConst(1), expr.NewCol("L_TAX")))
}

// Q1Specs returns the aggregate list of TPC-D Query 1.
func Q1Specs() []exec.AggSpec {
	return []exec.AggSpec{
		{Func: exec.AggSum, Arg: expr.NewCol("L_QUANTITY"), Name: "SUM_QTY"},
		{Func: exec.AggSum, Arg: expr.NewCol("L_EXTENDEDPRICE"), Name: "SUM_BASE_PRICE"},
		{Func: exec.AggSum, Arg: q1DiscPrice(), Name: "SUM_DISC_PRICE"},
		{Func: exec.AggSum, Arg: q1Charge(), Name: "SUM_CHARGE"},
		{Func: exec.AggAvg, Arg: expr.NewCol("L_QUANTITY"), Name: "AVG_QTY"},
		{Func: exec.AggAvg, Arg: expr.NewCol("L_EXTENDEDPRICE"), Name: "AVG_PRICE"},
		{Func: exec.AggAvg, Arg: expr.NewCol("L_DISCOUNT"), Name: "AVG_DISC"},
		{Func: exec.AggCount, Name: "COUNT_ORDER"},
	}
}

// Q1SMADefs returns the paper's eight SMA definitions (Fig. 4): min and max
// on shipdate (ungrouped), and count/qty/dis/ext/extdis/extdistax grouped by
// (L_RETURNFLAG, L_LINESTATUS) — 26 SMA-files in total.
func Q1SMADefs() []core.Def {
	gb := Q1GroupBy()
	return []core.Def{
		core.NewDef("count", "LINEITEM", core.Count, nil, gb...),
		core.NewDef("max", "LINEITEM", core.Max, expr.NewCol("L_SHIPDATE")),
		core.NewDef("min", "LINEITEM", core.Min, expr.NewCol("L_SHIPDATE")),
		core.NewDef("qty", "LINEITEM", core.Sum, expr.NewCol("L_QUANTITY"), gb...),
		core.NewDef("dis", "LINEITEM", core.Sum, expr.NewCol("L_DISCOUNT"), gb...),
		core.NewDef("ext", "LINEITEM", core.Sum, expr.NewCol("L_EXTENDEDPRICE"), gb...),
		core.NewDef("extdis", "LINEITEM", core.Sum, q1DiscPrice(), gb...),
		core.NewDef("extdistax", "LINEITEM", core.Sum, q1Charge(), gb...),
	}
}

// Q1SMAOrder is the column order of the paper's creation-time table.
func Q1SMAOrder() []string {
	return []string{"count", "max", "min", "qty", "dis", "ext", "extdis", "extdistax"}
}

// Q1Pred returns Query 1's predicate, L_SHIPDATE <= 1998-12-01 - delta days.
func Q1Pred(deltaDays int) pred.Predicate {
	cutoff := tuple.MustParseDate("1998-12-01") - int32(deltaDays)
	return pred.NewAtom("L_SHIPDATE", pred.Le, float64(cutoff))
}

// Grader returns the selection grader (min/max SMAs on shipdate).
func (e *Env) Grader() *core.Grader {
	return core.NewGrader(e.SMAs["min"], e.SMAs["max"])
}

// Q1AggSMAs maps Query 1's eight aggregates to their SMAs, in Q1Specs order.
func (e *Env) Q1AggSMAs() []*core.SMA {
	return []*core.SMA{
		e.SMAs["qty"], e.SMAs["ext"], e.SMAs["extdis"], e.SMAs["extdistax"],
		e.SMAs["qty"], e.SMAs["ext"], e.SMAs["dis"], e.SMAs["count"],
	}
}

// noPrefetch makes the experiments' scans demand-read every page, so the
// simulated disk's page counts and times stay those of the access path.
var noPrefetch = exec.ExecOptions{PrefetchWindow: -1}

// RunQ1Baseline executes Query 1 via a table scan + GAggr.
func (e *Env) RunQ1Baseline(deltaDays int) ([]exec.Row, error) {
	agg := exec.NewBatchGAggr(exec.NewBatchTableScan(e.LineItem, Q1Pred(deltaDays), noPrefetch),
		e.LineItem.Schema(), Q1Specs(), Q1GroupBy())
	return exec.CollectRows(exec.NewSortRows(agg))
}

// RunQ1SMA executes Query 1 via SMA_GAggr, returning rows and bucket stats.
func (e *Env) RunQ1SMA(deltaDays int) ([]exec.Row, exec.ScanStats, error) {
	agg := exec.NewSMAGAggr(e.LineItem, Q1Pred(deltaDays), Q1Specs(), Q1GroupBy(),
		e.Grader(), e.Q1AggSMAs(), e.SMAs["count"])
	rows, err := exec.CollectRows(exec.NewSortRows(agg))
	return rows, agg.Stats(), err
}
