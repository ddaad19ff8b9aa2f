package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sma"
	"sma/client"
	"sma/internal/core"
	"sma/internal/engine"
	"sma/internal/exec"
	"sma/internal/obs"
	"sma/internal/parallel"
	"sma/internal/parser"
	"sma/internal/planner"
	"sma/internal/server"
	"sma/internal/storage"
	"sma/internal/wal"
)

// layerMetric is one row of the per-layer table: the name later issues cite,
// its unit and direction. README.md says how each is measured and which
// end-to-end metric, on which workload, it is expected to move.
type layerMetric struct {
	name, unit, better string
	// exact marks counters that must repeat bit for bit under one seed.
	exact bool
}

var layerMetrics = []layerMetric{
	{"parser.parse_us", "us", "lower", false},
	{"parser.fingerprint_us", "us", "lower", false},
	{"parser.allocs_per_stmt", "count", "lower", false},
	{"planner.plan_self_us", "us", "lower", false},
	{"planner.strategy_match", "fraction", "higher", true},
	{"core.grade_ns_per_bucket", "ns", "lower", false},
	{"core.pruned_frac", "fraction", "higher", true},
	{"core.ambivalent_frac", "fraction", "lower", true},
	{"core.on_append_ns_per_row", "ns", "lower", false},
	{"core.build_s", "s", "lower", false},
	{"core.sma_bytes_frac", "fraction", "lower", true},
	{"storage.disk_read_us_per_page", "us", "lower", false},
	{"storage.verify_ns_per_page", "ns", "lower", false},
	{"storage.pool_hit_ns", "ns", "lower", false},
	{"storage.pool_miss_us", "us", "lower", false},
	{"storage.pool_hit_rate", "ratio", "higher", false},
	{"storage.prefetch_hit_rate", "ratio", "higher", false},
	{"storage.evictions_per_stmt", "count", "lower", false},
	{"storage.pages_read_per_stmt", "count", "lower", false},
	{"storage.decode_ns_per_row", "ns", "lower", false},
	{"storage.page_writes_per_stmt", "count", "lower", true},
	{"storage.syncs_per_stmt", "count", "lower", true},
	{"exec.scan_ns_per_row", "ns", "lower", false},
	{"exec.fold_ns_per_row", "ns", "lower", false},
	{"exec.smagaggr_us", "us", "lower", false},
	{"exec.finish_us", "us", "lower", false},
	{"exec.allocs_per_batch", "count", "lower", false},
	{"exec.rows_examined_per_result_row", "count", "lower", true},
	{"parallel.partition_us", "us", "lower", false},
	{"parallel.merge_us", "us", "lower", false},
	{"parallel.imbalance", "ratio", "lower", true},
	{"parallel.speedup_dop2", "ratio", "higher", false},
	{"engine.query_self_us", "us", "lower", false},
	{"engine.exec_self_us", "us", "lower", false},
	{"engine.open_ms", "ms", "lower", false},
	{"engine.recover_ms", "ms", "lower", false},
	{"wal.commit_us", "us", "lower", false},
	{"wal.fsync_us", "us", "lower", false},
	{"wal.bytes_per_user_byte", "ratio", "lower", true},
	{"wal.stmts_per_sync", "ratio", "higher", false},
	{"wal.replay_mb_per_s", "MB/s", "higher", false},
	{"sma.render_ns_per_row", "ns", "lower", false},
	{"server.handler_self_us", "us", "lower", false},
	{"server.decode_req_us", "us", "lower", false},
	{"server.shed_frac", "fraction", "lower", false},
	{"client.decode_ns_per_row", "ns", "lower", false},
	{"client.wire_overhead_us", "us", "lower", false},
	{"obs.overhead_frac", "fraction", "lower", false},
	{"trace.coverage", "ratio", "higher", false},
	{"trace.overhead_frac", "fraction", "lower", false},
	// End-to-end quantities that only some workloads have by themselves;
	// measured here over a fixed statement count so they repeat.
	{"stmt_p95_ms", "ms", "lower", false},
	{"read_p50_ms", "ms", "lower", false},
	{"write_p50_ms", "ms", "lower", false},
	{"write_amp", "ratio", "lower", true},
	{"space_amp", "ratio", "lower", true},
	{"recovery_ms", "ms", "lower", false},
}

func layerMetricNames() []string {
	out := make([]string, len(layerMetrics))
	for i, m := range layerMetrics {
		out[i] = m.name
	}
	return out
}

// walkSizes fixes the statement counts of the traced walk, so that exact
// counters repeat from run to run.
type walkSizes struct {
	untraced int // statements per client in the untraced fixed-count run
	traced   int // traced statements through the public API
	engine   int // native statements rebuilt layer by layer
	probes   int // repetitions of each non-native probe statement
	pages    int // page list of the storage probes
	crashes  int // crash/reopen rounds
	perCrash int // write statements before each crash
}

// sizesFor picks the counts. A workload whose statements each scan the whole
// table runs a quarter of the statements, to keep the walk within seconds.
func sizesFor(sc scale, heavy bool) walkSizes {
	if sc == shortScale {
		return walkSizes{untraced: 12, traced: 6, engine: 4, probes: 1, pages: 32, crashes: 2, perCrash: 5}
	}
	n := walkSizes{untraced: 200, traced: 60, engine: 40, probes: 5, pages: 512, crashes: 4, perCrash: 60}
	if heavy {
		n.untraced, n.traced, n.engine = n.untraced/4, n.traced/4, n.engine/4
	}
	return n
}

// walk is the state of one traced layer walk.
type walk struct {
	e   *env
	n   walkSizes
	tr  *tracer
	res *result

	stmtID      int
	untraced    map[bool]float64 // untraced p50 in ms, by write
	untracedAll float64          // untraced p50 in ms over every statement
	hasRead     bool             // the workload issues reads / writes itself
	hasWrite    bool
	wires       bool // the workload goes through the server

	partPages [][]int64       // pages per partition of every partitioned statement
	fpSeen    map[string]bool // statement texts the engine-phase database has fingerprinted
	match     [2]int          // planned as named, total
	allocs    struct{ parse, parsed, fold, batches float64 }
	userBytes float64
}

// menuStmt is a statement the engine phase rebuilds. Native statements are
// the workload's own; probes make sure every operator is exercised on every
// workload, so that each layer's unit cost is always measured.
type menuStmt struct {
	*stmt
	native bool
	dop    int
	reps   int
}

func walkLayers(e *env, o options, res *result) error {
	w := &walk{e: e, n: sizesFor(o.sc, e.w.heavy), tr: newTracer(), res: res, untraced: map[bool]float64{}, fpSeen: map[string]bool{}}
	w.wires = e.served != nil
	for _, step := range []func() error{
		w.untracedRun, w.tracedRun, w.enginePhase, w.serverPhase, w.crashRounds, w.spaceAmp,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	w.derive()
	res.Correct = res.Failed == 0
	if o.spans != "" {
		return w.tr.write(o.spans)
	}
	return nil
}

func (w *walk) fail(err error) {
	w.res.Failed++
	if w.res.Error == "" {
		w.res.Error = err.Error()
	}
}

func (w *walk) nextID() int { w.stmtID++; return w.stmtID }

// --- step 1: untraced, fixed count, the workload's own concurrency ------------------

func (w *walk) untracedRun() error {
	e := w.e
	runCount(e, w.n.untraced/4) // warm
	pool0, wal0 := e.db.PoolStats(), e.db.WALStats()
	win := runCount(e, w.n.untraced)
	pool1, wal1 := e.db.PoolStats(), e.db.WALStats()
	w.res.Attempted += win.attempted
	w.res.Failed += win.failed
	if win.firstErr != nil && w.res.Error == "" {
		w.res.Error = win.firstErr.Error()
	}
	n := float64(len(win.samples))
	if n == 0 {
		return fmt.Errorf("%s: no statement completed in the fixed-count run", e.w.name)
	}
	all := win.latencies(anySample)
	w.untracedAll = percentile(all, 50)
	w.res.set("stmt_p95_ms", percentile(all, 95), "ms")
	w.res.Samples["stmt_p95_ms"] = len(all)
	for _, write := range []bool{false, true} {
		keep := readSample
		if write {
			keep = writeSample
		}
		if lat := win.latencies(keep); len(lat) > 0 {
			w.untraced[write] = percentile(lat, 50)
			if write {
				w.hasWrite = true
			} else {
				w.hasRead = true
			}
		}
	}
	hits, misses := float64(pool1.Hits-pool0.Hits), float64(pool1.Misses-pool0.Misses)
	prefetched := float64(pool1.Prefetched - pool0.Prefetched)
	rate := 1.0 // nothing requested, nothing missed
	if hits+misses > 0 {
		rate = hits / (hits + misses)
	}
	w.res.set("storage.pool_hit_rate", rate, "ratio")
	w.res.set("storage.prefetch_hit_rate", ratio(float64(pool1.PrefetchHits-pool0.PrefetchHits), prefetched), "ratio")
	w.res.set("storage.evictions_per_stmt", float64(pool1.Evictions-pool0.Evictions)/n, "count")
	w.res.set("storage.pages_read_per_stmt", misses/n, "count") // prefetch loads are misses too
	w.res.set("server.shed_frac", float64(win.shed)/float64(win.attempted), "fraction")
	if commits := float64(wal1.Commits - wal0.Commits); commits > 0 {
		w.res.set("wal.stmts_per_sync", ratio(commits, float64(wal1.Syncs-wal0.Syncs)), "ratio")
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- step 2: traced statements through the public API ---------------------------------

func (w *walk) tracedRun() error {
	e := w.e
	var traced []float64
	for i := 0; i < w.n.traced; i++ {
		s := e.next[0]()
		id := w.nextID()
		w.res.Attempted++
		var root *span
		var rows [][]string
		var strategy string
		var err error
		if w.wires {
			root, err = w.tr.live(id, nil, "client."+verb(s), func(*span) error {
				var err error
				rows, strategy, _, err = e.runWire(0, s)
				return err
			})
		} else {
			root, rows, strategy, err = w.tracedEmbedded(id, nil, e.db, s)
		}
		if err == nil && !s.write {
			if strategy != s.strategy {
				err = fmt.Errorf("planned %s, workload expects %s", strategy, s.strategy)
			} else {
				err = s.check(rows)
			}
		}
		if err != nil {
			w.fail(fmt.Errorf("%s: %w (%.80s)", e.w.name, err, s.sql))
			continue
		}
		if s.write && s.acked != nil {
			s.acked()
		}
		root.count("native", 1)
		traced = append(traced, float64(root.dur().Nanoseconds())/1e6)
	}
	if len(traced) == 0 {
		return fmt.Errorf("%s: no traced statement succeeded", e.w.name)
	}
	// The traced stream continues the untraced one with the same mix, so the
	// medians over all statements compare.
	w.res.set("trace.overhead_frac", median(traced)/w.untracedAll-1, "fraction")
	return nil
}

func verb(s *stmt) string {
	if s.write {
		return "exec"
	}
	return "query"
}

// tracedEmbedded runs a statement through the public sma package under a
// live span, with the row rendering loop as its live child.
func (w *walk) tracedEmbedded(id int, parent *span, db *sma.DB, s *stmt) (*span, [][]string, string, error) {
	var out [][]string
	var strategy string
	run := w.tr.live
	if parent != nil {
		run = w.tr.replay
	}
	root, err := run(id, parent, "sma."+verb(s), func(root *span) error {
		ctx := context.Background()
		if s.write {
			_, err := db.ExecContext(ctx, s.sql)
			return err
		}
		var opts []sma.QueryOption
		if w.e.dop > 0 {
			opts = append(opts, sma.WithQueryParallelism(w.e.dop))
		}
		rows, err := db.QueryContext(ctx, s.sql, opts...)
		if err != nil {
			return err
		}
		defer rows.Close()
		strategy = rows.Strategy()
		render, err := w.tr.live(id, root, "sma.render", func(*span) error {
			var err error
			out, err = renderAll(rows)
			return err
		})
		render.count("rows", float64(len(out)))
		return err
	})
	return root, out, strategy, err
}

// --- step 3: the engine, layer by layer ---------------------------------------------------

// engineOptions mirrors what sma.Open passes down for this workload: the
// workload's pool, a default observer (one per open database), and — for
// the crash rounds — the kill switch.
func (w *walk) engineOptions() engine.Options {
	return engine.Options{PoolPages: w.e.poolPages, Obs: obs.NewObserver(obs.Config{}), AllowUnsafeCrash: true}
}

// menu lists what the engine phase rebuilds: the workload's statements, and
// one probe per plan shape the workload does not produce itself.
func (w *walk) menu() []menuStmt {
	e := w.e
	var out []menuStmt
	shapes := map[string]bool{}
	for _, s := range e.reads {
		reps := max(w.n.engine/len(e.reads), 1)
		native := w.hasRead
		if !native {
			reps = w.n.probes
		}
		out = append(out, menuStmt{stmt: s, native: native, dop: max(e.dop, 1), reps: reps})
		shapes[s.strategy] = true
	}
	for _, p := range e.probes {
		if !shapes[p.strategy] {
			out = append(out, menuStmt{stmt: p, dop: 1, reps: w.n.probes})
		}
	}
	return out
}

func (w *walk) enginePhase() error {
	e := w.e
	if err := e.close(); err != nil { // the directory admits one open database
		return err
	}
	for i := 0; i < 3; i++ {
		var db *engine.DB
		_, err := w.tr.live(0, nil, "engine.open", func(*span) error {
			var err error
			db, err = engine.Open(e.dbDir, w.engineOptions())
			return err
		})
		if err != nil {
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
	}
	// An identical copy without an observer, for the paired obs overhead.
	bare := filepath.Join(e.dir, "bare")
	if err := copyDir(e.dbDir, bare); err != nil {
		return err
	}
	db, err := engine.Open(e.dbDir, w.engineOptions())
	if err != nil {
		return err
	}
	bareOpts := w.engineOptions()
	bareOpts.Obs = nil
	bareDB, err := engine.Open(bare, bareOpts)
	if err != nil {
		db.Close()
		return err
	}
	err = w.engineWalk(db, bareDB)
	if cerr := bareDB.Close(); err == nil {
		err = cerr
	}
	return err
}

// engineWalk runs the read menu, the probes and the write statements against
// db, and closes it (the final flush is part of the write accounting).
func (w *walk) engineWalk(db, bare *engine.DB) (err error) {
	closed := false
	defer func() {
		if !closed {
			if cerr := db.Close(); err == nil {
				err = cerr
			}
		}
	}()
	e := w.e
	tbl, err := db.Table(e.table)
	if err != nil {
		return err
	}
	pl := planner.New()
	menu := w.menu()
	for _, m := range menu {
		for r := 0; r < m.reps; r++ {
			if err := w.walkRead(db, tbl, pl, m); err != nil {
				return fmt.Errorf("%s: %w (%.80s)", e.w.name, err, m.sql)
			}
		}
	}
	if err := w.storageProbes(tbl); err != nil {
		return err
	}
	if err := w.speedupDop2(db, menu); err != nil {
		return err
	}
	if err := w.obsOverhead(db, bare, menu); err != nil {
		return err
	}
	if _, err := w.tr.live(0, nil, "core.build", func(*span) error {
		defs := make([]core.Def, 0, len(tbl.SMAs()))
		for _, s := range tbl.SMAs() {
			defs = append(defs, s.Def)
		}
		_, err := core.BuildMany(tbl.Heap, defs)
		return err
	}); err != nil {
		return err
	}
	var smaBytes int64
	for _, s := range tbl.SMAs() {
		smaBytes += s.SizeBytes()
	}
	w.res.set("core.sma_bytes_frac", float64(smaBytes)/float64(tbl.Heap.SizeBytes()), "fraction")

	// Writes last: they change the table the reads above were checked on.
	scratch, err := newScratch(e, tbl)
	if err != nil {
		return err
	}
	defer scratch.close()
	_, writes0 := tbl.Disk().Stats()
	syncs0, wal0 := tbl.Disk().Syncs(), db.WALStats()
	nWrites := w.n.engine
	if !w.hasWrite {
		nWrites = w.n.probes * 4
	}
	for i := 0; i < nWrites; i++ {
		if err := w.walkWrite(db, scratch, e.writes(i)); err != nil {
			return err
		}
	}
	wal1 := db.WALStats()
	disk := tbl.Disk()
	closed = true
	if err := db.Close(); err != nil {
		return err
	}
	_, writes1 := disk.Stats()
	walBytes := float64(wal1.Bytes - wal0.Bytes)
	pageBytes := float64(writes1-writes0) * storage.PageSize
	w.res.set("wal.bytes_per_user_byte", walBytes/w.userBytes, "ratio")
	w.res.set("write_amp", (walBytes+pageBytes)/w.userBytes, "ratio")
	w.res.set("storage.page_writes_per_stmt", float64(writes1-writes0)/float64(nWrites), "count")
	w.res.set("storage.syncs_per_stmt", float64(disk.Syncs()-syncs0)/float64(nWrites), "count")
	if _, ok := w.res.Metrics["wal.stmts_per_sync"]; !ok {
		w.res.set("wal.stmts_per_sync", ratio(float64(wal1.Commits-wal0.Commits), float64(wal1.Syncs-wal0.Syncs)), "ratio")
	}
	return scratch.walProbes(w)
}

// timedBatches wraps a scan so that the time spent producing batches can be
// told apart from the time spent folding them.
type timedBatches struct {
	exec.BatchIter
	d       time.Duration
	rows    int
	batches int
}

func (t *timedBatches) NextBatch() (*exec.Batch, error) {
	start := time.Now()
	b, err := t.BatchIter.NextBatch()
	t.d += time.Since(start)
	if b != nil {
		t.rows += b.Len()
		t.batches++
	}
	return b, err
}

// rowSlice feeds finished rows to SortRows.
type rowSlice struct {
	rows []exec.Row
	pos  int
}

func (r *rowSlice) Open() error { r.pos = 0; return nil }
func (r *rowSlice) Next() (exec.Row, bool, error) {
	if r.pos >= len(r.rows) {
		return exec.Row{}, false, nil
	}
	r.pos++
	return r.rows[r.pos-1], true, nil
}
func (r *rowSlice) Close() error { return nil }

// walkRead executes one read for real through engine.DB, then rebuilds it
// from outside as replayed children: parse, plan (with its grading),
// partition, scan (with its page fetches), fold, merge, finish.
func (w *walk) walkRead(db *engine.DB, tbl *engine.Table, pl *planner.Planner, m menuStmt) error {
	id := w.nextID()
	ctx := context.Background()
	heap := tbl.Heap
	var stats exec.ScanStats
	var rowsOut int
	var strategy string
	root, err := w.tr.live(id, nil, "engine.query", func(*span) error {
		var err error
		rowsOut, stats, strategy, err = drainEngine(db, m.sql, m.dop)
		return err
	})
	if err != nil {
		return err
	}
	if m.native {
		root.count("native", 1)
		w.match[1]++
		if strategy == m.strategy {
			w.match[0]++
		}
	} else if strategy != m.strategy {
		return fmt.Errorf("probe planned %s, expected %s", strategy, m.strategy)
	}
	buckets := float64(stats.Qualifying + stats.Disqualifying + stats.Ambivalent)
	root.count("buckets", buckets).count("disqualified", float64(stats.Disqualifying)).
		count("ambivalent", float64(stats.Ambivalent)).count("pages_read", float64(stats.PagesRead)).
		count("rows_out", float64(rowsOut)).count("rows_examined", float64(stats.PagesRead*heap.RecordsPerPage()))
	mark := func(s *span) *span {
		if m.native {
			s.count("native", 1)
		}
		return s
	}

	var q *parser.Query
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp, err := w.tr.replay(id, root, "parser.parse", func(*span) error {
		var err error
		q, err = parser.ParseQuery(m.sql)
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	if m.native {
		w.allocs.parse += float64(ms1.Mallocs - ms0.Mallocs)
		w.allocs.parsed++
	}
	mark(sp)
	w.fingerprint(id, root, m.sql, m.native)

	var plan *planner.Plan
	planSp, err := w.tr.replay(id, root, "planner.plan", func(*span) error {
		if q.Where != nil {
			if err := q.Where.Bind(heap.Schema()); err != nil {
				return err
			}
		}
		var err error
		plan, err = pl.PlanQuery(q, heap, tbl.SMAs())
		return err
	})
	if err != nil {
		return err
	}
	mark(planSp)
	if q.Where != nil && plan.Grader.HasSelectionSMA(q.Where) {
		g, _ := w.tr.replay(id, planSp, "core.grade", func(*span) error {
			plan.Grader.GradeAll(q.Where)
			return nil
		})
		mark(g).count("buckets", float64(heap.NumBuckets()))
	}

	if plan.IsProjection() {
		sc, err := w.tr.replay(id, root, "exec.scan", func(*span) error {
			it, err := plan.TupleIterator(ctx)
			if err != nil {
				return err
			}
			if err := it.Open(); err != nil {
				it.Close()
				return err
			}
			for {
				if _, ok, err := it.Next(); err != nil || !ok {
					it.Close()
					return err
				}
			}
		})
		if err != nil {
			return err
		}
		st, _ := plan.ScanStats()
		mark(sc).count("rows", float64(st.PagesRead*heap.RecordsPerPage())).count("projection", 1)
		return nil
	}
	return w.walkAggregate(id, root, tbl, q, plan, m, mark, rowsOut)
}

// walkAggregate replays the execution of an aggregation plan.
func (w *walk) walkAggregate(id int, root *span, tbl *engine.Table, q *parser.Query,
	plan *planner.Plan, m menuStmt, mark func(*span) *span, rowsOut int) error {
	heap := tbl.Heap
	where, specs, groupBy := q.Where, q.AggSpecs(), q.GroupBy
	opts := exec.ExecOptions{}

	// Partitioning is part of the statement at dop 2; at dop 1 the whole
	// table is the one partition, and the partitioner is probed on the side
	// (see parallelProbe) so that its cost is known on every workload.
	grades := parallel.PreGrade(heap, plan.Grader, where)
	type part struct {
		buckets    []int
		grades     []core.Grade
		first, end storage.PageID // page range of a full scan; end 0 = end of file
	}
	parts := []part{{grades: grades}}
	if m.dop > 1 {
		psp, _ := w.tr.replay(id, root, "parallel.partition", func(*span) error {
			parts = parts[:0]
			var pages []int64
			if plan.Strategy == planner.StrategyFullScan {
				for _, r := range parallel.PartitionPages(heap.NumPages(), m.dop) {
					parts = append(parts, part{first: r.First, end: r.Last})
					pages = append(pages, int64(r.Last-r.First))
				}
			} else {
				g := parallel.PreGrade(heap, plan.Grader, where)
				for _, p := range parallel.PartitionBuckets(heap, g, m.dop, plan.Strategy == planner.StrategySMAGAggr) {
					parts = append(parts, part{buckets: p.Buckets, grades: p.Grades})
					pages = append(pages, p.Pages)
				}
			}
			w.partPages = append(w.partPages, pages)
			return nil
		})
		mark(psp)
	}

	var partials []map[core.GroupKey]*exec.Partial
	var ms0, ms1 runtime.MemStats
	for _, p := range parts {
		var scan *timedBatches
		var pages []storage.PageID
		runtime.ReadMemStats(&ms0)
		name := "exec.fold"
		if plan.Strategy == planner.StrategySMAGAggr {
			name = "exec.smagaggr"
		}
		fold, err := w.tr.replay(id, root, name, func(*span) error {
			switch plan.Strategy {
			case planner.StrategySMAGAggr:
				op := exec.NewSMAGAggr(heap, where, specs, groupBy, plan.Grader, plan.AggSMAs, plan.CountSMA)
				op.Buckets, op.Grades, op.Opts, op.KeepPartials = p.buckets, p.grades, opts, true
				if err := op.Open(); err != nil {
					op.Close()
					return err
				}
				partials = append(partials, op.Partials())
				return op.Close()
			case planner.StrategySMAScan:
				s := exec.NewBatchSMAScan(heap, where, plan.Grader, opts)
				s.Buckets, s.Grades = p.buckets, p.grades
				scan = &timedBatches{BatchIter: s}
				pages = survivingPages(heap, p.buckets, p.grades)
			default:
				s := exec.NewBatchTableScan(heap, where, opts)
				s.StartPage, s.EndPage = p.first, p.end
				scan = &timedBatches{BatchIter: s}
				end := p.end
				if end == 0 {
					end = storage.PageID(heap.NumPages())
				}
				for pg := p.first; pg < end; pg++ {
					pages = append(pages, pg)
				}
			}
			ga := exec.NewBatchGAggr(scan, heap.Schema(), specs, groupBy)
			ga.KeepPartials = true
			if err := ga.Open(); err != nil {
				return err
			}
			partials = append(partials, ga.Partials())
			return ga.Close()
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		mark(fold).count("partition", 1)
		if scan == nil {
			continue
		}
		w.allocs.fold += float64(ms1.Mallocs - ms0.Mallocs)
		w.allocs.batches += float64(scan.batches)
		fold.count("rows", float64(scan.rows))
		sc := mark(w.tr.placed(id, fold, "exec.scan", scan.d)).count("rows", float64(scan.rows))
		// The page fetches that ran inside the scan, replayed over the
		// page list the scan covered, against the same pool.
		st, _ := w.tr.replay(id, sc, "storage.read_page_into", func(*span) error {
			var buf []byte
			for _, pg := range pages {
				var err error
				if buf, _, err = heap.ReadPageInto(pg, buf[:0]); err != nil {
					return err
				}
			}
			return nil
		})
		mark(st).count("pages", float64(len(pages)))
	}

	merged := partials[0]
	if m.dop > 1 {
		msp, _ := w.tr.replay(id, root, "parallel.merge", func(*span) error {
			merged = make(map[core.GroupKey]*exec.Partial)
			for _, part := range partials {
				for key, p := range part {
					if dst, ok := merged[key]; ok {
						dst.Merge(p, specs)
					} else {
						merged[key] = p
					}
				}
			}
			return nil
		})
		mark(msp)
	}
	fin, err := w.tr.replay(id, root, "exec.finish", func(*span) error {
		rows := exec.FinishPartials(merged, specs, len(groupBy) == 0)
		sorted, err := exec.CollectRows(exec.NewSortRows(&rowSlice{rows: rows}))
		if err == nil && len(sorted) != rowsOut {
			err = fmt.Errorf("replay produced %d rows, the engine %d", len(sorted), rowsOut)
		}
		return err
	})
	mark(fin)
	return err
}

// survivingPages lists the pages of the non-disqualified buckets.
func survivingPages(h *storage.HeapFile, buckets []int, grades []core.Grade) []storage.PageID {
	var out []storage.PageID
	for i, g := range grades {
		if g == core.Disqualifies {
			continue
		}
		b := i
		if buckets != nil {
			b = buckets[i]
		}
		first, last := h.BucketRange(b)
		for p := first; p <= last; p++ {
			out = append(out, p)
		}
	}
	return out
}

// fingerprint times the statement normalizer. The engine fingerprints a
// statement text once per database and caches the result, so the call is part
// of the statement (a replayed child of root) only for a text the database
// has not seen; otherwise it is timed on the side.
func (w *walk) fingerprint(id int, root *span, sql string, native bool) {
	run, parent := w.tr.live, (*span)(nil)
	if !w.fpSeen[sql] {
		w.fpSeen[sql] = true
		run, parent = w.tr.replay, root
	}
	s, _ := run(id, parent, "parser.fingerprint", func(*span) error {
		parser.Fingerprint(sql)
		return nil
	})
	if native {
		s.count("native", 1)
	}
}

// storageProbes times the storage calls a scan is made of, one kind at a
// time, over the first pages of the table. They use their own pools over the
// table's disk manager, so the table's pool and its counters stay as the
// statements left them.
func (w *walk) storageProbes(tbl *engine.Table) error {
	disk := tbl.Disk()
	n := int(min(int64(w.n.pages), disk.NumPages()))
	if n == 0 {
		return fmt.Errorf("%s: table %s has no pages to probe", w.e.w.name, tbl.Name)
	}
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, storage.PageSize)
	}
	pages := func(s *span) { s.count("pages", float64(n)) }
	s, err := w.tr.live(0, nil, "storage.disk_read", func(*span) error {
		for i := range bufs {
			if err := disk.ReadPage(storage.PageID(i), bufs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pages(s)
	s, err = w.tr.live(0, nil, "storage.verify", func(*span) error {
		for i := range bufs {
			if !storage.VerifyPage(bufs[i]) {
				return fmt.Errorf("page %d fails its checksum", i)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pages(s)
	fetchAll := func(pool *storage.BufferPool) func(*span) error {
		return func(*span) error {
			for i := 0; i < n; i++ {
				if _, err := pool.FetchPage(storage.PageID(i)); err != nil {
					return err
				}
				if err := pool.UnpinPage(storage.PageID(i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	resident := storage.NewBufferPool(disk, n+8)
	if err := fetchAll(resident)(nil); err != nil {
		return err
	}
	if s, err = w.tr.live(0, nil, "storage.pool_hit", fetchAll(resident)); err != nil {
		return err
	}
	pages(s)
	if s, err = w.tr.live(0, nil, "storage.pool_miss", fetchAll(storage.NewBufferPool(disk, min(64, max(n/4, 2))))); err != nil {
		return err
	}
	pages(s)
	warm, err := storage.NewHeapFile(resident, tbl.Schema, tbl.BucketPages)
	if err != nil {
		return err
	}
	records := 0
	s, err = w.tr.live(0, nil, "storage.decode", func(*span) error {
		var buf []byte
		for i := 0; i < n; i++ {
			var k int
			var err error
			if buf, k, err = warm.ReadPageInto(storage.PageID(i), buf[:0]); err != nil {
				return err
			}
			records += k
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.count("rows", float64(records))
	return nil
}

// speedupDop2 runs the workload's partitionable statement at dop 1 and dop 2
// in interleaved pairs. It also keeps the partitioner and the merge measured
// on workloads that run serially.
func (w *walk) speedupDop2(db *engine.DB, menu []menuStmt) error {
	var target *menuStmt
	for i := range menu {
		scans := menu[i].strategy == "SMA_Scan+GAggr" || menu[i].strategy == "FullScan+GAggr"
		if scans && (target == nil || menu[i].native && !target.native) {
			target = &menu[i]
		}
	}
	if target == nil {
		return fmt.Errorf("%s: no scanning statement to run in parallel", w.e.w.name)
	}
	var ratios []float64
	for i := 0; i < 2*w.n.probes+1; i++ {
		var t [2]time.Duration
		for _, k := range []int{i % 2, 1 - i%2} { // alternate which side runs first
			start := time.Now()
			if _, _, _, err := drainEngine(db, target.sql, k+1); err != nil {
				return err
			}
			t[k] = time.Since(start)
		}
		ratios = append(ratios, float64(t[0])/float64(t[1]))
	}
	w.res.set("parallel.speedup_dop2", median(ratios), "ratio")
	if target.dop > 1 {
		return nil
	}
	tbl, err := db.Table(w.e.table)
	if err != nil {
		return err
	}
	probe := *target
	probe.native, probe.dop = false, 2
	for i := 0; i < w.n.probes; i++ {
		if err := w.walkRead(db, tbl, planner.New(), probe); err != nil {
			return err
		}
	}
	return nil
}

// drainEngine runs a query through engine.DB to its last row and reports
// the row count, the scan statistics and the plan shape.
func drainEngine(db *engine.DB, sql string, dop int) (rows int, stats exec.ScanStats, strategy string, err error) {
	cur, err := db.QueryContext(context.Background(), sql, engine.WithDOP(dop))
	if err != nil {
		return 0, stats, "", err
	}
	for {
		_, ok, err := cur.Next()
		if err != nil {
			cur.Close()
			return rows, stats, "", err
		}
		if !ok {
			break
		}
		rows++
	}
	stats, _ = cur.Stats()
	return rows, stats, cur.Plan().StrategyName(), cur.Close()
}

// obsOverhead compares the default database with an identical one opened
// without an observer, in interleaved pairs: the median of the per-pair
// ratios cancels drift that hits both alike.
func (w *walk) obsOverhead(db, bare *engine.DB, menu []menuStmt) error {
	ctx := context.Background()
	run := func(d *engine.DB, i int) (time.Duration, error) {
		if !w.hasRead {
			s := w.e.writes(1000 + i)
			start := time.Now()
			_, err := d.ExecContext(ctx, s.sql)
			return time.Since(start), err
		}
		m := menu[i%len(w.e.reads)]
		start := time.Now()
		_, _, _, err := drainEngine(d, m.sql, m.dop)
		return time.Since(start), err
	}
	var ratios []float64
	for i := 0; i < 2*w.n.engine+1; i++ {
		var t [2]time.Duration
		for _, k := range []int{i % 2, 1 - i%2} {
			d := db
			if k == 1 {
				d = bare
			}
			var err error
			if t[k], err = run(d, i); err != nil {
				return err
			}
		}
		ratios = append(ratios, float64(t[0])/float64(t[1]))
	}
	w.res.set("obs.overhead_frac", median(ratios)-1, "fraction")
	return nil
}

// scratch is a private copy of the write path's parts — a heap with the
// table's SMA definitions, and a redo log — so that one statement's rows can
// be pushed through each part alone.
type scratch struct {
	table string
	disk  *storage.DiskManager
	heap  *storage.HeapFile
	smas  []*core.SMA
	log   *wal.Log
	path  string
}

func newScratch(e *env, tbl *engine.Table) (*scratch, error) {
	s := &scratch{table: tbl.Name, path: filepath.Join(e.dir, "probe.wal")}
	var err error
	if s.disk, err = storage.OpenDiskManager(filepath.Join(e.dir, "scratch.tbl")); err != nil {
		return nil, err
	}
	if s.heap, err = storage.NewHeapFile(storage.NewBufferPool(s.disk, 2048), tbl.Schema, tbl.BucketPages); err != nil {
		s.disk.Close()
		return nil, err
	}
	var defs []core.Def
	for _, m := range tbl.SMAs() {
		defs = append(defs, m.Def)
	}
	if s.smas, err = core.BuildMany(s.heap, defs); err != nil {
		s.disk.Close()
		return nil, err
	}
	if s.log, err = wal.Create(s.path, nil, wal.Grouped()); err != nil {
		s.disk.Close()
		return nil, err
	}
	return s, nil
}

func (s *scratch) close() {
	if s.log != nil {
		s.log.Close()
	}
	s.disk.Close()
}

// walkWrite executes one INSERT for real through engine.DB, then pushes its
// rows through each part of the write path alone: parse, log append and
// group-commit wait, heap append, SMA maintenance hooks.
func (w *walk) walkWrite(db *engine.DB, sc *scratch, s *stmt) error {
	id := w.nextID()
	root, err := w.tr.live(id, nil, "engine.exec", func(*span) error {
		_, err := db.ExecContext(context.Background(), s.sql)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w (%.80s)", w.e.w.name, err, s.sql)
	}
	mark := func(sp *span) *span {
		if w.hasWrite {
			sp.count("native", 1)
		}
		return sp
	}
	tuples := s.tuples()
	bytes := float64(len(tuples) * w.e.schema.RecordSize())
	w.userBytes += bytes
	mark(root).count("rows", float64(len(tuples))).count("user_bytes", bytes)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp, err := w.tr.replay(id, root, "parser.parse", func(*span) error {
		_, err := parser.ParseStatement(s.sql)
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	if w.hasWrite {
		w.allocs.parse += float64(ms1.Mallocs - ms0.Mallocs)
		w.allocs.parsed++
	}
	mark(sp)
	w.fingerprint(id, root, s.sql, w.hasWrite)

	sp, err = w.tr.replay(id, root, "wal.commit", func(*span) error {
		b := sc.log.NewBatch()
		for i, t := range tuples {
			b.Insert(sc.table, int64(id), i, t.Data)
		}
		seq, err := sc.log.Commit(b)
		if err != nil {
			return err
		}
		return sc.log.WaitDurable(seq)
	})
	if err != nil {
		return err
	}
	mark(sp)

	// Appends and hooks interleave row by row, as in the engine, because a
	// hook may read the heap; their times are summed per kind.
	var appendD, hookD time.Duration
	for _, t := range tuples {
		start := time.Now()
		rid, err := sc.heap.Append(t)
		mid := time.Now()
		if err != nil {
			return err
		}
		for _, m := range sc.smas {
			if err := m.OnAppend(sc.heap, t, rid); err != nil {
				return err
			}
		}
		appendD += mid.Sub(start)
		hookD += time.Since(mid)
	}
	mark(w.tr.placed(id, root, "storage.heap_append", appendD)).count("rows", float64(len(tuples)))
	mark(w.tr.placed(id, root, "core.on_append", hookD)).count("rows", float64(len(tuples)))
	return nil
}

// noopApplier discards replayed records: what remains is the log's own
// scanning and checksum cost.
type noopApplier struct{}

func (noopApplier) ApplyOp(wal.Op) error                       { return nil }
func (noopApplier) ApplyPageImage(string, int64, []byte) error { return nil }

// walProbes times a bare fsync after an append, then replays the probe log.
func (sc *scratch) walProbes(w *walk) error {
	data := make([]byte, w.e.schema.RecordSize())
	for i := 0; i < 4*w.n.probes; i++ {
		b := sc.log.NewBatch()
		b.Insert(sc.table, int64(i), 0, data)
		if _, err := sc.log.Commit(b); err != nil {
			return err
		}
		if _, err := w.tr.live(0, nil, "wal.fsync", func(*span) error { return sc.log.Sync() }); err != nil {
			return err
		}
	}
	size := sc.log.Size()
	err := sc.log.Close()
	sc.log = nil
	if err != nil {
		return err
	}
	s, err := w.tr.live(0, nil, "wal.replay", func(*span) error {
		_, err := wal.Replay(sc.path, noopApplier{})
		return err
	})
	s.count("bytes", float64(size))
	return err
}

// --- step 4: server and client ------------------------------------------------------------

// replayTransport answers every request with a recorded response body.
type replayTransport struct{ body []byte }

func (t replayTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(t.body))}, nil
}

func (w *walk) serverPhase() error {
	e := w.e
	db, err := sma.Open(e.dbDir, e.opts...)
	if err != nil {
		return err
	}
	defer db.Close()
	sv, err := serve(db, 1)
	if err != nil {
		return err
	}
	defer sv.stop()
	handler, wire := sv.handler, sv.clients[0]
	ctx := context.Background()

	one := func(s *stmt, native bool) error {
		id := w.nextID()
		mark := func(sp *span) *span {
			if native {
				sp.count("native", 1)
			}
			return sp
		}
		route, decode := "/query", func(r io.Reader) error { _, err := server.DecodeQueryRequest(r); return err }
		if s.write {
			route, decode = "/exec", func(r io.Reader) error { _, err := server.DecodeExecRequest(r); return err }
		}
		payload := map[string]any{"sql": s.sql}
		if !s.write && e.dop > 0 {
			payload["dop"] = e.dop
		}
		body, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		root, err := w.tr.live(id, nil, "client."+verb(s), func(*span) error {
			if s.write {
				_, err := wire.Exec(ctx, s.sql)
				return err
			}
			rows, err := wire.Query(ctx, s.sql, client.WithDOP(max(e.dop, 1)))
			if err != nil {
				return err
			}
			defer rows.Close()
			for rows.Next() {
			}
			return rows.Err()
		})
		if err != nil {
			return err
		}
		mark(root).count("wire_pair", 1)
		rec := httptest.NewRecorder()
		hsp, err := w.tr.replay(id, root, "server.handler", func(*span) error {
			req := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d: %.200s", rec.Code, rec.Body.String())
			}
			return nil
		})
		if err != nil {
			return err
		}
		mark(hsp)
		dsp, err := w.tr.replay(id, hsp, "server.decode_req", func(*span) error { return decode(bytes.NewReader(body)) })
		if err != nil {
			return err
		}
		mark(dsp)
		esp, _, _, err := w.tracedEmbedded(id, hsp, db, s)
		if err != nil {
			return err
		}
		mark(esp).count("wire_pair", 1)
		if s.write {
			return nil
		}
		stub := client.New("http://stub", client.WithRetries(1),
			client.WithHTTPClient(&http.Client{Transport: replayTransport{body: rec.Body.Bytes()}}))
		csp, err := w.tr.replay(id, root, "client.decode", func(sp *span) error {
			rows, err := stub.Query(ctx, s.sql)
			if err != nil {
				return err
			}
			defer rows.Close()
			n := 0
			start := time.Now()
			for rows.Next() {
				n++
			}
			sp.count("next_ns", float64(time.Since(start).Nanoseconds())).count("rows", float64(n))
			return rows.Err()
		})
		mark(csp)
		return err
	}
	for _, s := range e.reads {
		for r := 0; r < max(w.n.engine/len(e.reads), 1); r++ {
			if err := one(s, w.hasRead); err != nil {
				return fmt.Errorf("%s: %w (%.80s)", e.w.name, err, s.sql)
			}
		}
	}
	nWrites := w.n.probes
	if w.wires {
		nWrites = w.n.engine / 2
	}
	for i := 0; i < nWrites; i++ {
		s := e.writes(2000 + i)
		if err := one(s, w.wires && w.hasWrite); err != nil {
			return fmt.Errorf("%s: %w (%.80s)", e.w.name, err, s.sql)
		}
	}
	return nil
}

// --- step 5: crash rounds ---------------------------------------------------------------------

// crashRounds inserts with checkpoints disabled, kills the database, and
// times the reopen that replays the log — alternately through sma.Open (the
// user's recovery_ms) and engine.Open — then checks that the row count is
// what was acknowledged and that every SMA still describes the heap.
func (w *walk) crashRounds() error {
	e := w.e
	noCheckpoint := append(append([]sma.Option{}, e.opts...), sma.WithUnsafeCrash(), sma.WithCheckpointBytes(1<<40))
	count := func(db *sma.DB) (string, error) {
		rows, err := collect(db, "select count(*) as C from "+e.table)
		if err != nil {
			return "", err
		}
		return rows[0][0], nil
	}
	for r := 0; r < w.n.crashes; r++ {
		db, err := sma.Open(e.dbDir, noCheckpoint...)
		if err != nil {
			return err
		}
		for i := 0; i < w.n.perCrash; i++ {
			if _, err := db.Exec(e.writes(3000 + r*w.n.perCrash + i).sql); err != nil {
				db.Close()
				return err
			}
		}
		w.res.Attempted++
		acked, err := count(db)
		if err != nil {
			db.Close()
			return err
		}
		if err := db.Crash(); err != nil {
			return err
		}
		if r%2 == 1 {
			var edb *engine.DB
			_, err := w.tr.live(0, nil, "engine.recover", func(*span) error {
				var err error
				edb, err = engine.Open(e.dbDir, w.engineOptions())
				return err
			})
			if err != nil {
				return err
			}
			if !edb.RecoveryStats().Performed {
				w.fail(fmt.Errorf("%s: round %d: engine.Open did not recover", e.w.name, r))
			}
			if err := edb.Close(); err != nil {
				return err
			}
		}
		_, err = w.tr.live(0, nil, "sma.recover", func(s *span) error {
			var err error
			db, err = sma.Open(e.dbDir, noCheckpoint...)
			if r%2 == 1 {
				s.Name = "sma.reopen" // already recovered above: a clean open
			}
			return err
		})
		if err != nil {
			return err
		}
		if r%2 == 0 && !db.RecoveryStats().Performed {
			w.fail(fmt.Errorf("%s: round %d: sma.Open did not recover", e.w.name, r))
		}
		if got, err := count(db); err != nil || got != acked {
			w.fail(fmt.Errorf("%s: round %d: %s rows after recovery, %s acknowledged (%v)", e.w.name, r, got, acked, err))
		}
		tbl, err := db.Table(e.table)
		if err != nil {
			db.Close()
			return err
		}
		for _, m := range tbl.SMAs() {
			if err := tbl.VerifySMA(m.Name); err != nil {
				w.fail(fmt.Errorf("%s: round %d: sma %s after recovery: %w", e.w.name, r, m.Name, err))
			}
		}
		if err := db.Close(); err != nil {
			return err
		}
	}
	return nil
}

// --- step 6: space -----------------------------------------------------------------------------

func (w *walk) spaceAmp() error {
	e := w.e
	db, err := sma.Open(e.dbDir, e.opts...)
	if err != nil {
		return err
	}
	tbl, err := db.Table(e.table)
	if err != nil {
		db.Close()
		return err
	}
	rows, err := tbl.Rows()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var onDisk int64
	err = filepath.WalkDir(e.dbDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			onDisk += info.Size()
		}
		return err
	})
	w.res.set("space_amp", float64(onDisk)/float64(rows*int64(e.schema.RecordSize())), "ratio")
	return err
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
