package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sma"
	"sma/client"
	"sma/internal/experiments"
	"sma/internal/server"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// stmt is one generated statement with what the benchmark needs to check
// its outcome and to replay its pieces against single layers.
type stmt struct {
	write bool
	sql   string
	// Reads: the plan shape the workload exists to exercise, and the check
	// of the rendered rows against the reference.
	strategy string
	check    func(got [][]string) error
	// Writes: the inserted rows as storage tuples (for the layer probes)
	// and a callback run once the statement is acknowledged.
	tuples func() []tuple.Tuple
	acked  func()
	nrows  int
}

// workload is one row of the ledger's workload table.
type workload struct {
	name  string
	why   string
	heavy bool // every statement scans the whole table: the layer walk runs fewer
	// setup generates the inputs from the seed, loads them, and opens the
	// system the way the workload runs it: everything setup_s covers.
	setup func(e *env) error
	// prepare builds statement streams and references (not part of setup_s:
	// it is the benchmark's own bookkeeping).
	prepare func(e *env) error
}

// env is a workload that has been set up.
type env struct {
	w     *workload
	seed  int64
	sc    scale
	dir   string // work directory of this set-up
	dbDir string
	opts  []sma.Option
	db    *sma.DB

	table     string        // table the statements address
	schema    *tuple.Schema // its schema
	dop       int           // query parallelism the workload asks for
	poolPages int           // buffer pool the workload opens with (0: the default)

	items  []tpcd.LineItem // generated LINEITEM rows (LINEITEM workloads)
	wRows  []wRow          // generated initial W rows (serve_mixed)
	ring   []ingestStmt    // pre-rendered INSERTs (ingest)
	reads  []*stmt         // distinct read statements, for the layer walk
	writes func(i int) *stmt
	// probes are one read per plan shape over the workload's table; the
	// layer walk runs those whose shape the workload's own reads lack.
	probes []*stmt

	// next yields client c's next statement; streams are deterministic
	// functions of the seed.
	next []func() *stmt
	// run executes one statement for client c and returns its rendered
	// rows (reads) and the plan shape the system reported.
	run func(c int, s *stmt) ([][]string, string, time.Duration, error)
	// post is the end-of-run correctness gate (may be nil).
	post func() error

	// serve_mixed.
	served *served
	wSum   map[byte]float64 // expected per-key sum(V), acknowledged inserts included
	wCnt   map[byte]float64

	// ingest.
	ackRows, ackQty float64
}

type ingestStmt struct {
	sql   string
	qty   float64
	first int // index of the statement's first row in env.items
}

const ingestRows = 100 // rows per ingest INSERT

// served is an in-process query server on a loopback listener with its
// client connections.
type served struct {
	srv     *server.Server
	httpSrv *http.Server
	handler http.Handler
	hcs     []*http.Client
	clients []*client.Client
}

// serve starts a server over db with n client connections. A shed statement
// counts as failed instead of being retried behind the benchmark's back.
func serve(db *sma.DB, n int) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &served{srv: server.New(db, server.Config{})}
	sv.handler = sv.srv.Handler()
	sv.httpSrv = &http.Server{Handler: sv.handler}
	go sv.httpSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	for c := 0; c < n; c++ {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		sv.hcs = append(sv.hcs, hc)
		sv.clients = append(sv.clients, client.New("http://"+ln.Addr().String(),
			client.WithHTTPClient(hc), client.WithRetries(1)))
	}
	return sv, nil
}

// stop drains the server; the database is the caller's to close afterwards.
func (sv *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sv.srv.Shutdown(ctx)
	if herr := sv.httpSrv.Shutdown(ctx); err == nil {
		err = herr
	}
	for _, hc := range sv.hcs {
		hc.CloseIdleConnections()
	}
	return err
}

func (e *env) close() error {
	var err error
	if e.served != nil {
		err = e.served.stop()
		e.served = nil
	}
	if e.db != nil {
		if cerr := e.db.Close(); err == nil {
			err = cerr
		}
		e.db = nil
	}
	return err
}

// discard closes the workload and removes its directory.
func (e *env) discard() {
	e.close()
	os.RemoveAll(e.dir)
}

// runEmbedded executes a statement through the public sma package. A read's
// latency runs from the call to the last row drained; a write's to its
// acknowledgement.
func (e *env) runEmbedded(_ int, s *stmt) ([][]string, string, time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	if s.write {
		_, err := e.db.ExecContext(ctx, s.sql)
		return nil, "", time.Since(start), err
	}
	var opts []sma.QueryOption
	if e.dop > 0 {
		opts = append(opts, sma.WithQueryParallelism(e.dop))
	}
	rows, err := e.db.QueryContext(ctx, s.sql, opts...)
	if err != nil {
		return nil, "", time.Since(start), err
	}
	out, err := renderAll(rows)
	lat := time.Since(start)
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	return out, rows.Strategy(), lat, err
}

// renderAll drains a cursor into rendered rows.
func renderAll(rows *sma.Rows) ([][]string, error) {
	var out [][]string
	for rows.Next() {
		r, err := rows.RowStrings()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, rows.Err()
}

// collect runs a query to completion.
func collect(db *sma.DB, sql string) ([][]string, error) {
	rows, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	res, err := sma.Collect(rows)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// runWire executes a statement through sma/client against the in-process
// server.
func (e *env) runWire(c int, s *stmt) ([][]string, string, time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	if s.write {
		_, err := e.served.clients[c].Exec(ctx, s.sql)
		return nil, "", time.Since(start), err
	}
	rows, err := e.served.clients[c].Query(ctx, s.sql, client.WithDOP(1))
	if err != nil {
		return nil, "", time.Since(start), err
	}
	var out [][]string
	for rows.Next() {
		out = append(out, rows.Row())
	}
	lat := time.Since(start)
	strategy := rows.Strategy()
	if err := rows.Err(); err != nil {
		rows.Close()
		return nil, strategy, lat, err
	}
	return out, strategy, lat, rows.Close()
}

// cycle returns a stream that walks a seeded shuffle of pool round-robin, so
// every seed and every run sees the same mix of statements.
func cycle(pool []*stmt, seed int64) func() *stmt {
	order := rand.New(rand.NewSource(seed)).Perm(len(pool))
	i := 0
	return func() *stmt {
		s := pool[order[i%len(order)]]
		i++
		return s
	}
}

// --- the LINEITEM read workloads ----------------------------------------------------------

// setupLineItem is the set-up of the three embedded read workloads: generate,
// load, build the SMAs, close, and reopen with the workload's pool.
func setupLineItem(ambiv float64, pool func(scale) int, dop int) func(e *env) error {
	return func(e *env) error {
		e.table, e.schema, e.dop = "LINEITEM", tpcd.LineItemSchema(), dop
		perPage, err := recordsPerPage(e.dir, e.schema)
		if err != nil {
			return err
		}
		e.items = genLineItems(e.seed, e.sc.sf, ambiv, perPage)
		if err := loadLineItem(e.dbDir, e.items, false); err != nil {
			return err
		}
		e.poolPages = pool(e.sc)
		e.opts = []sma.Option{sma.WithPoolPages(e.poolPages)}
		e.db, err = sma.Open(e.dbDir, e.opts...)
		e.run = e.runEmbedded
		return err
	}
}

// lineItemWrites gives the read workloads a write stream for the layer walk's
// write-side probes: 100-row LINEITEM inserts that re-append the first rows.
func (e *env) lineItemWrites() func(i int) *stmt {
	return func(i int) *stmt {
		first := (i * ingestRows) % (len(e.items) - ingestRows)
		rows := e.items[first : first+ingestRows]
		sql, _ := lineItemInsert(rows)
		return &stmt{write: true, sql: sql, nrows: len(rows),
			tuples: func() []tuple.Tuple { return lineItemTuples(rows) }}
	}
}

// lineItemProbes are one statement per plan shape over a LINEITEM table.
func (e *env) lineItemProbes() []*stmt {
	return []*stmt{
		{sql: q1SQL(q1Cutoff(90), false), strategy: "SMA_GAggr"},
		{sql: q1SQL(q1Cutoff(90), true), strategy: "FullScan+GAggr"},
		{sql: rangeSQL(rangeCutoffs(e.items, []float64{0.02})[0]), strategy: "SMA_Scan+GAggr"},
	}
}

func prepareQ1(uncovered bool, strategy string) func(e *env) error {
	return func(e *env) error {
		for _, d := range q1Deltas {
			ref := q1Reference(e.items, q1Cutoff(d), uncovered)
			e.reads = append(e.reads, &stmt{sql: q1SQL(q1Cutoff(d), uncovered), strategy: strategy,
				check: func(got [][]string) error { return checkRows(got, ref) }})
		}
		e.next = []func() *stmt{cycle(e.reads, e.seed)}
		e.writes, e.probes = e.lineItemWrites(), e.lineItemProbes()
		return nil
	}
}

func prepareRange(e *env) error {
	// Planting moved two rows per ambivalent page to the domain's ends, which
	// shifts these quantiles by well under the step between selectivities.
	for _, c := range rangeCutoffs(e.items, rangeSelectivities) {
		ref := rangeReference(e.items, c)
		e.reads = append(e.reads, &stmt{sql: rangeSQL(c), strategy: "SMA_Scan+GAggr",
			check: func(got [][]string) error { return checkRows(got, ref) }})
	}
	e.next = []func() *stmt{cycle(e.reads, e.seed)}
	e.writes, e.probes = e.lineItemWrites(), e.lineItemProbes()
	return nil
}

// --- ingest ----------------------------------------------------------------------------------

func setupIngest(e *env) error {
	e.table, e.schema = "LINEITEM", tpcd.LineItemSchema()
	n := e.sc.ingestSet * ingestRows
	e.items = tpcd.GenLineItems(tpcd.Config{
		ScaleFactor: float64(n) / 6001215, Seed: e.seed, Order: tpcd.OrderSorted})
	for first := 0; first+ingestRows <= len(e.items); first += ingestRows {
		sql, qty := lineItemInsert(e.items[first : first+ingestRows])
		e.ring = append(e.ring, ingestStmt{sql: sql, qty: qty, first: first})
	}
	if err := loadLineItem(e.dbDir, nil, true); err != nil {
		return err
	}
	e.opts = []sma.Option{sma.WithUnsafeCrash()}
	var err error
	e.db, err = sma.Open(e.dbDir, e.opts...)
	e.run = e.runEmbedded
	return err
}

func prepareIngest(e *env) error {
	e.writes = func(i int) *stmt {
		r := e.ring[i%len(e.ring)]
		rows := e.items[r.first : r.first+ingestRows]
		return &stmt{write: true, sql: r.sql, nrows: ingestRows,
			tuples: func() []tuple.Tuple { return lineItemTuples(rows) },
			acked:  func() { e.ackRows += ingestRows; e.ackQty += r.qty }}
	}
	i := 0
	e.next = []func() *stmt{func() *stmt { s := e.writes(i); i++; return s }}
	// The layer walk's read probe: Query 1 over whatever has been ingested.
	// Its answer changes with every insert, so it carries no reference.
	e.probes = e.lineItemProbes()
	e.reads = e.probes[:1]
	e.post = e.ingestCrashCheck
	return nil
}

// ingestCrashCheck kills the database, reopens it (replaying the redo log)
// and checks that exactly the acknowledged rows are there and that all
// eight SMAs still describe the heap.
func (e *env) ingestCrashCheck() error {
	if err := e.db.Crash(); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	db, err := sma.Open(e.dbDir, e.opts...)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	e.db = db
	return e.ingestVerify()
}

func (e *env) ingestVerify() error {
	got, err := collect(e.db, totalsSQL)
	if err != nil {
		return err
	}
	want := [][]string{{renderAgg(e.ackRows), renderAgg(e.ackQty)}}
	if err := checkExact(got, want); err != nil {
		return fmt.Errorf("acknowledged rows after restart: %w", err)
	}
	tbl, err := e.db.Table(e.table)
	if err != nil {
		return err
	}
	for _, def := range experiments.Q1SMADefs() {
		if err := tbl.VerifySMA(def.Name); err != nil {
			return fmt.Errorf("sma %s after restart: %w", def.Name, err)
		}
	}
	return nil
}

// --- serve_mixed -------------------------------------------------------------------------------

const (
	serveAggSQL   = "select K, sum(V) as S, count(*) as C from W group by K order by K"
	serveClients  = 2
	serveRangeSel = 0.12 // range cutoffs fall in the first 12 % of the loaded days
)

func setupServe(e *env) error {
	e.table, e.schema = "W", wSchema()
	var err error
	if e.wRows, err = loadW(e.dbDir, e.seed, e.sc.serveRows); err != nil {
		return err
	}
	if e.db, err = sma.Open(e.dbDir); err != nil {
		return err
	}
	e.served, err = serve(e.db, serveClients)
	e.run = e.runWire
	return err
}

func prepareServe(e *env) error {
	e.wSum, e.wCnt = map[byte]float64{}, map[byte]float64{}
	for _, r := range e.wRows {
		e.wSum[r.k] += r.v
		e.wCnt[r.k]++
	}
	lastDay := e.wRows[len(e.wRows)-1].day

	// Range aggregates read only the first days, which inserts (always later
	// days) never touch: their answers are fixed at set-up.
	var ranges []*stmt
	for d := int32(1); d <= int32(serveRangeSel*float64(lastDay)); d++ {
		var cnt, sum float64
		for _, r := range e.wRows {
			if r.day <= d {
				cnt++
				sum += r.v
			}
		}
		want := [][]string{{renderAgg(cnt), renderAgg(sum)}}
		ranges = append(ranges, &stmt{
			sql: fmt.Sprintf("select count(*) as C, sum(V) as S from W where D <= date '%s'",
				tuple.FormatDate(wFirstDay+d)),
			strategy: "SMA_GAggr",
			check:    func(got [][]string) error { return checkExact(got, want) }})
	}
	// Projections stop after 50 matches, all of which sit in the first pages.
	var projs []*stmt
	for n := 0; n < 300; n += 10 {
		var want [][]string
		for _, r := range e.wRows {
			if r.n >= int64(n) {
				want = append(want, []string{tuple.FormatDate(wFirstDay + r.day), string(r.k),
					strconv.FormatFloat(r.v, 'g', -1, 64)})
				if len(want) == 50 {
					break
				}
			}
		}
		projs = append(projs, &stmt{
			sql:      fmt.Sprintf("select D, K, V from W where N >= %d limit 50", n),
			strategy: "FullScan",
			check:    func(got [][]string) error { return checkExact(got, want) }})
	}

	e.next = nil
	for c := 0; c < serveClients; c++ {
		rng := rand.New(rand.NewSource(e.seed*31 + int64(c)))
		gen := &wGen{rng: rng, day: lastDay + 1}
		// The grouped aggregate sees every acknowledged insert: its total
		// count may only grow between two reads of one client.
		var seen float64
		agg := &stmt{sql: serveAggSQL, strategy: "SMA_GAggr", check: func(got [][]string) error {
			var total float64
			for _, row := range got {
				if len(row) != 3 {
					return fmt.Errorf("grouped aggregate row has %d columns", len(row))
				}
				c, err := strconv.ParseFloat(row[2], 64)
				if err != nil {
					return err
				}
				total += c
			}
			if len(got) != 5 || total < seen {
				return fmt.Errorf("grouped aggregate: %d groups, count %v after %v", len(got), total, seen)
			}
			seen = total
			return nil
		}}
		e.next = append(e.next, func() *stmt {
			switch roll := rng.Intn(100); {
			case roll < 10:
				rows := make([]wRow, 1+rng.Intn(4))
				for i := range rows {
					rows[i] = gen.next()
				}
				return e.serveInsert(rows)
			case roll < 55:
				return agg
			case roll < 85:
				return ranges[rng.Intn(len(ranges))]
			default:
				return projs[rng.Intn(len(projs))]
			}
		})
	}
	e.reads = []*stmt{{sql: serveAggSQL, strategy: "SMA_GAggr"}, ranges[len(ranges)/2], projs[len(projs)/2]}
	early := tuple.FormatDate(wFirstDay + lastDay/20)
	e.probes = []*stmt{
		e.reads[0],
		{sql: "select K, max(N) as M from W group by K order by K", strategy: "FullScan+GAggr"},
		{sql: "select K, max(N) as M, count(*) as C from W where D <= date '" + early + "' group by K order by K",
			strategy: "SMA_Scan+GAggr"},
	}
	wgen := &wGen{rng: rand.New(rand.NewSource(e.seed * 37)), day: lastDay + 1}
	e.writes = func(int) *stmt {
		return e.serveInsert([]wRow{wgen.next(), wgen.next(), wgen.next()})
	}
	e.post = e.serveTotalsCheck
	return nil
}

// serveInsert builds an INSERT whose acknowledgement folds its rows into the
// expected totals (the window serializes acked callbacks).
func (e *env) serveInsert(rows []wRow) *stmt {
	return &stmt{write: true, sql: wInsert(rows), nrows: len(rows),
		tuples: func() []tuple.Tuple { return wTuples(rows) },
		acked: func() {
			for _, r := range rows {
				e.wSum[r.k] += r.v
				e.wCnt[r.k]++
			}
		}}
}

// serveTotalsCheck compares the quiesced table with the loaded rows plus
// every acknowledged insert.
func (e *env) serveTotalsCheck() error {
	got, err := collect(e.db, serveAggSQL)
	if err != nil {
		return err
	}
	var want [][]string
	for k := byte('A'); k <= 'E'; k++ {
		want = append(want, []string{string(k), renderAgg(e.wSum[k]), renderAgg(e.wCnt[k])})
	}
	if err := checkExact(got, want); err != nil {
		return fmt.Errorf("totals after the run: %w", err)
	}
	return nil
}

// --- the workload table --------------------------------------------------------------------

var workloads = []*workload{
	{
		name:    "q1_sma",
		why:     "Paper Query 1 answered from SMA vectors (SMA_GAggr, warm, <= 1 page read): fixed per-statement cost of parser, planner, grading, SMA fold and bookkeeping",
		setup:   setupLineItem(0, func(s scale) int { return s.warmPool }, 1),
		prepare: prepareQ1(false, "SMA_GAggr"),
	},
	{
		name: "q1_scan_cold", heavy: true,
		why:     "Query 1 plus an aggregate no SMA covers (FullScan+GAggr) with the table 3.8x the pool: storage reads, checksum verify, eviction, prefetch, decode and fold",
		setup:   setupLineItem(0, func(s scale) int { return s.coldPool }, 1),
		prepare: prepareQ1(true, "FullScan+GAggr"),
	},
	{
		name:    "range_ambiv",
		why:     "Selective shipdate range over 20 % ambivalent buckets (SMA_Scan+GAggr, warm, dop 2): grading decides what is read; the only workload that partitions and merges",
		setup:   setupLineItem(ambivalentFrac, func(s scale) int { return s.warmPool }, 2),
		prepare: prepareRange,
	},
	{
		name:    "serve_mixed",
		why:     "HTTP server on loopback, 2 client connections, 45/30/15/10 % grouped aggregate, range aggregate, projection, small INSERT: wire path, admission, readers beside writers",
		setup:   setupServe,
		prepare: prepareServe,
	},
	{
		name:    "ingest",
		why:     "100-row INSERTs into an empty LINEITEM with the eight SMAs defined, grouped fsync, then crash and reopen: parse, WAL, heap append, 8 hooks per row, recovery",
		setup:   setupIngest,
		prepare: prepareIngest,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newEnv sets a workload up in a fresh directory under work.
func newEnv(w *workload, seed int64, sc scale, work string, round int) (*env, error) {
	dir := filepath.Join(work, fmt.Sprintf("%s-%d", w.name, round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, sc: sc, dir: dir, dbDir: filepath.Join(dir, "db")}
	if err := w.setup(e); err != nil {
		e.close()
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return e, nil
}
