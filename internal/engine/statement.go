package engine

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"sma/internal/exec"
	"sma/internal/obs"
	"sma/internal/parser"
	"sma/internal/planner"
	"sma/internal/pred"
	"sma/internal/stats"
)

// statement is the one record of what a statement did. begin opens it,
// the execution path fills in what it learns (the plan, rows streamed,
// the statement kind, rows affected, phase times), and end settles it
// exactly once on every exit path. Everything observable about a finished
// statement — the sma_stat_* rows, the /metrics families, the slow/debug
// log line, the trace a cursor and EXPLAIN ANALYZE hand out — is a
// projection of this struct computed in end, once per statement and never
// per row.
type statement struct {
	// Record is the part the stats collector folds: fingerprint and
	// normalized text, strategy or statement kind, table, dop, duration,
	// rows, error flag, pages and §3.1 bucket grades, WAL traffic.
	stats.Record

	db    *DB // db.opts.Obs == nil: nothing is recorded, only resources are released
	sql   string
	qid   string
	start time.Time
	act   int64         // activity-registry token
	entry *stmtEntry    // a query's statement cache entry: looked up by begin, current once planned
	plan  *planner.Plan // the executed plan of a query, once there is one
	work  exec.Work     // what the plan's pipeline measured, settled at end
	// clock is the phase vector of a query, lap the end of the phase last
	// charged to it. It runs on every query; traced only decides whether
	// end renders it into trace.
	clock  obs.Clock
	lap    time.Time
	traced bool
	trace  *obs.TraceNode
	// locked records that the statement holds db.mu in read mode: a query
	// from planning until its pipeline is open (an aggregation) or its
	// stream ends (a projection); unlock or end releases it.
	locked bool
	done   bool
}

// begin opens the record of one statement and returns the context it
// runs under (Background for a nil one). The in-flight statement is
// registered before planning so the activity table's own snapshot —
// materialized at plan time — includes the query reading it. Its text is
// not read here: a read the statement cache holds takes the entry's
// fingerprint, any other statement the one its parse writes (parsed), and
// end fingerprints a text that never reached its parse.
// Every begin is paired with exactly one end.
func (db *DB) begin(ctx context.Context, sql string, query, traced bool) (context.Context, *statement) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &statement{db: db, sql: sql}
	s.Query, s.Kind = query, "invalid"
	activity := "exec"
	if query {
		s.Kind, activity = "none", "query"
		s.entry = db.stmts.get(sql)
	}
	if o := db.opts.Obs; o != nil {
		// Prefer an id the serving layer already stamped on the context so
		// engine and request logs correlate.
		if s.qid = obs.QueryIDFrom(ctx); s.qid == "" {
			s.qid = o.NextQueryID()
		}
		if s.entry != nil {
			s.Fingerprint, s.Norm = s.entry.fp, s.entry.norm
		}
		s.act = o.Stats.BeginActivity(activity, sql, s.Fingerprint)
	}
	s.start, s.traced = time.Now(), traced
	s.lap = s.start
	return ctx, s
}

// parse parses the statement's text, with the fingerprint and normal form
// of its record when there is an observer to read them: they come from the
// parse's own token stream (Fingerprint's for a text that does not parse),
// and the statement's activity row takes the fingerprint.
func (s *statement) parse() (parser.Statement, error) {
	o := s.db.opts.Obs
	if o == nil {
		return parser.ParseStatement(s.sql)
	}
	st, fp, norm, err := parser.ParseStatementFingerprint(s.sql)
	s.parsed(o, fp, norm)
	return st, err
}

// parseQuery is parse for the text of a read.
func (s *statement) parseQuery() (*parser.Query, error) {
	o := s.db.opts.Obs
	if o == nil {
		return parser.ParseQuery(s.sql)
	}
	q, fp, norm, err := parser.ParseQueryFingerprint(s.sql)
	s.parsed(o, fp, norm)
	return q, err
}

// parsed records the fingerprint and normal form a parse wrote.
func (s *statement) parsed(o *obs.Observer, fp uint64, norm string) {
	s.Fingerprint, s.Norm = fp, norm
	o.Stats.SetActivityFingerprint(s.act, fp)
}

// rlock takes the database read lock for the statement; end releases it.
// The wait for the lock is charged to no phase.
func (s *statement) rlock() {
	s.db.mu.RLock()
	s.locked = true
	s.lap = time.Now()
}

// unlock releases the read lock the statement holds, if it does.
func (s *statement) unlock() {
	if s.locked {
		s.locked = false
		s.db.mu.RUnlock()
	}
}

// mark charges the time since the last mark to phase p.
func (s *statement) mark(p obs.Phase) {
	now := time.Now()
	s.clock.Lap(p, now.Sub(s.lap))
	s.lap = now
}

// end settles the statement with the error that ended it (nil on
// success): the record is completed from the plan, a traced query's clock
// is rendered into its trace, and — the only place any of this happens — the
// activity is deregistered, the collector, the engine metric families and
// the log absorb the record, and the read lock is released if the
// statement still holds it. Idempotent, so a cursor's Close after its
// stream ended is harmless.
func (s *statement) end(err error) {
	if s.done {
		return
	}
	s.done = true
	s.Err = err != nil
	if s.Query {
		s.mark(obs.PhaseStream)
		s.settle()
	}
	s.Dur = time.Since(s.start)
	if s.traced {
		workers := make([]obs.Tally, len(s.work.Workers))
		for i, w := range s.work.Workers {
			workers[i] = tally(w.Busy, 0, w.ScanStats)
		}
		s.trace = s.clock.Trace(s.sql, s.Kind, s.DOP, s.Dur, workers)
	}
	if o := s.db.opts.Obs; o != nil {
		if s.Norm == "" {
			// Cancelled, refused or panicked before its text was parsed.
			s.Fingerprint, s.Norm = parser.Fingerprint(s.sql)
		}
		o.Stats.EndActivity(s.act)
		if s.Kind != "reset stats" { // don't repopulate what reset just cleared
			o.Stats.Record(&s.Record)
		}
		em := o.Engine
		slow, level, msg := em.SlowExecs, slog.LevelDebug, "exec"
		if s.Query {
			slow, msg = em.SlowQueries, "query"
			em.Queries.With(s.Kind).Inc()
			em.QuerySeconds.With(s.Kind).ObserveDuration(s.Dur)
			em.Rows.Add(s.Rows)
			em.PagesRead.Add(s.PagesRead)
			em.Buckets.With("qualify").Add(s.Qualify)
			em.Buckets.With("disqualify").Add(s.Disqualify)
			em.Buckets.With("ambivalent").Add(s.Ambivalent)
			if graded := s.Qualify + s.Disqualify + s.Ambivalent; graded > 0 {
				em.AmbivalentShare.Observe(float64(s.Ambivalent) / float64(graded))
			}
			if !s.Err {
				s.observeWorkers(o.Parallel)
			}
		} else {
			em.Execs.With(s.Kind).Inc()
			em.ExecSeconds.With(s.Kind).ObserveDuration(s.Dur)
		}
		if o.Slow > 0 && s.Dur >= o.Slow {
			slow.Inc()
			level, msg = slog.LevelWarn, "slow "+msg
		}
		// The log record is built only for a logger that will take it: most
		// statements are neither slow nor logged at debug level.
		if log := o.Logger(); log.Enabled(context.Background(), level) {
			attrs := []any{"qid", s.qid, "fingerprint", fmt.Sprintf("%016x", s.Fingerprint), "dur", s.Dur}
			buckets := fmt.Sprintf("%d/%d/%d", s.Qualify, s.Disqualify, s.Ambivalent)
			if s.Query {
				attrs = append(attrs, "strategy", s.Kind, "rows", s.Rows, "buckets", buckets)
			} else {
				attrs = append(attrs, "kind", s.Kind, "table", s.Table, "rows_affected", s.RowsAffected,
					"pages_read", s.PagesRead, "buckets", buckets, "wal_bytes", s.WALBytes, "wal_syncs", s.WALSyncs)
			}
			if err != nil {
				attrs = append(attrs, "err", err)
			}
			if level == slog.LevelWarn {
				attrs = append(attrs, "sql", s.sql)
			}
			log.Log(context.Background(), level, msg, attrs...)
		}
	}
	s.unlock()
}

// settle completes a query's record from its executed plan — the strategy,
// the merged scan statistics, the phase counters — and the per-SMA
// attribution its statement cache entry computed under the lock. It reads
// no database state, so an aggregation that released the read lock when
// its pipeline opened settles without it. The statement's own WAL traffic
// was recorded as it committed.
func (s *statement) settle() {
	plan := s.plan
	if plan == nil {
		return
	}
	s.Kind, s.DOP = plan.StrategyName(), plan.DOP
	ss, _ := plan.ScanStats()
	s.PagesRead = int64(ss.PagesRead)
	s.Qualify = int64(ss.Qualifying)
	s.Disqualify = int64(ss.Disqualifying)
	s.Ambivalent = int64(ss.Ambivalent)
	s.PagesPruned = int64(ss.PagesPruned)
	s.work = plan.Work()
	s.settlePhases(ss)
	if plan.Mem != nil || s.db.opts.Obs == nil {
		return
	}
	s.Table = plan.Query.Table
	if plan.Query.Where == nil {
		return
	}
	for _, a := range pred.Atoms(plan.Query.Where) {
		// Which vector could disqualify buckets: col <= v prunes when
		// bucket min > v, col >= v when bucket max < v, equality through
		// either side. In col-vs-col atoms the right column's direction
		// mirrors (A < B compares A's min against B's max).
		var lMin, lMax bool
		switch a.Op {
		case pred.Lt, pred.Le:
			lMin = true
		case pred.Gt, pred.Ge:
			lMax = true
		default:
			lMin, lMax = true, true
		}
		s.FilterCols = mergeFilterCol(s.FilterCols, a.Col, lMin, lMax)
		s.FilterCols = mergeFilterCol(s.FilterCols, a.RightCol, lMax, lMin)
	}
	// Per-SMA effectiveness: what each consulted SMA alone would
	// disqualify, computed once per statement cache entry.
	if s.entry != nil {
		s.SMAs = s.entry.uses
	}
}

// openPhase is the phase a plan's pipeline Open runs in: the parallel run
// and its merge, a serial aggregation's fold, or the start of a
// projection's stream.
func openPhase(p *planner.Plan) obs.Phase {
	switch {
	case p.DOP > 1:
		return obs.PhaseMerge
	case p.IsProjection():
		return obs.PhaseStream
	}
	return obs.PhaseFold
}

// settlePhases completes the phase vector from the executed pipeline. The
// scan ran inside the phase its pipeline was opened and drained in, which
// measured it, so its time moves out of that phase into scan. The scan's
// counters go on scan — on merge for a parallel run, whose worker rows
// carry their own — the groups on fold or merge, the rows handed out on
// stream.
func (s *statement) settlePhases(ss exec.ScanStats) {
	c, open, scan := &s.clock, openPhase(s.plan), obs.PhaseScan
	if open == obs.PhaseMerge {
		scan = obs.PhaseMerge
	} else {
		c.Carve(open, scan, s.work.ScanTime)
	}
	c.Phase[scan] = tally(c.Phase[scan].Dur, s.work.Scanned, ss)
	if open != obs.PhaseStream {
		c.Phase[open].Rows = s.work.Groups
	}
	c.Phase[obs.PhaseStream].Rows = s.Rows
}

// tally is one phase's or worker's share of a statement: its time, the
// rows it produced and what its scan counted.
func tally(d time.Duration, rows int64, ss exec.ScanStats) obs.Tally {
	return obs.Tally{Dur: d, Counters: obs.Counters{
		Rows: rows, Batches: int64(ss.Batches), PagesRead: int64(ss.PagesRead),
		PagesPrefetched: int64(ss.PagesPrefetched), PrefetchHits: int64(ss.PrefetchHits),
		Qualify: int64(ss.Qualifying), Disqualify: int64(ss.Disqualifying), Ambivalent: int64(ss.Ambivalent),
	}}
}

// observeWorkers feeds the parallel families from a parallel query's worker
// rows: partition skew as the most heap pages a worker read over the mean,
// and each worker's busy time over the wall time of the merge phase it ran
// in.
func (s *statement) observeWorkers(m *obs.ParallelMetrics) {
	ws, wall := s.work.Workers, s.clock.Phase[obs.PhaseMerge].Dur
	var sum, most int
	for _, w := range ws {
		sum, most = sum+w.PagesRead, max(most, w.PagesRead)
		if wall > 0 {
			m.WorkerUtilization.Observe(float64(w.Busy) / float64(wall))
		}
	}
	if sum > 0 {
		m.PartitionSkew.Observe(float64(most) * float64(len(ws)) / float64(sum))
	}
}

// mergeFilterCol folds one predicate-column observation into the list,
// OR-ing the vector needs when the column already appears; filter lists
// are tiny, so the linear scan beats allocating a set per query.
func mergeFilterCol(cols []stats.FilterCol, col string, needMin, needMax bool) []stats.FilterCol {
	if col == "" {
		return cols
	}
	for i := range cols {
		if cols[i].Col == col {
			cols[i].NeedMin = cols[i].NeedMin || needMin
			cols[i].NeedMax = cols[i].NeedMax || needMax
			return cols
		}
	}
	return append(cols, stats.FilterCol{Col: col, NeedMin: needMin, NeedMax: needMax})
}
