// Package stats is the engine's workload-introspection store: per-statement
// accumulators keyed by query fingerprint, per-SMA effectiveness counters,
// and per-table scan/DML totals, in the spirit of pg_stat_statements.
//
// Everything here is in-memory and process-local: counters start at zero on
// Open, are zeroed again by `reset stats`, and are never persisted. The
// collector sits on the hot path of every statement, so the statement map
// is sharded by fingerprint and each record touch takes one short
// shard-local critical section.
//
// The package depends only on internal/tuple (for the virtual-table
// snapshots); the engine and obs layers feed it, never the reverse.
package stats

import (
	"sort"
	"sync"
	"time"
)

// latRing is the number of recent latencies kept per statement for the
// p50/p99 estimates. Quantiles are exact over this window, not the full
// history.
const latRing = 128

// Statement accumulates one fingerprint's history. All fields are guarded
// by the owning shard's mutex.
type Statement struct {
	Fingerprint uint64
	Text        string // normalized statement text (literals as "?")

	Calls  int64
	Errors int64

	TotalNS int64
	MinNS   int64
	MaxNS   int64

	Rows         int64 // rows returned by queries
	RowsAffected int64 // rows written by DML

	PagesRead   int64
	PagesPruned int64

	// Bucket grades from the planner, the paper's §3.1 vocabulary.
	Qualify    int64
	Disqualify int64
	Ambivalent int64

	Strategy string // last strategy chosen
	DOP      int    // last degree of parallelism

	WALBytes int64
	WALSyncs int64

	lat  [latRing]int64 // ring of recent latencies, nanoseconds
	latN int64          // total latencies ever recorded
}

// quantilesNS returns the p50 and p99 of the retained latency window.
func (s *Statement) quantilesNS() (p50, p99 int64) {
	n := int(min(s.latN, latRing))
	if n == 0 {
		return 0, 0
	}
	w := make([]int64, n)
	copy(w, s.lat[:n])
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	return w[n/2], w[(n*99)/100]
}

// SMAStats counts one SMA's observed usefulness.
type SMAStats struct {
	Table  string
	Name   string
	Column string
	Kind   string

	Consulted    int64 // queries whose planning consulted this SMA
	Disqualified int64 // buckets this SMA alone disqualified
	PagesSaved   int64 // heap pages those disqualifications skipped
	MaintOps     int64 // maintenance hook invocations (per row per DML)
}

// ColStats tracks how often a table column appears in WHERE predicates and
// what those queries cost; the advisor's raw material.
type ColStats struct {
	Column      string
	Filters     int64 // queries with a predicate atom on this column
	PagesRead   int64 // heap pages read by those queries
	PagesPruned int64 // heap pages those queries skipped via SMAs

	// Which SMA vector the observed operators could disqualify buckets
	// with: col <= v prunes through a min vector (bucket min > v), col >=
	// v through a max vector (bucket max < v), equality through either.
	// The advisor uses the dominant side to suggest the vector that will
	// actually help the workload.
	NeedMin int64
	NeedMax int64
}

// FilterCol is one predicate column observation inside a Record.
type FilterCol struct {
	Col     string
	NeedMin bool
	NeedMax bool
}

// TableStats accumulates per-table scan and DML totals.
type TableStats struct {
	Table string

	Scans       int64
	RowsRead    int64
	PagesRead   int64
	PagesPruned int64

	Inserts      int64
	Updates      int64
	Deletes      int64
	RowsAffected int64
	WALBytes     int64

	cols map[string]*ColStats
}

// Activity is one in-flight statement.
type Activity struct {
	ID          int64
	Kind        string // "query" or "exec"
	Fingerprint uint64
	SQL         string
	Start       time.Time
}

// SMAUse is one selection SMA a query's planning consulted, with what that
// SMA alone bought for the query's predicate.
type SMAUse struct {
	Name   string
	Column string
	Kind   string

	Disqualified int64 // buckets this SMA alone disqualifies
	PagesSaved   int64 // heap pages that spared; zero when the plan scanned everything anyway
}

// Record is everything the engine knows about one finished statement, and
// the collector's only input: the engine opens one per statement, settles
// it once when the statement ends (success or failure), and every
// accumulator here is a fold over its fields.
type Record struct {
	Fingerprint uint64
	Norm        string
	// Query marks a SELECT, whose Kind is the plan's strategy ("none" when
	// it failed before a plan existed). Otherwise Kind names the statement
	// ("insert", "update", "delete", "create table", ...; "invalid" when
	// it did not parse).
	Query bool
	Kind  string
	Table string // empty for virtual tables and for failures before the table was known
	DOP   int
	Dur   time.Duration
	Err   bool

	Rows         int64 // rows a query streamed
	RowsAffected int64 // rows DML wrote

	PagesRead   int64
	PagesPruned int64
	Qualify     int64
	Disqualify  int64
	Ambivalent  int64

	WALBytes int64
	WALSyncs int64

	FilterCols []FilterCol // predicate columns with operator direction, for the advisor
	SMAs       []SMAUse    // selection SMAs the plan consulted
}

const shardCount = 16

type shard struct {
	mu    sync.Mutex
	stmts map[uint64]*Statement
}

// Collector is the process-wide stats store. The zero value is not usable;
// call New. All methods are safe for concurrent use and safe on a nil
// receiver (no-ops / empty results), so callers need no obs-enabled checks.
type Collector struct {
	shards [shardCount]shard

	mu     sync.RWMutex // guards smas and tables maps
	smas   map[string]*SMAStats
	tables map[string]*TableStats

	actMu  sync.Mutex
	acts   map[int64]*Activity
	actSeq int64
}

// New returns an empty collector.
func New() *Collector {
	c := &Collector{
		smas:   make(map[string]*SMAStats),
		tables: make(map[string]*TableStats),
		acts:   make(map[int64]*Activity),
	}
	for i := range c.shards {
		c.shards[i].stmts = make(map[uint64]*Statement)
	}
	return c
}

// Reset zeroes every accumulator. In-flight activities survive — they
// describe live statements, not history.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.stmts = make(map[uint64]*Statement)
		s.mu.Unlock()
	}
	c.mu.Lock()
	c.smas = make(map[string]*SMAStats)
	c.tables = make(map[string]*TableStats)
	c.mu.Unlock()
}

func (c *Collector) stmt(fp uint64, norm string) (*shard, *Statement) {
	sh := &c.shards[fp%shardCount]
	sh.mu.Lock()
	st := sh.stmts[fp]
	if st == nil {
		st = &Statement{Fingerprint: fp, Text: norm, MinNS: int64(^uint64(0) >> 1)}
		sh.stmts[fp] = st
	}
	return sh, st
}

func (st *Statement) observe(dur time.Duration, isErr bool) {
	ns := dur.Nanoseconds()
	st.Calls++
	if isErr {
		st.Errors++
	}
	st.TotalNS += ns
	if ns < st.MinNS {
		st.MinNS = ns
	}
	if ns > st.MaxNS {
		st.MaxNS = ns
	}
	st.lat[st.latN%latRing] = ns
	st.latN++
}

// Record folds one finished statement into the statement, table, column,
// and SMA accumulators. Fields that do not apply to the statement's kind
// are zero and fold as such.
func (c *Collector) Record(r *Record) {
	if c == nil {
		return
	}
	sh, st := c.stmt(r.Fingerprint, r.Norm)
	st.observe(r.Dur, r.Err)
	st.Rows += r.Rows
	st.RowsAffected += r.RowsAffected
	st.PagesRead += r.PagesRead
	st.PagesPruned += r.PagesPruned
	st.Qualify += r.Qualify
	st.Disqualify += r.Disqualify
	st.Ambivalent += r.Ambivalent
	st.WALBytes += r.WALBytes
	st.WALSyncs += r.WALSyncs
	st.Strategy = r.Kind
	st.DOP = r.DOP
	sh.mu.Unlock()

	if r.Table == "" {
		return
	}
	c.mu.Lock()
	ts := c.tableLocked(r.Table)
	switch {
	case r.Query:
		ts.Scans++
	case r.Err: // rolled back: the table saw no insert, update or delete
	case r.Kind == "insert":
		ts.Inserts++
	case r.Kind == "update":
		ts.Updates++
	case r.Kind == "delete":
		ts.Deletes++
	}
	ts.RowsRead += r.Rows
	ts.PagesRead += r.PagesRead
	ts.PagesPruned += r.PagesPruned
	ts.RowsAffected += r.RowsAffected
	ts.WALBytes += r.WALBytes
	for _, fc := range r.FilterCols {
		cs := ts.cols[fc.Col]
		if cs == nil {
			cs = &ColStats{Column: fc.Col}
			ts.cols[fc.Col] = cs
		}
		cs.Filters++
		cs.PagesRead += r.PagesRead
		cs.PagesPruned += r.PagesPruned
		if fc.NeedMin {
			cs.NeedMin++
		}
		if fc.NeedMax {
			cs.NeedMax++
		}
	}
	for _, u := range r.SMAs {
		s := c.smaLocked(r.Table, u.Name)
		s.Column, s.Kind = u.Column, u.Kind
		s.Consulted++
		s.Disqualified += u.Disqualified
		s.PagesSaved += u.PagesSaved
	}
	c.mu.Unlock()
}

func (c *Collector) tableLocked(name string) *TableStats {
	ts := c.tables[name]
	if ts == nil {
		ts = &TableStats{Table: name, cols: make(map[string]*ColStats)}
		c.tables[name] = ts
	}
	return ts
}

func smaKey(table, name string) string { return table + "\x00" + name }

// smaLocked returns the counters of one SMA, creating them on first
// sight; callers hold c.mu for writing.
func (c *Collector) smaLocked(table, name string) *SMAStats {
	key := smaKey(table, name)
	s := c.smas[key]
	if s == nil {
		s = &SMAStats{Table: table, Name: name}
		c.smas[key] = s
	}
	return s
}

// RecordMaint counts n SMA maintenance-hook invocations. The DML path
// tallies its rows and calls it once per statement per SMA, never per row.
func (c *Collector) RecordMaint(table, name string, n int64) {
	if c == nil || n == 0 {
		return
	}
	c.mu.Lock()
	c.smaLocked(table, name).MaintOps += n
	c.mu.Unlock()
}

// BeginActivity registers an in-flight statement and returns a token for
// EndActivity. Its fingerprint may be 0 until SetActivityFingerprint.
func (c *Collector) BeginActivity(kind, sql string, fp uint64) int64 {
	if c == nil {
		return 0
	}
	c.actMu.Lock()
	c.actSeq++
	id := c.actSeq
	c.acts[id] = &Activity{ID: id, Kind: kind, Fingerprint: fp, SQL: sql, Start: time.Now()}
	c.actMu.Unlock()
	return id
}

// SetActivityFingerprint sets the fingerprint of a statement registered by
// BeginActivity, known once its text is parsed.
func (c *Collector) SetActivityFingerprint(id int64, fp uint64) {
	if c == nil || id == 0 {
		return
	}
	c.actMu.Lock()
	if a := c.acts[id]; a != nil {
		a.Fingerprint = fp
	}
	c.actMu.Unlock()
}

// EndActivity removes a statement registered by BeginActivity.
func (c *Collector) EndActivity(id int64) {
	if c == nil || id == 0 {
		return
	}
	c.actMu.Lock()
	delete(c.acts, id)
	c.actMu.Unlock()
}

// Statements snapshots every statement accumulator, most expensive first.
func (c *Collector) Statements() []Statement {
	if c == nil {
		return nil
	}
	var out []Statement
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, st := range sh.stmts {
			out = append(out, *st)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Quantiles exposes the p50/p99 window of a snapshot entry.
func (s *Statement) Quantiles() (p50, p99 time.Duration) {
	a, b := s.quantilesNS()
	return time.Duration(a), time.Duration(b)
}

// SMAs snapshots the per-SMA counters, keyed rows sorted by table then name.
func (c *Collector) SMAs() []SMAStats {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	out := make([]SMAStats, 0, len(c.smas))
	for _, s := range c.smas {
		out = append(out, *s)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Tables snapshots the per-table totals, sorted by name. Column
// observations are copied into each entry's Cols.
func (c *Collector) Tables() []TableSnapshot {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	out := make([]TableSnapshot, 0, len(c.tables))
	for _, ts := range c.tables {
		snap := TableSnapshot{TableStats: *ts}
		snap.cols = nil
		for _, cs := range ts.cols {
			snap.Cols = append(snap.Cols, *cs)
		}
		out = append(out, snap)
	}
	c.mu.RUnlock()
	for i := range out {
		sort.Slice(out[i].Cols, func(a, b int) bool { return out[i].Cols[a].Column < out[i].Cols[b].Column })
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// TableSnapshot is a TableStats copy with its column observations attached.
type TableSnapshot struct {
	TableStats
	Cols []ColStats
}

// Activities snapshots the in-flight statements, oldest first.
func (c *Collector) Activities() []Activity {
	if c == nil {
		return nil
	}
	c.actMu.Lock()
	out := make([]Activity, 0, len(c.acts))
	for _, a := range c.acts {
		out = append(out, *a)
	}
	c.actMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
