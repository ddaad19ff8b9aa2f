package engine

import (
	"sync"

	"sma/internal/core"
	"sma/internal/parser"
	"sma/internal/planner"
	"sma/internal/stats"
)

// stmtCacheMax bounds the statement cache; a store into a full cache drops
// the whole map first, and it refills on demand — correctness never depends
// on an entry being present.
const stmtCacheMax = 1024

// stmtCacheMaxLen is the longest text the statement cache keeps. The cache
// pays for short reads that repeat — a dashboard's queries; a load's
// statements are long, never repeat, and keyed by their text would pin
// megabytes of dead SQL while paying for a map insert each.
const stmtCacheMaxLen = 1 << 10

// stmtEntry is what the statement cache knows about one read's text. It is
// immutable once stored: a newer plan is a new entry.
type stmtEntry struct {
	// fp and norm are the text's fingerprint and normal form, written by
	// the parse that made query (zero on a database without an observer,
	// which never reads them).
	fp   uint64
	norm string
	// query is the parsed statement, shared by every plan built from it
	// (Bind writes nothing).
	query *parser.Query
	// plan is the plan template as the planner left it — strategy, SMAs,
	// grades and their runs, cost, and an aggregation's binding (its
	// checks, SMA-file sources, fold and selection programs) — before any
	// pipeline was built from it; nil over a virtual table, whose plan
	// holds a snapshot taken when it is built.
	plan *planner.Plan
	// layout is where the cursor's columns come from (see cursorLayout),
	// shared by every cursor of the entry.
	layout *cursorLayout
	// uses is the per-SMA attribution of the plan (see smaAttribution),
	// nil without an observer.
	uses []stats.SMAUse
	// epoch is the database epoch plan and uses were built at; they hold
	// only while it is current.
	epoch uint64
}

// stmtCache maps the raw SQL of a read to its entry.
type stmtCache struct {
	mu  sync.Mutex
	max int // stmtCacheMax; tests shrink it
	m   map[string]*stmtEntry
}

// get returns the entry of sql, or nil.
func (c *stmtCache) get(sql string) *stmtEntry {
	if len(sql) > stmtCacheMaxLen {
		return nil
	}
	c.mu.Lock()
	e := c.m[sql]
	c.mu.Unlock()
	return e
}

// put stores e as the entry of sql, unless sql is too long to keep.
func (c *stmtCache) put(sql string, e *stmtEntry) {
	if len(sql) > stmtCacheMaxLen {
		return
	}
	c.mu.Lock()
	if _, ok := c.m[sql]; !ok && len(c.m) >= c.max {
		c.m = nil
	}
	if c.m == nil {
		c.m = make(map[string]*stmtEntry)
	}
	c.m[sql] = e
	c.mu.Unlock()
}

// remember builds the entry of a query just planned at the current epoch,
// under the fingerprint its parse gave the statement, and offers it to the
// cache. Caller holds db.mu (either mode), so the
// epoch cannot move between the planning and the store.
func (db *DB) remember(s *statement, q *parser.Query, plan *planner.Plan) *stmtEntry {
	e := &stmtEntry{fp: s.Fingerprint, norm: s.Norm, query: q, epoch: db.epoch}
	if plan.Mem != nil {
		e.layout = newCursorLayout(plan, plan.Mem.Schema)
	} else {
		e.layout = newCursorLayout(plan, plan.Heap.Schema())
		tmpl := *plan // the caller's copy gets the pipeline
		e.plan = &tmpl
		if db.opts.Obs != nil && len(plan.SelSMAs) > 0 {
			e.uses = smaAttribution(plan)
		}
	}
	db.stmts.put(s.sql, e)
	return e
}

// smaAttribution returns, for each selection SMA the plan consulted, the
// buckets it alone disqualifies for the plan's predicate and the heap pages
// that spares (none when the plan scans everything anyway), grading each
// SMA alone over every bucket. It is computed once per statement cache
// entry: the sweep is O(buckets) per SMA, far too slow to repeat on every
// execution of a hot statement.
func smaAttribution(plan *planner.Plan) []stats.SMAUse {
	uses := make([]stats.SMAUse, 0, len(plan.SelSMAs))
	for _, s := range plan.SelSMAs {
		runs := core.NewGrader(s).GradeAll(plan.Query.Where)
		disq := int64(core.CountGrades(runs).Disqualifying)
		// A short last bucket saves only the pages it has.
		bp := int64(plan.Heap.BucketPages)
		pages := disq * bp
		if n := len(runs); n > 0 && runs[n-1].Grade == core.Disqualifies {
			first, last := plan.Heap.BucketRange(int(runs[n-1].Hi) - 1)
			pages -= bp - int64(last-first) - 1
		}
		if plan.Strategy == planner.StrategyFullScan {
			pages = 0
		}
		uses = append(uses, stats.SMAUse{
			Name: s.Def.Name, Column: smaColumn(s.Def), Kind: s.Def.Agg.String(),
			Disqualified: disq, PagesSaved: pages,
		})
	}
	return uses
}
