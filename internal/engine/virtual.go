package engine

// This file wires the virtual system tables: the introspection catalog
// (sma_stat_statements, sma_stat_smas, sma_stat_tables, sma_stat_activity,
// sma_advisor) is served from in-memory snapshots of the stats collector,
// intercepted at plan time so every SELECT surface — wire protocol,
// client, smaql, and the embedded API — streams them like ordinary tables.

import (
	"sort"
	"strings"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/parser"
	"sma/internal/planner"
	"sma/internal/stats"
)

// statsC returns the database's stats collector, or nil when
// observability is disabled. stats.Collector methods are nil-safe, so the
// result can be used unconditionally.
func (db *DB) statsC() *stats.Collector {
	if o := db.opts.Obs; o != nil {
		return o.Stats
	}
	return nil
}

// smaColumn names the column an SMA is about for the stats layer: its
// aggregate's column, or the group-by column of a one-group count SMA.
func smaColumn(def core.Def) string {
	if def.Agg == core.Count && len(def.GroupBy) == 1 {
		return strings.ToUpper(def.GroupBy[0])
	}
	return def.ColumnOf()
}

// smaCatalog snapshots the defined SMAs for the stats layer's
// definition-vs-observation joins. Caller holds db.mu (either mode).
func (db *DB) smaCatalog() []stats.CatalogSMA {
	var out []stats.CatalogSMA
	for _, t := range db.tables {
		for name, s := range t.smas {
			out = append(out, stats.CatalogSMA{
				Table:  t.Name,
				Name:   name,
				Column: smaColumn(s.Def),
				Kind:   s.Def.Agg.String(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// virtualRelation materializes the named virtual table, or returns nil
// when the name is not one. With observability disabled the tables exist
// but are empty. Caller holds db.mu (either mode).
func (db *DB) virtualRelation(name string) *exec.MemRelation {
	if !stats.IsVirtual(name) {
		return nil
	}
	var catalog []stats.CatalogSMA
	switch strings.ToUpper(name) {
	case stats.TableSMAs, stats.TableAdvisor:
		catalog = db.smaCatalog()
	}
	rel, _ := stats.RelationFor(name, db.statsC(), catalog)
	return &exec.MemRelation{Name: rel.Name, Schema: rel.Schema, Tuples: rel.Tuples}
}

// planVirtual plans a query over a virtual table snapshot. Caller holds
// db.mu (either mode).
func (db *DB) planVirtual(q *parser.Query, rel *exec.MemRelation) (*planner.Plan, error) {
	if q.Where != nil {
		if err := q.Where.Bind(rel.Schema); err != nil {
			return nil, err
		}
	}
	return db.pl.PlanMem(q, rel)
}

// fpEntry is one cached statement fingerprint.
type fpEntry struct {
	fp   uint64
	norm string
}

// fpCacheMax bounds the fingerprint cache; past it the map is dropped
// and repopulated on demand.
const fpCacheMax = 4096

// fpCacheMaxLen is the longest statement text the fingerprint cache keeps.
// The cache pays for short statements that repeat — a dashboard's queries;
// a load's INSERTs are long, never repeat, and keyed by their text would
// pin megabytes of dead SQL while paying for a map insert each.
const fpCacheMaxLen = 1 << 10

// fingerprint is parser.Fingerprint through the per-database cache.
func (db *DB) fingerprint(sql string) (uint64, string) {
	if len(sql) > fpCacheMaxLen {
		return parser.Fingerprint(sql)
	}
	db.fpMu.Lock()
	e, ok := db.fpCache[sql]
	db.fpMu.Unlock()
	if ok {
		return e.fp, e.norm
	}
	fp, norm := parser.Fingerprint(sql)
	db.fpMu.Lock()
	if db.fpCache == nil || len(db.fpCache) >= fpCacheMax {
		db.fpCache = make(map[string]fpEntry)
	}
	db.fpCache[sql] = fpEntry{fp: fp, norm: norm}
	db.fpMu.Unlock()
	return fp, norm
}

// attrCacheMax bounds the attribution cache; when distinct (table,
// predicate) pairs exceed it the whole map is dropped and rebuilt on
// demand — correctness never depends on an entry being present.
const attrCacheMax = 1024

// invalidateSMAAttribution drops the attribution cache. Called under
// db.mu's write lock by every write statement (beginStmt) and by SMA DDL,
// the two ways bucket bounds can change.
func (db *DB) invalidateSMAAttribution() {
	db.attrMu.Lock()
	db.attrCache = nil
	db.attrMu.Unlock()
}

// smaAttribution returns, for each selection SMA the plan consulted, the
// buckets it alone disqualifies for the plan's predicate and the heap
// pages that spares (none when the plan scans everything anyway), grading
// each SMA alone over every bucket on a cache miss. The cache key is the
// raw SQL text — it pins the table, the predicate's literals and, the
// planner being deterministic, the strategy; unlike rendering the
// predicate it costs nothing to build. The caller's read lock on db.mu
// keeps writers out between the grading sweep and the store, so a
// computed entry cannot be stale by the time it lands in the cache.
func (db *DB) smaAttribution(key string, plan *planner.Plan) []stats.SMAUse {
	db.attrMu.Lock()
	uses, ok := db.attrCache[key]
	db.attrMu.Unlock()
	if ok {
		return uses
	}
	uses = make([]stats.SMAUse, 0, len(plan.SelSMAs))
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
	db.attrMu.Lock()
	if db.attrCache == nil || len(db.attrCache) >= attrCacheMax {
		db.attrCache = make(map[string][]stats.SMAUse)
	}
	db.attrCache[key] = uses
	db.attrMu.Unlock()
	return uses
}
