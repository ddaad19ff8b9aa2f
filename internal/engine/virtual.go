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
