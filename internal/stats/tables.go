package stats

import (
	"fmt"
	"strings"
	"time"

	"sma/internal/tuple"
)

// Virtual system-table names. The engine intercepts these at plan time and
// serves an in-memory snapshot instead of a heap scan; they are queryable
// through every SELECT surface (wire protocol, client, smaql, sma.DB).
const (
	TableStatements = "SMA_STAT_STATEMENTS"
	TableSMAs       = "SMA_STAT_SMAS"
	TableTables     = "SMA_STAT_TABLES"
	TableActivity   = "SMA_STAT_ACTIVITY"
	TableAdvisor    = "SMA_ADVISOR"
)

// IsVirtual reports whether name (any case) is an introspection table.
func IsVirtual(name string) bool {
	switch strings.ToUpper(name) {
	case TableStatements, TableSMAs, TableTables, TableActivity, TableAdvisor:
		return true
	}
	return false
}

// Relation is a materialized virtual-table snapshot.
type Relation struct {
	Name   string
	Schema *tuple.Schema
	Tuples []tuple.Tuple
}

// CatalogSMA describes one defined SMA; the engine supplies the catalog so
// the stats layer can join observed counters against definitions.
type CatalogSMA struct {
	Table  string
	Name   string
	Column string // the min/max column, or the count SMA's group-by column
	Kind   string // "min", "max", "count"
}

var (
	statementsSchema = tuple.MustSchema([]tuple.Column{
		{Name: "FINGERPRINT", Type: tuple.TChar, Len: 16},
		{Name: "CALLS", Type: tuple.TInt64},
		{Name: "ERRORS", Type: tuple.TInt64},
		{Name: "TOTAL_MS", Type: tuple.TFloat64},
		{Name: "MIN_MS", Type: tuple.TFloat64},
		{Name: "MAX_MS", Type: tuple.TFloat64},
		{Name: "P50_MS", Type: tuple.TFloat64},
		{Name: "P99_MS", Type: tuple.TFloat64},
		{Name: "ROWS", Type: tuple.TInt64},
		{Name: "ROWS_AFFECTED", Type: tuple.TInt64},
		{Name: "PAGES_READ", Type: tuple.TInt64},
		{Name: "PAGES_PRUNED", Type: tuple.TInt64},
		{Name: "QUALIFY", Type: tuple.TInt64},
		{Name: "DISQUALIFY", Type: tuple.TInt64},
		{Name: "AMBIVALENT", Type: tuple.TInt64},
		{Name: "STRATEGY", Type: tuple.TChar, Len: 16},
		{Name: "DOP", Type: tuple.TInt64},
		{Name: "WAL_BYTES", Type: tuple.TInt64},
		{Name: "WAL_SYNCS", Type: tuple.TInt64},
		{Name: "QUERY", Type: tuple.TChar, Len: 96},
	})
	smasSchema = tuple.MustSchema([]tuple.Column{
		{Name: "TABLE_NAME", Type: tuple.TChar, Len: 24},
		{Name: "SMA_NAME", Type: tuple.TChar, Len: 24},
		{Name: "COLUMN_NAME", Type: tuple.TChar, Len: 24},
		{Name: "KIND", Type: tuple.TChar, Len: 8},
		{Name: "CONSULTED", Type: tuple.TInt64},
		{Name: "DISQUALIFIED", Type: tuple.TInt64},
		{Name: "PAGES_SAVED", Type: tuple.TInt64},
		{Name: "MAINT_OPS", Type: tuple.TInt64},
	})
	tablesSchema = tuple.MustSchema([]tuple.Column{
		{Name: "TABLE_NAME", Type: tuple.TChar, Len: 24},
		{Name: "SCANS", Type: tuple.TInt64},
		{Name: "ROWS_READ", Type: tuple.TInt64},
		{Name: "PAGES_READ", Type: tuple.TInt64},
		{Name: "PAGES_PRUNED", Type: tuple.TInt64},
		{Name: "INSERTS", Type: tuple.TInt64},
		{Name: "UPDATES", Type: tuple.TInt64},
		{Name: "DELETES", Type: tuple.TInt64},
		{Name: "ROWS_AFFECTED", Type: tuple.TInt64},
		{Name: "WAL_BYTES", Type: tuple.TInt64},
	})
	activitySchema = tuple.MustSchema([]tuple.Column{
		{Name: "ID", Type: tuple.TInt64},
		{Name: "KIND", Type: tuple.TChar, Len: 8},
		{Name: "ELAPSED_MS", Type: tuple.TFloat64},
		{Name: "FINGERPRINT", Type: tuple.TChar, Len: 16},
		{Name: "SQL_TEXT", Type: tuple.TChar, Len: 96},
	})
	advisorSchema = tuple.MustSchema([]tuple.Column{
		{Name: "ACTION", Type: tuple.TChar, Len: 4},
		{Name: "TABLE_NAME", Type: tuple.TChar, Len: 24},
		{Name: "TARGET", Type: tuple.TChar, Len: 32},
		{Name: "FILTERS", Type: tuple.TInt64},
		{Name: "EST_PAGES_SAVED", Type: tuple.TInt64},
		{Name: "MAINT_OPS", Type: tuple.TInt64},
		{Name: "REASON", Type: tuple.TChar, Len: 96},
		{Name: "SUGGESTION", Type: tuple.TChar, Len: 96},
	})
)

// RelationFor materializes the named virtual table from the collector's
// current counters. A nil collector (observability disabled) yields the
// table's schema with zero rows. The second result is false when name is
// not a virtual table.
func RelationFor(name string, c *Collector, catalog []CatalogSMA) (*Relation, bool) {
	switch strings.ToUpper(name) {
	case TableStatements:
		return statementsRelation(c), true
	case TableSMAs:
		return smasRelation(c, catalog), true
	case TableTables:
		return tablesRelation(c), true
	case TableActivity:
		return activityRelation(c), true
	case TableAdvisor:
		return advisorRelation(c, catalog), true
	}
	return nil, false
}

func statementsRelation(c *Collector) *Relation {
	rel := &Relation{Name: TableStatements, Schema: statementsSchema}
	for _, st := range c.Statements() {
		p50, p99 := st.Quantiles()
		t := tuple.NewTuple(statementsSchema)
		setChar(t, 0, fmt.Sprintf("%016x", st.Fingerprint))
		t.SetInt64(1, st.Calls)
		t.SetInt64(2, st.Errors)
		t.SetFloat64(3, ms(time.Duration(st.TotalNS)))
		t.SetFloat64(4, ms(time.Duration(st.MinNS)))
		t.SetFloat64(5, ms(time.Duration(st.MaxNS)))
		t.SetFloat64(6, ms(p50))
		t.SetFloat64(7, ms(p99))
		t.SetInt64(8, st.Rows)
		t.SetInt64(9, st.RowsAffected)
		t.SetInt64(10, st.PagesRead)
		t.SetInt64(11, st.PagesPruned)
		t.SetInt64(12, st.Qualify)
		t.SetInt64(13, st.Disqualify)
		t.SetInt64(14, st.Ambivalent)
		setChar(t, 15, st.Strategy)
		t.SetInt64(16, int64(st.DOP))
		t.SetInt64(17, st.WALBytes)
		t.SetInt64(18, st.WALSyncs)
		setChar(t, 19, st.Text)
		rel.Tuples = append(rel.Tuples, t)
	}
	return rel
}

func smasRelation(c *Collector, catalog []CatalogSMA) *Relation {
	rel := &Relation{Name: TableSMAs, Schema: smasSchema}
	stats := make(map[string]SMAStats, 8)
	for _, s := range c.SMAs() {
		stats[smaKey(s.Table, s.Name)] = s
	}
	// One row per *defined* SMA: counters for dropped SMAs linger in the
	// collector until `reset stats` but no longer appear here.
	for _, def := range catalog {
		s := stats[smaKey(def.Table, def.Name)]
		t := tuple.NewTuple(smasSchema)
		setChar(t, 0, def.Table)
		setChar(t, 1, def.Name)
		setChar(t, 2, def.Column)
		setChar(t, 3, def.Kind)
		t.SetInt64(4, s.Consulted)
		t.SetInt64(5, s.Disqualified)
		t.SetInt64(6, s.PagesSaved)
		t.SetInt64(7, s.MaintOps)
		rel.Tuples = append(rel.Tuples, t)
	}
	return rel
}

func tablesRelation(c *Collector) *Relation {
	rel := &Relation{Name: TableTables, Schema: tablesSchema}
	for _, ts := range c.Tables() {
		t := tuple.NewTuple(tablesSchema)
		setChar(t, 0, ts.Table)
		t.SetInt64(1, ts.Scans)
		t.SetInt64(2, ts.RowsRead)
		t.SetInt64(3, ts.PagesRead)
		t.SetInt64(4, ts.PagesPruned)
		t.SetInt64(5, ts.Inserts)
		t.SetInt64(6, ts.Updates)
		t.SetInt64(7, ts.Deletes)
		t.SetInt64(8, ts.RowsAffected)
		t.SetInt64(9, ts.WALBytes)
		rel.Tuples = append(rel.Tuples, t)
	}
	return rel
}

func activityRelation(c *Collector) *Relation {
	rel := &Relation{Name: TableActivity, Schema: activitySchema}
	now := time.Now()
	for _, a := range c.Activities() {
		t := tuple.NewTuple(activitySchema)
		t.SetInt64(0, a.ID)
		setChar(t, 1, a.Kind)
		t.SetFloat64(2, ms(now.Sub(a.Start)))
		setChar(t, 3, fmt.Sprintf("%016x", a.Fingerprint))
		setChar(t, 4, strings.Join(strings.Fields(a.SQL), " "))
		rel.Tuples = append(rel.Tuples, t)
	}
	return rel
}

func advisorRelation(c *Collector, catalog []CatalogSMA) *Relation {
	rel := &Relation{Name: TableAdvisor, Schema: advisorSchema}
	for _, adv := range Advise(c, catalog) {
		t := tuple.NewTuple(advisorSchema)
		setChar(t, 0, adv.Action)
		setChar(t, 1, adv.Table)
		setChar(t, 2, adv.Target)
		t.SetInt64(3, adv.Filters)
		t.SetInt64(4, adv.EstPagesSaved)
		t.SetInt64(5, adv.MaintOps)
		setChar(t, 6, adv.Reason)
		setChar(t, 7, adv.Suggestion)
		rel.Tuples = append(rel.Tuples, t)
	}
	return rel
}

// setChar writes a string into a fixed-width char column, truncating to
// the column width (SetChar pads but would silently keep a longer backing
// string honest; the truncation here makes the contract explicit).
func setChar(t tuple.Tuple, i int, s string) {
	if w := t.Schema.Column(i).Len; len(s) > w {
		s = s[:w]
	}
	t.SetChar(i, s)
}

func ms(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e6
}
